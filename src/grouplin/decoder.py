"""Soundness decoder: from a side-2 assignment family that beats the random
threshold, extract a randomized Label Cover strategy via penalized characters
and low-degree Fourier influences, together with the measurable quantities
the analysis bounds."""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import InvalidParams, NoOmega, read_caps
from .fourier import MatrixFn, _block_product, inverse, product_irreps, transform
from .groups import GroupPower, Template, fold
from .reduction import (
    AssignmentFamily,
    KeptFamily,
    LabelCoverInstance,
    ReductionParams,
    bind,
    composed_inverse,
    lc_value,
    payoff_distribution,
)
from .reps import IrrepSet, UnitaryRep, eta, irreps

log = logging.getLogger(__name__)

_TIE = 1e-12

# kappa's float ratio is off by a few units in the last place; within this
# relative distance of an integer its rounding is checked in integers
_KAPPA_GUARD = 1e-9


def _ln(num: int, den: int) -> float:
    """Natural log of num / den in (0, 1), accurate near 0 and near 1."""
    if 2 * num > den:
        return math.log1p(-((den - num) / den))
    ratio = num / den  # correctly rounded
    return math.log(ratio) if ratio >= sys.float_info.min else math.log(num) - math.log(den)


def kappa(delta: Fraction, eps: Fraction) -> int:
    """Truncation degree: the least k >= 1 with (1 - eps)^k <= delta / 4.

    With eps = p/q and delta / 4 = a/b, that is ln(a/b) / ln((q-p)/q)
    rounded up, and the ratio is taken from floats. Its error is far below
    ``_KAPPA_GUARD`` relative, so only a ratio within that of an integer is
    settled in integers, by (q-p)^k b <= a q^k at the rounded-up ratio and
    one below. Not clamped to |D|: the influences keep degrees
    0 < deg < k.
    """
    delta, eps = Fraction(delta), Fraction(eps)
    p, q = eps.numerator, eps.denominator
    a, b = delta.numerator, 4 * delta.denominator
    if not 0 < p < q:
        raise InvalidParams(f"eps must be in (0,1), got {eps}")
    if not 0 < a < b:
        raise InvalidParams(f"delta must be in (0,4), got {delta}")
    r = q - p
    ratio = _ln(a, b) / _ln(r, q)
    value = max(1, math.ceil(ratio))
    if abs(ratio - round(ratio)) > _KAPPA_GUARD * ratio:
        return value
    # the float guess is off by less than one, so checking value - 1 and
    # value settles it
    r_below, q_below = r ** (value - 1), q ** (value - 1)
    if r_below * r * b > a * q_below * q:
        value += 1
    elif value > 1 and r_below * b <= a * q_below:
        value -= 1
    return value


def alpha(delta: Fraction, eps: Fraction, g1_size: int, g2_size: int) -> Fraction:
    """The guaranteed Label Cover value delta^2 / (4 k |G1|^k |G2|^4)."""
    return _alpha(Fraction(delta), kappa(delta, eps), g1_size, g2_size)


def _alpha(delta: Fraction, k: int, g1_size: int, g2_size: int) -> Fraction:
    """``alpha`` at the truncation degree ``k``, which ``decode`` computed."""
    return Fraction(delta.numerator**2, delta.denominator**2 * 4 * k * g1_size**k * g2_size**4)


@dataclass(frozen=True, eq=False)
class DecoderContext:
    """Everything the decoder needs, with the payoff distribution cached."""

    lc: LabelCoverInstance
    template: Template
    eps: Fraction
    delta: Fraction
    family: AssignmentFamily
    seed: int
    leftover: str
    g1_irreps: IrrepSet
    g2_irreps: IrrepSet
    pe: GroupPower
    pd: GroupPower
    prod_e: tuple
    prod_d: tuple
    z_mass: dict  # element of G2 -> Fraction
    value: Fraction
    kept: KeptFamily  # the support's side-2 entry the payoff count used


def make_context(
    lc: LabelCoverInstance,
    template: Template,
    eps: Fraction,
    delta: Fraction,
    family: AssignmentFamily,
    seed: int = 0,
    leftover: str = "giveup",
) -> DecoderContext:
    return _context(lc, template, Fraction(eps), Fraction(delta), family, seed, leftover, None)


def _context(lc, template, eps: Fraction, delta: Fraction, family, seed, leftover, params) -> DecoderContext:
    """``make_context``. ``params`` are those of the op the context belongs
    to, which bound them (``reduction.bind``) and validated eps; with None,
    it makes and binds its own once the promise is checked."""
    if leftover not in ("giveup", "normalize"):
        raise InvalidParams(f"unknown leftover rule {leftover}")
    if family.side != 2:
        raise InvalidParams("the decoder consumes side-2 families")
    threshold = Fraction(1, len(template.h2)) + delta
    if threshold > 1 - eps:
        raise InvalidParams(f"need 1/|Im(phi)| + delta <= 1 - eps, got {threshold} > {1 - eps}")
    if params is None:
        params = ReductionParams(eps)
        bind(lc, template, params, read_caps())
    mass = payoff_distribution(lc, template, params, family, side=2)
    value = mass.get(template.g2.identity, Fraction(0))
    if value < threshold:
        log.warning("family value %s is below the promise threshold %s", value, threshold)
    g1_ir = irreps(template.g1, seed=seed)
    g2_ir = irreps(template.g2, seed=seed)
    sup = params.resolved[0]
    return DecoderContext(
        lc=lc,
        template=template,
        eps=eps,
        delta=delta,
        family=family,
        seed=seed,
        leftover=leftover,
        g1_irreps=g1_ir,
        g2_irreps=g2_ir,
        pe=sup.pe,
        pd=sup.pd,
        prod_e=product_irreps(g1_ir, lc.e_labels),
        prod_d=product_irreps(g1_ir, lc.d_labels),
        z_mass=mass,
        value=value,
        kept=sup.families[2],
    )


@dataclass(frozen=True)
class OmegaChoice:
    """The selected representation with its penalty, margin, and entry indices."""

    index: int
    omega: UnitaryRep
    eta: int
    margin: float
    x: int = 0
    y: int = 0
    z: int = 0


def expected_character(ctx: DecoderContext, omega: UnitaryRep) -> complex:
    """E[chi_omega(z)] under the exact payoff distribution."""
    chi = omega.character()
    return sum(float(p) * complex(chi[g]) for g, p in ctx.z_mass.items())


def penalized_margin(ctx: DecoderContext, omega: UnitaryRep) -> float:
    """|E[chi_omega(z)]| - dim * delta - eta(omega, Im(phi))."""
    expectation = expected_character(ctx, omega)
    penalty = eta(omega, ctx.template.h2)
    return abs(expectation) - omega.dim * float(ctx.delta) - penalty


def select_omega(ctx: DecoderContext) -> OmegaChoice:
    """The non-trivial representation of largest penalized margin.

    Raises NoOmega when every margin is negative, which means the family
    value is below the promise threshold.
    """
    index, margin = _omega(ctx)
    omega = ctx.g2_irreps.irreps[index]
    return OmegaChoice(index, omega, eta(omega, ctx.template.h2), margin)


def _omega(ctx: DecoderContext) -> tuple[int, float]:
    """``select_omega``'s choice as the index of the representation and its
    margin, which ``decode`` builds its ``OmegaChoice`` from."""
    margins = [penalized_margin(ctx, omega) for omega in ctx.g2_irreps.irreps[1:]]
    best = None
    for idx, margin in enumerate(margins, start=1):
        if margin >= 0 and (best is None or margin > best[1] + _TIE):
            best = idx, margin
    if best is None:
        closest = int(np.argmax(margins)) + 1
        raise NoOmega(
            "no non-trivial representation has non-negative margin; the largest"
            f" is {margins[closest - 1]:.6g}, at irrep {closest}"
        )
    return best


def right_table(ctx: DecoderContext, omega: UnitaryRep, v: str) -> MatrixFn:
    """omega composed with the folded right-vertex table."""
    a_folded = fold(ctx.family.a_tables[v], ctx.pe, ctx.template.phi)
    return MatrixFn(ctx.pe, omega.matrices[a_folded])


def left_table(ctx: DecoderContext, omega: UnitaryRep, u: str) -> MatrixFn:
    """The sign-averaged composition for a left vertex; skew-symmetric."""
    w = omega.matrices
    b_table = ctx.family.b_tables[u]
    inv_d = ctx.pd.inv_array()
    direct = w[b_table]
    reflected = w[b_table[inv_d]].conj().transpose(0, 2, 1)
    return MatrixFn(ctx.pd, (direct + reflected) / 2)


def _edge_terms(ctx: DecoderContext, omega: UnitaryRep, kappa_value: int):
    """Per edge: A's values, a^_1 and W((a o pi)^-1) for every a in G1^E.

    W is B*B with each degree-d block scaled by (1-eps)^d where d >= kappa and
    zeroed elsewhere; by the convolution theorem its blocks are the squares of
    the blocks of B^, so W is one inverse transform. Every squared block has a
    non-negative diagonal trace, since B(g^-1) = B(g)^dagger; this is checked.
    """
    one_minus_eps = 1.0 - float(ctx.eps)
    for u, v, pi in ctx.lc.edge_maps():
        a_fn = right_table(ctx, omega, v)
        b_hat = transform(left_table(ctx, omega, u), ctx.prod_d)
        squares = _block_product(b_hat, b_hat)
        scaled = {}
        for rho in ctx.prod_d:
            block = squares.blocks[rho.comps]
            diag_trace = float(np.real(np.einsum("iixx->", block)))
            if diag_trace < -1e-9:
                raise InvalidParams(
                    f"diagonal coefficient trace {diag_trace} is negative"
                )
            high = rho.degree >= kappa_value
            scaled[rho.comps] = block * (one_minus_eps**rho.degree if high else 0.0)
        w_table = inverse(replace(squares, blocks=scaled), ctx.prod_d).values
        ap_inv = composed_inverse(ctx.pe, ctx.pd, pi, ctx.lc.e_labels)
        yield a_fn.values, np.mean(a_fn.values, axis=0), w_table[ap_inv]


def trivial_term_bound(ctx: DecoderContext, omega: UnitaryRep):
    """Measured trivial-coefficient term of the payoff expansion,
    |E_edges E_a tr(a^_1 T_{1-eps}(B*B)((a o pi)^-1))|.

    Returns (measured, eta); the analysis guarantees measured <= eta. Also
    verifies that averaging omega over Im(phi) yields a Hermitian projection
    of trace eta.
    """
    penalty = eta(omega, ctx.template.h2)
    avg = np.mean(omega.matrices[np.array(ctx.template.h2.members)], axis=0)
    if np.abs(avg - avg.conj().T).max() > 1e-9:
        raise InvalidParams("subgroup average of a unitary rep must be Hermitian")
    eigvals = np.linalg.eigvalsh(avg)
    if np.abs(eigvals * (1 - eigvals)).max() > 1e-9:
        raise InvalidParams("subgroup average must have eigenvalues in {0,1}")
    if abs(float(np.real(np.trace(avg))) - penalty) > 1e-9:
        raise InvalidParams("trace of the subgroup average must equal eta")

    total = 0.0 + 0.0j
    for _, a_hat_1, w in _edge_terms(ctx, omega, 0):
        total += np.mean(np.einsum("xy,gyx->g", a_hat_1, w))
    measured = abs(total / len(ctx.lc.edges))
    return measured, penalty


def high_degree_mass(ctx: DecoderContext, omega: UnitaryRep, kappa_value: int) -> float:
    """Contribution of representations of degree >= kappa to the expansion,
    after the noise attenuation is absorbed as (1-eps)^degree factors."""
    total = 0.0 + 0.0j
    for a_values, a_hat_1, w in _edge_terms(ctx, omega, kappa_value):
        total += np.einsum("gxy,gyx->", a_values - a_hat_1, w) / ctx.pe.n
    return abs(total / len(ctx.lc.edges))


def influence_probs(ctx: DecoderContext, omega: UnitaryRep, which, kappa_value: int) -> dict:
    """Low-degree influence of each coordinate of a vertex table entry.

    ``which`` is ("v", name, x, y) for a right vertex (uses the folded table
    composed with omega) or ("u", name, y, z) for a left vertex (uses the
    sign-averaged table). Labels map to the truncated Fourier mass of the
    representations non-trivial at that coordinate; the total is at most 1.
    The entry's terms (``_terms``) below ``kappa_value`` are summed in
    representation order. Only the truncation depends on eps, and ``decode``
    keeps its outcome per truncation, so a warm decode calls this not at all.
    """
    side, name, r, c = which
    if side not in ("v", "u"):
        raise InvalidParams("which must start with 'v' or 'u'")
    out = {l: 0.0 for l in (ctx.lc.e_labels if side == "v" else ctx.lc.d_labels)}
    for deg, mass, labels in _terms(ctx, omega, side, name, r, c):
        if deg < kappa_value:
            for label in labels:
                out[label] += mass
    return out


def _terms(ctx: DecoderContext, omega: UnitaryRep, side: str, name: str, r: int, c: int) -> list:
    """The (r, c) entry of a vertex table's transform, per representation
    of positive degree with non-zero mass, in order: its degree, its mass
    (dim times the squared block norm, over the degree) and the labels of
    the coordinates where it is non-trivial."""
    if side == "v":
        fn, rhos, labels = right_table(ctx, omega, name), ctx.prod_e, ctx.lc.e_labels
    else:
        fn, rhos, labels = left_table(ctx, omega, name), ctx.prod_d, ctx.lc.d_labels
    # the (r, c) entry as a 1 x 1 matrix table
    table = transform(replace(fn, values=fn.values[:, r : r + 1, c : c + 1]), rhos)
    terms = []
    for rho in rhos:
        deg = rho.degree
        if deg == 0:
            continue
        mass = rho.dim * float(np.sum(np.abs(table.blocks[rho.comps]) ** 2)) / deg
        if mass != 0.0:
            terms.append((deg, mass, [labels[pos] for pos, comp in enumerate(rho.comps) if comp != 0]))
    return terms


@dataclass(eq=False)
class Decoded:
    """The eps-free outcome of ``decode`` for one (omega, leftover, irreps,
    truncation), kept on the side-2 ``KeptFamily``: the entry indices, the
    label maps found there, read-only, and their agreement, and
    ``derandomize_strategy``'s rounding of those maps on ``lc`` once it is
    asked for."""

    xyz: tuple[int, int, int]
    v_probs: MappingProxyType
    u_probs: MappingProxyType
    value: float
    lc: LabelCoverInstance
    rounding: tuple | None = None  # (h_d, h_e, value)


@dataclass(frozen=True)
class Strategy:
    """Sub-probability label distributions per vertex, plus the leftover rule.
    ``decoded`` is the kept outcome a ``decode`` read the maps from; the
    maps of a strategy ``decode`` returns were checked when they were kept
    (``_kept_strategy``)."""

    v_probs: dict
    u_probs: dict
    kappa: int
    leftover: str
    decoded: Decoded | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for probs in list(self.v_probs.values()) + list(self.u_probs.values()):
            total = sum(probs.values())
            if total > 1 + 1e-9 or any(p < -1e-12 for p in probs.values()):
                raise InvalidParams(f"not a sub-probability map: {probs}")


def _apply_leftover(probs: dict, rule: str) -> dict:
    if rule == "normalize":
        total = sum(probs.values())
        if total > 0:
            return {k: p / total for k, p in probs.items()}
    return dict(probs)


def _agreement(lc: LabelCoverInstance, u_probs: dict, v_probs: dict) -> float:
    """E over edges of the probability that labels drawn from the maps agree."""
    total = 0.0
    for u, v, pi in lc.edge_maps():
        pu, pv = u_probs[u], v_probs[v]
        total += sum(pu.get(d, 0.0) * pv.get(str(pi[d]), 0.0) for d in lc.d_labels)
    return total / len(lc.edges)


def _copy(maps) -> dict:
    return {x: dict(probs) for x, probs in maps.items()}


def _read_only(maps: dict) -> MappingProxyType:
    return MappingProxyType({x: MappingProxyType(probs) for x, probs in maps.items()})


def _kept_strategy(found: Decoded, k: int, leftover: str) -> Strategy:
    """A ``Strategy`` over copies of a kept outcome's maps. Those passed the
    check of ``Strategy.__post_init__`` when ``_search`` kept them, and are
    read-only, so it is not run again; every other strategy runs it."""
    strategy = object.__new__(Strategy)
    vars(strategy).update(
        v_probs=_copy(found.v_probs), u_probs=_copy(found.u_probs), kappa=k, leftover=leftover, decoded=found
    )
    return strategy


def decode(ctx: DecoderContext):
    """Search the entry indices maximizing the truncated-influence strategy.

    Returns (strategy, expected_value, omega_choice). The existence argument
    only promises a good triple of indices; searching all of them dominates
    it at cubic cost in the dimension.

    Past the choice of omega, only the truncation depends on eps, and no
    product irrep has a degree above its coordinate count, so the outcome
    of the search is kept on the context's family entry (``ctx.kept``) per
    (omega, leftover, irreps, min(kappa, max(|D|, |E|) + 1)). The strategy
    carries the raw kappa and copies of the kept maps.
    """
    index, margin = _omega(ctx)
    omega = ctx.g2_irreps.irreps[index]
    k = kappa(ctx.delta, ctx.eps)
    lc = ctx.lc
    key = (omega, ctx.leftover, ctx.g1_irreps, min(k, max(len(lc.d_labels), len(lc.e_labels)) + 1))
    kept = ctx.kept.decodes
    if key not in kept:
        kept[key] = _search(ctx, omega, key[-1])
    found = kept[key]
    choice = OmegaChoice(index, omega, eta(omega, ctx.template.h2), margin, *found.xyz)
    return _kept_strategy(found, k, ctx.leftover), found.value, choice


def _search(ctx: DecoderContext, omega: UnitaryRep, k: int) -> Decoded:
    """``decode``'s search over the entry indices at truncation ``k``."""
    dim = omega.dim

    @functools.cache
    def maps(side, r, c):
        """The label maps of every vertex of the side, for entry (r, c)."""
        names = ctx.lc.v_names if side == "v" else ctx.lc.u_names
        return {x: _apply_leftover(influence_probs(ctx, omega, (side, x, r, c), k), ctx.leftover) for x in names}

    best = None
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                strategy = Strategy(maps("v", x, y), maps("u", y, z), k, ctx.leftover)
                value = _agreement(ctx.lc, strategy.u_probs, strategy.v_probs)
                if best is None or value > best[1] + _TIE:
                    best = (strategy, value, (x, y, z))
    strategy, value, xyz = best
    return Decoded(xyz, _read_only(strategy.v_probs), _read_only(strategy.u_probs), value, ctx.lc)


def derandomize_strategy(lc: LabelCoverInstance, strategy: Strategy):
    """Greedy conditional-expectation rounding of the randomized strategy.

    Fixes right vertices then left vertices, each to the label that keeps the
    expected agreement maximal (ties to the first label); returns the
    labeling and its exact Label Cover value. The rounding of a strategy
    from ``decode`` is kept with its ``decoded`` outcome, and returned (as
    copies) while the instance and the maps equal that outcome's.
    """
    found = strategy.decoded
    if found is None or found.lc != lc or (strategy.v_probs, strategy.u_probs) != (found.v_probs, found.u_probs):
        return _rounding(lc, strategy)
    if found.rounding is None:
        found.rounding = _rounding(lc, strategy)
    h_d, h_e, value = found.rounding
    return dict(h_d), dict(h_e), value


def _rounding(lc: LabelCoverInstance, strategy: Strategy):
    """``derandomize_strategy``'s walk."""
    v_dist = {v: dict(strategy.v_probs[v]) for v in lc.v_names}
    u_dist = {u: dict(strategy.u_probs[u]) for u in lc.u_names}

    def fix(dist, names, labels) -> dict[str, str]:
        chosen = {}
        for x in names:
            best_label, best_val = None, None
            for label in labels:
                dist[x] = {label: 1.0}
                val = _agreement(lc, u_dist, v_dist)
                if best_val is None or val > best_val + _TIE:
                    best_label, best_val = label, val
            dist[x] = {best_label: 1.0}
            chosen[x] = best_label
        return chosen

    h_e = fix(v_dist, lc.v_names, lc.e_labels)
    h_d = fix(u_dist, lc.u_names, lc.d_labels)
    return h_d, h_e, lc_value(lc, h_d, h_e)

