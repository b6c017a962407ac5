"""Label Cover instances, the gadget reduction to weighted 3-variable group
equations, and exact payoff evaluation on either side of a template."""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InvalidParams, MissingVariable, enum_cap
from .fourier import noise_weights
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    GroupPower,
    Template,
    identity_hom,
    fold,
)


# Equations per block in the kernels that run over a system's encoding: their
# scratch memory stays small next to the system itself.
EQUATION_BLOCK = 1024


@dataclass(frozen=True)
class LabelCoverInstance:
    """A bipartite constraint graph with one projection D -> E per edge."""

    d_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
    edges: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]

    def __post_init__(self):
        if not self.edges:
            raise InvalidParams("instance needs at least one edge")
        if set(self.d_labels) & set(self.e_labels):
            raise InvalidParams("label sets must be disjoint")
        if set(self.u_names) & set(self.v_names):
            raise InvalidParams("vertex names must be disjoint across sides")
        for u, v, pi in self.edges:
            if u not in self.u_names or v not in self.v_names:
                raise InvalidParams(f"edge ({u},{v}) has an unknown endpoint")
            pid = dict(pi)
            if set(pid) != set(self.d_labels):
                raise InvalidParams(f"edge ({u},{v}): projection not total on D")
            if not set(pid.values()) <= set(self.e_labels):
                raise InvalidParams(f"edge ({u},{v}): projection maps outside E")

    def edge_maps(self) -> list[tuple[str, str, dict[str, str]]]:
        return [(u, v, dict(pi)) for u, v, pi in self.edges]


def make_label_cover(d_labels, e_labels, u_names, v_names, edges) -> LabelCoverInstance:
    return LabelCoverInstance(
        tuple(str(x) for x in d_labels),
        tuple(str(x) for x in e_labels),
        tuple(str(x) for x in u_names),
        tuple(str(x) for x in v_names),
        tuple(
            (str(u), str(v), tuple(sorted((str(k), str(w)) for k, w in dict(pi).items())))
            for u, v, pi in edges
        ),
    )


@dataclass(frozen=True)
class LinEquation:
    """Three signed variable occurrences equal to a constant in Dom(phi)."""

    terms: tuple[tuple[str, int], ...]
    rhs: int
    weight: Fraction

    def __post_init__(self):
        if len(self.terms) != 3:
            raise InvalidParams("an equation has exactly three terms")
        for _, s in self.terms:
            if s not in (-1, 1):
                raise InvalidParams(f"exponent must be +-1, got {s}")
        if self.weight < 0:
            raise InvalidParams("weights must be non-negative")


@dataclass(frozen=True)
class LinSystem:
    """A weighted equation system over a template; weights sum to one."""

    template: Template
    variables: tuple[str, ...]
    equations: tuple[LinEquation, ...]

    def __post_init__(self):
        total = sum((e.weight for e in self.equations), Fraction(0))
        if total != 1:
            raise InvalidParams(f"weights sum to {total}, not 1")
        vs = set(self.variables)
        if len(vs) != len(self.variables):
            raise InvalidParams("variable names must be distinct")
        for e in self.equations:
            for v, _ in e.terms:
                if v not in vs:
                    raise InvalidParams(f"equation uses unknown variable {v}")
            if e.rhs not in self.template.h1:
                raise InvalidParams(f"rhs {e.rhs} outside Dom(phi)")

    @functools.cached_property
    def arrays(self) -> SystemArrays:
        """The integer encoding the solvers and ``evaluate`` run on; built on
        first use and kept for the life of the system."""
        index = {v: k for k, v in enumerate(self.variables)}
        eqs, m = self.equations, len(self.equations)
        # weight classes are keyed on (num, den): hashing Fractions is slower
        classes: dict[tuple[int, int], int] = {}
        wcls = (
            classes.setdefault((eq.weight.numerator, eq.weight.denominator), len(classes))
            for eq in eqs
        )
        return SystemArrays(
            var_ids=np.fromiter(
                (index[v] for eq in eqs for v, _ in eq.terms), np.int32, 3 * m
            ).reshape(m, 3),
            signs=np.fromiter((s for eq in eqs for _, s in eq.terms), np.int8, 3 * m).reshape(m, 3),
            rhs=np.fromiter((eq.rhs for eq in eqs), np.int16, m),
            weight_class=np.fromiter(wcls, np.int32, m),
            weights=tuple(Fraction(*key) for key in classes),
        )


@dataclass(frozen=True, eq=False)
class SystemArrays:
    """A side-independent integer view of a system: equation ``e`` reads
    ``prod_j var_ids[e, j] ** signs[e, j] = rhs[e]`` (``rhs`` in G1) with
    weight ``weights[weight_class[e]]``. Weights stay exact ``Fraction``s;
    kernels count hits per weight class and weigh the counts at the end."""

    var_ids: np.ndarray       # int32 [m, 3], positions in LinSystem.variables
    signs: np.ndarray         # int8 [m, 3], +1 or -1
    rhs: np.ndarray           # int16 [m], an element of Dom(phi) in G1
    weight_class: np.ndarray  # int32 [m], index into ``weights``
    weights: tuple[Fraction, ...]

    def weigh(self, counts) -> Fraction:
        """Sum over weight classes of weight times count, exactly."""
        return sum(
            (w * int(c) for w, c in zip(self.weights, counts) if c), Fraction(0)
        )


@dataclass(frozen=True, eq=False)
class SideTables:
    """One side of a template as int arrays: the group's Cayley table and
    inverses, and the map of G1 right-hand sides into it (identity on side
    1, phi on side 2)."""

    group: FiniteGroup
    table: np.ndarray     # [n, n]
    inverses: np.ndarray  # [n]
    rhs_map: np.ndarray   # [|G1|], -1 outside Dom(phi)

    def term_values(self, values: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """``values ** signs`` elementwise, for signs in {+1, -1}."""
        return np.where(signs < 0, self.inverses[values], values)

    def products(self, t0, t1, t2) -> np.ndarray:
        """``t0 * t1 * t2`` elementwise, through the Cayley table."""
        return self.table[self.table[t0, t1], t2]


def side_tables(template: Template, side: int) -> SideTables:
    if side not in (1, 2):
        raise InvalidParams("side must be 1 or 2")
    group = template.g1 if side == 1 else template.g2
    rhs_map = np.full(len(template.g1), -1, dtype=np.int16)
    for a, b in template.phi.mapping:
        rhs_map[a] = a if side == 1 else b
    return SideTables(
        group,
        np.array(group.table, dtype=np.int16),
        np.array(group.inverses, dtype=np.int16),
        rhs_map,
    )


@dataclass(frozen=True, eq=False)
class AssignmentFamily:
    """Long-code tables: one table over G1^E per right vertex and one over
    G1^D per left vertex, valued in G1 (side 1) or G2 (side 2)."""

    side: int
    a_tables: dict  # v -> np.ndarray of element indices over G1^E
    b_tables: dict  # u -> np.ndarray over G1^D

    def __post_init__(self):
        if self.side not in (1, 2):
            raise InvalidParams("side must be 1 or 2")


@dataclass(frozen=True)
class ReductionParams:
    eps: Fraction
    mode: str = "exact"
    sample_count: int | None = None
    seed: int = 0
    cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps < 1:
            raise InvalidParams(f"eps must be in (0,1), got {self.eps}")
        if self.mode not in ("exact", "sampled"):
            raise InvalidParams(f"unknown mode {self.mode}")
        if self.mode == "sampled" and not self.sample_count:
            raise InvalidParams("sampled mode needs sample_count")


def var_u(u: str, b_flat: int) -> str:
    return f"{u}[{b_flat}]"


def var_v(v: str, a_flat: int) -> str:
    return f"{v}[{a_flat}]"


def powers(lc: LabelCoverInstance, template: Template) -> tuple[GroupPower, GroupPower]:
    pe = GroupPower(template.g1, lc.e_labels)
    pd = GroupPower(template.g1, lc.d_labels)
    return pe, pd


def _check_exact_cap(lc, pe, pd, cap):
    raw = len(lc.edges) * pe.n * pd.n * pd.n * 4
    limit = enum_cap(cap)
    if raw > limit:
        raise CapExceeded(f"exact mode needs {raw} tuples, cap is {limit}")
    return raw


def _check_family_shape(lc, pe, pd, family):
    for v in lc.v_names:
        if v not in family.a_tables or len(family.a_tables[v]) != pe.n:
            raise InvalidParams(f"family table for {v} must have {pe.n} entries")
    for u in lc.u_names:
        if u not in family.b_tables or len(family.b_tables[u]) != pd.n:
            raise InvalidParams(f"family table for {u} must have {pd.n} entries")


def raw_equations(lc: LabelCoverInstance, template: Template, params: ReductionParams):
    """Yield (terms, rhs, weight) for every tuple of the sampling procedure.

    One equation per (edge, a, b, nu, s1, s2):

        v[a_rep] * u[b^s1]^s1 * u[c^s2]^s2 = h_a,   c = b^-1 (a o pi)^-1 nu

    with weight the product of the edge, a, b, nu, and sign probabilities.
    """
    pe, pd = powers(lc, template)
    _check_exact_cap(lc, pe, pd, params.cap)
    cosets = CosetDecomposition(template.h1, pe)
    nu_w = noise_weights(pd, params.eps)
    base = Fraction(1, len(lc.edges)) * Fraction(1, pe.n) * Fraction(1, pd.n) * Fraction(1, 4)
    for u, v, pi in lc.edge_maps():
        positions = pd.compose_positions(pi, lc.e_labels)
        for a in range(pe.n):
            a_rep, h_a = cosets.data(a)
            va = var_v(v, a_rep)
            a_coords = pe.coords(a)
            ap = pd.index([a_coords[p] for p in positions])
            ap_inv = pd.inv(ap)
            for b in range(pd.n):
                b_inv = pd.inv(b)
                mid = pd.mul(b_inv, ap_inv)
                ub = {1: var_u(u, b), -1: var_u(u, b_inv)}
                for nu in range(pd.n):
                    c = pd.mul(mid, nu)
                    c_inv = pd.inv(c)
                    w = base * nu_w[nu]
                    uc = {1: var_u(u, c), -1: var_u(u, c_inv)}
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            yield (
                                ((va, 1), (ub[s1], s1), (uc[s2], s2)),
                                h_a,
                                w,
                            )


def _sampled_equations(lc, template, params):
    pe, pd = powers(lc, template)
    rng = np.random.default_rng(params.seed)
    cosets = CosetDecomposition(template.h1, pe)
    g1 = template.g1
    w = Fraction(1, params.sample_count)
    edge_list = lc.edge_maps()
    for _ in range(params.sample_count):
        u, v, pi = edge_list[rng.integers(len(edge_list))]
        positions = pd.compose_positions(pi, lc.e_labels)
        a = int(rng.integers(pe.n))
        b = int(rng.integers(pd.n))
        nu_coords = [
            g1.identity if rng.random() >= float(params.eps) else int(rng.integers(len(g1)))
            for _ in range(pd.m)
        ]
        nu = pd.index(nu_coords)
        s1 = 1 if rng.integers(2) == 0 else -1
        s2 = 1 if rng.integers(2) == 0 else -1
        a_rep, h_a = cosets.data(a)
        a_coords = pe.coords(a)
        ap_inv = pd.inv(pd.index([a_coords[p] for p in positions]))
        c = pd.mul(pd.mul(pd.inv(b), ap_inv), nu)
        terms = (
            (var_v(v, a_rep), 1),
            (var_u(u, pd.pow_sign(b, s1)), s1),
            (var_u(u, pd.pow_sign(c, s2)), s2),
        )
        yield terms, h_a, w


def build_system(lc: LabelCoverInstance, template: Template, params: ReductionParams) -> LinSystem:
    """The weighted equation system of the reduction, with exact weights.

    Equations with identical (terms, rhs) are merged by summing weights; the
    term order of the construction is preserved, not sorted.
    """
    pe, pd = powers(lc, template)
    gen = (
        raw_equations(lc, template, params)
        if params.mode == "exact"
        else _sampled_equations(lc, template, params)
    )
    merged: dict[tuple, Fraction] = defaultdict(Fraction)
    for terms, rhs, w in gen:
        merged[(terms, rhs)] += w
    variables = [var_u(u, b) for u in lc.u_names for b in range(pd.n)]
    variables += [var_v(v, a) for v in lc.v_names for a in range(pe.n)]
    equations = tuple(
        LinEquation(terms, rhs, w) for (terms, rhs), w in merged.items()
    )
    return LinSystem(template, tuple(variables), equations)


def _assignment_values(system: LinSystem, assignment: dict, order: int) -> np.ndarray:
    """The assignment as an array in variable order; every variable must be
    present with a value in ``0..order-1``."""
    for x in system.variables:
        if x not in assignment:
            raise MissingVariable(x)
    values = [int(assignment[x]) for x in system.variables]
    for x, val in zip(system.variables, values):
        if not 0 <= val < order:
            raise InvalidParams(f"value {val} of {x} outside 0..{order - 1}")
    return np.array(values, dtype=np.int16)


def evaluate(system: LinSystem, assignment: dict, side: int) -> Fraction:
    """Total weight of satisfied equations under ``assignment``.

    On side 2 the constants are interpreted through phi.
    """
    tables = side_tables(system.template, side)
    values = _assignment_values(system, assignment, len(tables.group))
    enc = system.arrays
    counts = np.zeros(len(enc.weights), dtype=np.int64)
    for lo in range(0, len(enc.rhs), EQUATION_BLOCK):
        sl = slice(lo, lo + EQUATION_BLOCK)
        t = tables.term_values(values[enc.var_ids[sl]], enc.signs[sl])
        hit = tables.products(t[:, 0], t[:, 1], t[:, 2]) == tables.rhs_map[enc.rhs[sl]]
        counts += np.bincount(enc.weight_class[sl][hit], minlength=len(enc.weights))
    return enc.weigh(counts)


def payoff_distribution(
    lc: LabelCoverInstance,
    template: Template,
    params: ReductionParams,
    family: AssignmentFamily,
    side: int,
) -> dict[int, Fraction]:
    """Exact distribution of the folded three-query product.

    Returns the probability mass of each group element
    z = A'_v(a) * B_u(b^s1)^s1 * B_u(c^s2)^s2, where A' is A_v folded over
    the identity (side 1) or over phi (side 2). The mass at the identity is
    the payoff of the family.
    """
    if side != family.side:
        raise InvalidParams("family built for the other side")
    pe, pd = powers(lc, template)
    _check_exact_cap(lc, pe, pd, params.cap)
    _check_family_shape(lc, pe, pd, family)
    group = template.g1 if side == 1 else template.g2
    hom = identity_hom(template.h1) if side == 1 else template.phi
    nu_w = noise_weights(pd, params.eps)
    base = Fraction(1, len(lc.edges)) * Fraction(1, pe.n) * Fraction(1, pd.n) * Fraction(1, 4)
    mass: dict[int, Fraction] = defaultdict(Fraction)
    for u, v, pi in lc.edge_maps():
        positions = pd.compose_positions(pi, lc.e_labels)
        a_folded = fold(family.a_tables[v], pe, hom)
        b_table = np.asarray(family.b_tables[u], dtype=np.int64)
        for a in range(pe.n):
            za = int(a_folded[a])
            a_coords = pe.coords(a)
            ap_inv = pd.inv(pd.index([a_coords[p] for p in positions]))
            for b in range(pd.n):
                b_inv = pd.inv(b)
                mid = pd.mul(b_inv, ap_inv)
                tb = {
                    1: int(b_table[b]),
                    -1: group.inv(int(b_table[b_inv])),
                }
                for nu in range(pd.n):
                    c = pd.mul(mid, nu)
                    tc = {
                        1: int(b_table[c]),
                        -1: group.inv(int(b_table[pd.inv(c)])),
                    }
                    w = base * nu_w[nu]
                    for s1 in (1, -1):
                        zb = group.mul(za, tb[s1])
                        for s2 in (1, -1):
                            mass[group.mul(zb, tc[s2])] += w
    return dict(mass)


def evaluate_family(
    lc: LabelCoverInstance,
    template: Template,
    params: ReductionParams,
    family: AssignmentFamily,
    side: int,
) -> Fraction:
    """Payoff of a family by direct enumeration of the sampling procedure."""
    dist = payoff_distribution(lc, template, params, family, side)
    group = template.g1 if side == 1 else template.g2
    return dist.get(group.identity, Fraction(0))


def family_assignment(
    lc: LabelCoverInstance, template: Template, family: AssignmentFamily
) -> dict[str, int]:
    """The variable assignment encoded by a family of tables."""
    pe, pd = powers(lc, template)
    _check_family_shape(lc, pe, pd, family)
    out: dict[str, int] = {}
    for u in lc.u_names:
        table = family.b_tables[u]
        for b in range(pd.n):
            out[var_u(u, b)] = int(table[b])
    for v in lc.v_names:
        table = family.a_tables[v]
        for a in range(pe.n):
            out[var_v(v, a)] = int(table[a])
    return out


def projection_family(
    lc: LabelCoverInstance,
    template: Template,
    h_d: dict[str, str],
    h_e: dict[str, str],
    side: int,
) -> AssignmentFamily:
    """Long-code projections for a labeling; side 2 goes through the witness."""
    pe, pd = powers(lc, template)
    epos = {l: k for k, l in enumerate(lc.e_labels)}
    dpos = {l: k for k, l in enumerate(lc.d_labels)}
    psi = template.witness if side == 2 else tuple(range(len(template.g1)))
    a_tables = {}
    for v in lc.v_names:
        k = epos[str(h_e[v])]
        a_tables[v] = np.array([psi[pe.coords(a)[k]] for a in range(pe.n)])
    b_tables = {}
    for u in lc.u_names:
        k = dpos[str(h_d[u])]
        b_tables[u] = np.array([psi[pd.coords(b)[k]] for b in range(pd.n)])
    return AssignmentFamily(side, a_tables, b_tables)


def lc_value(lc: LabelCoverInstance, h_d: dict[str, str], h_e: dict[str, str]) -> Fraction:
    """Fraction of edges whose projection maps the left label to the right one."""
    hits = sum(
        1 for u, v, pi in lc.edge_maps() if str(pi[str(h_d[u])]) == str(h_e[v])
    )
    return Fraction(hits, len(lc.edges))
