"""Built-in verification suite: one registry of invariant checks.

Each check exercises one invariant of the library on the catalog and reports
a residual. ``registry`` declares every check once, as a row (module, name,
function, arguments); ``run`` loops over the rows for ``grouplin selftest``,
and the test suite parametrizes over the same rows. A check function takes
the seed first and returns ``(residual, detail)``, which passes at the run's
tolerance (or at the row's pinned tolerance, if that is tighter), or
``(ok, residual, detail)`` for exact checks, which ignore the tolerance.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Callable

import numpy as np

from . import catalog, decoder, io, reduction
from .cli import SELFTEST_MODULES as MODULES
from .decoder import (
    derandomize_strategy,
    expected_character,
    high_degree_mass,
    kappa,
    left_table,
    make_context,
    alpha,
    decode,
    trivial_term_bound,
)
from .errors import CapExceeded
from .fourier import (
    MatrixFn,
    convolve,
    inverse,
    noise_apply,
    plancherel_gap,
    product_irreps,
    transform,
)
from .groups import FiniteGroup, GroupPower, Subgroup, coset_arrays, fold, full_subgroup, subgroup, trivial_subgroup
from .reduction import (
    AssignmentFamily,
    LinEquation,
    LinSystem,
    ReductionParams,
    _codes,
    build_system,
    class_hits,
    evaluate,
    evaluate_family,
    family_assignment,
    make_label_cover,
    payoff_distribution,
    planted,
    projection_family,
    side_view,
    support,
)
from .reps import eta, irreps, multiplicity, regular_representation
from .solvers import brute_force_opt, derandomize, derandomized_value, non_cubic_solve, random_expectation
from .solvers import _counts

GROUP_NAMES = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8", "s4")


def subgroup_pairs() -> dict[str, tuple[FiniteGroup, Subgroup]]:
    """Named (group, subgroup) pairs of the catalog groups, which the
    checks and the test suite share."""
    s3 = catalog.group("s3")
    z4 = catalog.group("z4")
    q8 = catalog.group("q8")
    return {
        "s3/a3": (s3, subgroup(s3, (0, 4, 5))),
        "s3/<(12)>": (s3, subgroup(s3, (0, 1))),
        "z4/{0,2}": (z4, subgroup(z4, (0, 2))),
        "q8/center": (q8, subgroup(q8, (0, 1))),
    }


@dataclass
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} residual={self.residual:.3e}" + (
            f" ({self.detail})" if self.detail else ""
        )


@dataclass
class Report:
    entries: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]


@dataclass(frozen=True)
class Check:
    module: str
    name: str
    fn: Callable
    args: tuple = ()
    tol: float = math.inf  # a pinned tolerance; the tighter of it and the run's applies

    @property
    def id(self) -> str:
        return f"{self.module}:{self.name}"

    def run(self, seed: int = 0, tol: float = 1e-9) -> CheckResult:
        try:
            out = self.fn(seed, *self.args)
        except Exception as exc:  # a crash is a failing check, not a crash of the suite
            return CheckResult(self.id, False, float("nan"), repr(exc))
        if len(out) == 3:
            ok, residual, detail = out
        else:
            residual, detail = out
            ok = residual <= min(tol, self.tol)
        return CheckResult(self.id, bool(ok), float(residual), detail)


# -- group core ---------------------------------------------------------------

def _check_group_axioms(seed, name):
    g = catalog.group(name)
    e = g.identity
    worst = 0
    for i in range(len(g)):
        if g.mul(e, i) != i or g.mul(i, e) != i:
            worst += 1
        if g.mul(i, g.inv(i)) != e:
            worst += 1
    for i, j, k in itertools.product(range(len(g)), repeat=3):
        if g.mul(g.mul(i, j), k) != g.mul(i, g.mul(j, k)):
            worst += 1
            break
    return worst == 0, float(worst), ""


def _check_witness(seed, tname):
    t = catalog.template(tname)
    psi = t.witness
    bad = sum(
        1
        for a in range(len(t.g1))
        for b in range(len(t.g1))
        if psi[t.g1.mul(a, b)] != t.g2.mul(psi[a], psi[b])
    )
    bad += sum(1 for h, image in t.phi.mapping if psi[h] != image)
    return bad == 0, float(bad), ""


def _act(power, h, g) -> int:
    """The tuple ``g`` of ``power`` with every coordinate multiplied by
    ``h`` on the left."""
    return int(power.mul_array(power.encode(np.full(power.m, h)), g))


def _check_fold(seed, tname):
    t = catalog.template(tname)
    rng = np.random.default_rng(seed)
    power = GroupPower(t.g1, ["n0", "n1"])
    table = rng.integers(0, len(t.g2), size=power.n)
    folded = fold(table, power, t.phi)
    refold = fold(folded, power, t.phi)
    bad = int(np.sum(folded != refold))
    phi = dict(t.phi.mapping)
    for _ in range(100):
        g = int(rng.integers(power.n))
        h = int(rng.choice(t.h1.members))
        lhs = int(folded[_act(power, h, g)])
        rhs = t.g2.mul(phi[h], int(folded[g]))
        bad += lhs != rhs
    return bad == 0, float(bad), ""


def _check_cosets(seed, tname):
    t = catalog.template(tname)
    rng = np.random.default_rng(seed)
    power = GroupPower(t.g1, ["n0", "n1"])
    bad = 0
    for _ in range(20):
        g = int(rng.integers(power.n))
        rep, h = (int(x[0]) for x in coset_arrays(t.h1, power, [g]))
        if _act(power, h, g) != rep:
            bad += 1
        orbit = [_act(power, m, g) for m in t.h1.members]
        if set(coset_arrays(t.h1, power, orbit)[0].tolist()) != {rep}:
            bad += 1
    return bad == 0, float(bad), ""


# -- representations ----------------------------------------------------------

def _check_entry_orthogonality(seed, name):
    # also the unitarity and homomorphism residuals of every irrep
    iset = irreps(catalog.group(name), seed=seed)
    g = iset.group
    rows, dims = [], []
    res = 0.0
    for rep in iset.irreps:
        res = max(res, rep.unitarity_residual(), rep.homomorphism_residual())
        for i in range(rep.dim):
            for j in range(rep.dim):
                rows.append(rep.matrices[:, i, j])
                dims.append(rep.dim)
    m = np.stack(rows)
    gram = m @ m.conj().T / len(g)
    target = np.diag([1.0 / d for d in dims])
    return max(res, float(np.abs(gram - target).max())), ""


def _check_char_dim_sum(seed, name):
    # sum_rho dim * chi_rho is the regular character, and sum_rho dim^2 = |G|
    iset = irreps(catalog.group(name), seed=seed)
    g = iset.group
    total = sum(r.dim * r.character() for r in iset.irreps)
    target = np.zeros(len(g), dtype=complex)
    target[g.identity] = len(g)
    square_gap = abs(sum(d * d for d in iset.dims()) - len(g))
    return max(float(np.abs(total - target).max()), float(square_gap)), ""


def _check_entry_sums(seed, name):
    iset = irreps(catalog.group(name), seed=seed)
    res = 0.0
    for rep in iset.irreps[1:]:
        res = max(res, float(np.abs(rep.matrices.sum(axis=0)).max()))
    return res, ""


def _check_regular_multiplicities(seed, name):
    iset = irreps(catalog.group(name), seed=seed)
    reg = regular_representation(iset.group)
    bad = sum(1 for r in iset.irreps if multiplicity(r, reg) != r.dim)
    return bad == 0, float(bad), ""


def _check_frobenius_pair(seed, key):
    g, h = subgroup_pairs()[key]
    iset = irreps(g, seed=seed)
    total = sum(r.dim * eta(r, h) for r in iset.irreps)
    expect = len(g) // len(h)
    return total == expect, float(abs(total - expect)), f"sum={total}"


def _check_frobenius_degenerate(seed, name):
    g = catalog.group(name)
    iset = irreps(g, seed=seed)
    bad = 0
    for h in (trivial_subgroup(g), full_subgroup(g)):
        total = sum(r.dim * eta(r, h) for r in iset.irreps)
        bad += total != len(g) // len(h)
    return bad == 0, float(bad), ""


def _check_tensor_trace(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    c, d = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    r1 = abs(np.trace(np.kron(a, c)) - np.trace(a) * np.trace(c))
    r2 = np.abs(np.kron(a @ b, c @ d) - np.kron(a, c) @ np.kron(b, d)).max()
    return float(max(r1, r2)), ""


# -- fourier ------------------------------------------------------------------

def _check_roundtrip(seed):
    iset = irreps(catalog.group("s3"), seed=seed)
    power = GroupPower(iset.group, ["p0", "p1"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        f = MatrixFn(power, rng.standard_normal((power.n, 1, 1)) + 1j * rng.standard_normal((power.n, 1, 1)))
        back = inverse(transform(f, rhos), rhos)
        worst = max(worst, float(np.abs(back.values - f.values).max()))
        worst = max(worst, plancherel_gap(f, rhos))
    return worst, ""


def _check_entry_expansion(seed):
    # sum_ij F^(rho_ij) rho_ij(g) must equal the character-convolution form;
    # on G^1 the product irreducibles are the base ones, and tuples elements
    iset = irreps(catalog.group("s3"), seed=seed)
    group = iset.group
    power = GroupPower(group, ["p0"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    table = transform(f, rhos)
    worst = 0.0
    for rho in rhos:
        rep = iset.irreps[rho.comps[0]]
        mats, chi = rep.matrices, rep.character()
        for g in range(power.n):
            lhs = np.einsum("ijxy,ij->xy", table.blocks[rho.comps], mats[g])
            rhs = np.zeros((2, 2), dtype=complex)
            for h in range(power.n):
                rhs += f.values[h] * chi[group.mul(group.inv(h), g)]
            rhs /= power.n
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, ""


def _check_convolution(seed):
    # the convolution theorem against the defining sum
    # (F*H)(g) = |G|^-1 sum_t F(t) H(t^-1 g)
    iset = irreps(catalog.group("s3"), seed=seed)
    group = iset.group
    power = GroupPower(group, ["p0"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    h = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    direct = np.zeros_like(f.values)
    for g in range(power.n):
        for t in range(power.n):
            direct[g] += f.values[t] @ h.values[group.mul(group.inv(t), g)]
    direct /= power.n
    worst = float(np.abs(convolve(f, h).values - direct).max())
    direct_table = transform(MatrixFn(power, direct), rhos)
    tf, th = transform(f, rhos), transform(h, rhos)
    for rho in rhos:
        lhs = direct_table.blocks[rho.comps]
        rhs = np.einsum("ikxz,kjzy->ijxy", tf.blocks[rho.comps], th.blocks[rho.comps])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, ""


def _check_noise(seed):
    # every coefficient of degree d shrinks by (1 - eps)^d; all of d = 0..3 occur
    iset = irreps(catalog.group("z2"), seed=seed)
    power = GroupPower(iset.group, ["p0", "p1", "p2"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = MatrixFn(power, rng.integers(-8, 8, size=(power.n, 1, 1)).astype(complex))
    eps = Fraction(1, 2)
    noisy, plain = transform(noise_apply(f, eps), rhos), transform(f, rhos)
    worst = 0.0
    for rho in rhos:
        lhs = noisy.blocks[rho.comps]
        rhs = float((1 - eps) ** rho.degree) * plain.blocks[rho.comps]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    factors = sorted({(1 - eps) ** rho.degree for rho in rhos}, reverse=True)
    if factors != [Fraction(1, 2**d) for d in range(4)]:
        worst = max(worst, 1.0)
    return worst, "factors=" + ",".join(str(x) for x in factors)


def _check_product_completeness(seed):
    bad = 0
    for name, m in (("z2", 3), ("s3", 2)):
        iset = irreps(catalog.group(name), seed=seed)
        rhos = product_irreps(iset, [f"p{k}" for k in range(m)])
        if sum(r.dim**2 for r in rhos) != len(iset.group) ** m:
            bad += 1
    return bad == 0, float(bad), ""


# -- reduction ----------------------------------------------------------------

def _weights_total(system) -> Fraction:
    arrays = system.arrays
    return arrays.weigh(np.bincount(arrays.weight_class, minlength=len(arrays.weights)))


def _check_weights_sum(seed, tname, eps):
    # read from the integer encoding: total weight 1, first sign +1, rhs in H1
    t = catalog.template(tname)
    system = build_system(catalog.label_cover("lc1"), t, ReductionParams(eps))
    arrays = system.arrays
    total = _weights_total(system)
    bad = int(np.sum(arrays.signs[:, 0] != 1)) + int(
        np.sum(~np.isin(arrays.rhs, t.h1.members))
    )
    ok = total == 1 and bad == 0
    return ok, float(abs(total - 1)) + bad, f"equations={len(arrays)}"


def _check_completeness_value(seed, tname):
    # a projection family of any labeling scores 1 - eps (1 - 1/|G1|) exactly
    t = catalog.template(tname)
    lc = catalog.label_cover("lc1")
    worst, values = Fraction(0), set()
    for eps in (Fraction(1, 8), Fraction(1, 4)):
        expect = 1 - eps * (1 - Fraction(1, len(t.g1)))
        for d in lc.d_labels:
            fam = projection_family(lc, t, {"u0": d}, {"v0": "e0"}, side=1)
            value = evaluate_family(lc, t, ReductionParams(eps), fam, side=1)
            worst = max(worst, abs(value - expect))
            values.add(value)
    return worst == 0, float(worst), "values=" + ",".join(str(v) for v in sorted(values))


def _check_two_paths(seed):
    # the factored payoff count against evaluating the built system, on
    # random families over an abelian and a non-abelian template
    rng = np.random.default_rng(seed)
    lc = catalog.label_cover("lc1")
    params = ReductionParams(Fraction(1, 4))
    bad, families = [], 0
    for tname, side in (("z2_id", 2), ("s3_a3_incl", 1), ("s3_a3_incl", 2)):
        t = catalog.template(tname)
        system = build_system(lc, t, params)
        sup = support(lc, t)
        order = len(t.g1 if side == 1 else t.g2)
        for _ in range(10 if tname == "z2_id" else 5):
            fam = AssignmentFamily(
                side,
                {"v0": rng.integers(0, order, size=sup.pe.n)},
                {"u0": rng.integers(0, order, size=sup.pd.n)},
            )
            via_family = evaluate_family(lc, t, params, fam, side=side)
            via_system = evaluate(system, family_assignment(lc, t, fam), side=side)
            families += 1
            if via_family != via_system:
                bad.append(f"{tname},side={side}")
    return not bad, float(len(bad)), " ".join([f"families={families}", *bad])


def _check_row_codes(seed):
    """``_codes`` against a sort of the rows as tuples, in numbers and in
    order, also where column sizes up to 2^32 make the code be ranked."""
    rng = np.random.default_rng(seed)
    bad = ranked = 0
    for _ in range(40):
        sizes = rng.integers(1, 2**32, size=int(rng.integers(1, 7)), endpoint=True).tolist()
        # three values per column, so that rows repeat
        rows = list(zip(*(rng.integers(0, size, size=3)[rng.integers(0, 3, size=40)].tolist() for size in sizes)))
        rank = {row: k for k, row in enumerate(sorted(set(rows)))}
        _, inverse = np.unique(_codes(np.array(rows).T, sizes), return_inverse=True)
        bad += inverse.tolist() != [rank[r] for r in rows]
        ranked += math.prod(sizes) > 2**63
    return bad == 0 and ranked > 0, float(bad), f"40 cases, {ranked} ranked"


def _check_sampling(seed):
    # a sampled system's weights sum to 1 and its value is near the exact one
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    exact = evaluate_family(lc, t, ReductionParams(Fraction(1, 4)), fam, side=1)
    n = 4096
    params = ReductionParams(Fraction(1, 4), mode="sampled", sample_count=n, seed=seed)
    system = build_system(lc, t, params)
    sampled = evaluate(system, family_assignment(lc, t, fam), side=1)
    gap = abs(float(sampled - exact))
    bound = 4 / float(np.sqrt(n))
    total = _weights_total(system)
    return gap <= bound and total == 1, gap, f"bound={bound:.4f} total={total}"


# -- solvers ------------------------------------------------------------------

def random_system(template, rng, n_vars=4, n_eqs=5) -> LinSystem:
    """A small system with random terms, rhs in H1 and integer weights,
    identical (terms, rhs) merged."""
    names = [f"x{i}" for i in range(n_vars)]
    weights = [int(rng.integers(1, 6)) for _ in range(n_eqs)]
    total = sum(weights)
    merged = {}
    for w in weights:
        terms = tuple(
            (names[int(rng.integers(n_vars))], 1 if rng.integers(2) else -1)
            for _ in range(3)
        )
        rhs = int(rng.choice(template.h1.members))
        key = (terms, rhs)
        merged[key] = merged.get(key, Fraction(0)) + Fraction(w, total)
    eqs = tuple(LinEquation(terms, rhs, w) for (terms, rhs), w in merged.items())
    return LinSystem(template, tuple(names), eqs)


def _check_derandomize_dominates(seed):
    t = catalog.template("z2_id")
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(50):
        system = random_system(t, rng)
        expect = random_expectation(system, t, side=2)
        assignment = derandomize(system, t, side=2)
        value = evaluate(system, assignment, side=2)
        bad += value < expect
    return bad == 0, float(bad), ""


def _check_brute_dominates(seed):
    t = catalog.template("z2_id")
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(15):
        system = random_system(t, rng, n_vars=3, n_eqs=4)
        opt, _ = brute_force_opt(system, side=2)
        val = evaluate(system, derandomize(system, t, side=2), side=2)
        bad += opt < val
    return bad == 0, float(bad), ""


def _check_distinct_var_expectation(seed, *tnames):
    # distinct variables hit with probability 1/|H2|, for any signs and rhs
    bad = 0
    for tname in tnames:
        t = catalog.template(tname)
        eqs = (
            LinEquation((("x", 1), ("y", 1), ("z", -1)), t.g1.identity, Fraction(1, 3)),
            LinEquation((("x", 1), ("y", -1), ("z", 1)), t.g1.identity, Fraction(1, 3)),
            LinEquation((("z", 1), ("x", 1), ("y", 1)), min(t.h1.members), Fraction(1, 3)),
        )
        system = LinSystem(t, ("x", "y", "z"), eqs)
        if random_expectation(system, t, side=2) != Fraction(1, len(t.h2)):
            bad += 1
    return bad == 0, float(bad), ""


def _check_warm_equals_cold(seed):
    # the exact systems of one support share the solvers' kept hit counts, so
    # each eps after the first solves warm; a copy with its own memo is cold
    sweep = _sweep(seed)
    lc = catalog.label_cover("lc_tiny")
    bad = 0
    for tname in catalog.templates():
        t = catalog.template(tname)
        for eps in sweep + sweep[:1]:
            warm = build_system(lc, t, ReductionParams(eps))
            cold = LinSystem.from_arrays(t, warm.variables, warm.arrays)
            for side in (1, 2):
                bad += derandomize(warm, t, side) != derandomize(cold, t, side)
                bad += random_expectation(warm, t, side) != random_expectation(cold, t, side)
    return bad == 0, float(bad), f"{len(catalog.templates())} pairs x {len(sweep) + 1} eps x 2 sides"


def doubled_tiny():
    """lc_tiny's edge doubled beside a single one: at eps = |G1| / (|G1| + 1)
    two equations of noise class k + 1 weigh one of class k, so two row
    classes weigh the same."""
    edge = ("u0", "v0", {"d0": "e0"})
    return make_label_cover(["d0"], ["e0"], ["u0", "u1"], ["v0"], [edge, edge, ("u1", "v0", {"d0": "e0"})])


def _sweep(seed) -> list[Fraction]:
    rng = np.random.default_rng(seed)
    return [Fraction(1, 8), Fraction(3, 17), Fraction(9, 10), Fraction(int(rng.integers(1, 99)), 100)]


def _check_derandomized_value(seed):
    # the value weighed from the counts kept with derandomize's path is its
    # assignment's, over an eps sweep on one shared memo, also where two row
    # weights are equal; the assignment's hits are counted once per distinct
    # assignment and weight class array, and weighed at each eps
    sweep = _sweep(seed)
    bad, cases, skipped = 0, 0, []
    pairs = itertools.product(catalog.templates().items(), {**catalog.label_covers(), "doubled": doubled_tiny()}.items())
    for (tname, t), (lname, lc) in pairs:
        hits = {}
        try:
            for eps in sweep + [Fraction(len(t.g1), len(t.g1) + 1), sweep[0]]:
                system = build_system(lc, t, ReductionParams(eps))
                for side in (1, 2):
                    assignment = derandomize(system, t, side)
                    key = side, tuple(assignment.values()), system.arrays.weight_class.tobytes()
                    if key not in hits:
                        hits[key] = class_hits(system, assignment, side)
                    bad += derandomized_value(system, t, side) != system.arrays.weigh(hits[key])
                    cases += 1
        except CapExceeded:
            skipped.append(f"{tname}/{lname}")
    return bad == 0, float(bad), f"{cases} cases, over the cap: {skipped}"


def flipping_systems():
    """Two Z3 systems on one memo, as the exact systems of one support
    share theirs, whose ``derandomize`` choices differ. x = 1 wins alone;
    y = 1 (class 1) and y = 2 (class 2) pull against each other, so the
    weights pick y; z = y - x follows y."""
    t = catalog.template("z3_id")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1, 10)),
        LinEquation((("y", 1), ("x", 1), ("x", -1)), 1, Fraction(4, 10)),
        LinEquation((("y", 1), ("z", 1), ("z", -1)), 2, Fraction(3, 10)),
        LinEquation((("z", 1), ("y", -1), ("x", 1)), 0, Fraction(2, 10)),
    ]
    one = LinSystem(t, ("x", "y", "z"), eqs)
    return t, one, one.reweighed([1, 3, 4, 2], 10)


def _check_weight_flip(seed):
    # weights that flip a choice make derandomize walk again; the new walk
    # and its assignment's counts are a cold solve's
    t, one, two = flipping_systems()
    bad, flips = 0, 0
    for side in (1, 2):
        got = []
        for system in (one, two, one, two):
            got.append(derandomize(system, t, side))
            cold = LinSystem.from_arrays(t, system.variables, system.arrays)
            bad += got[-1] != derandomize(cold, t, side)
            bad += derandomized_value(system, t, side) != evaluate(system, got[-1], side)
        flips += got[0] != got[1]
    return bad == 0 and flips == 2, float(bad), f"choices flip on {flips} of 2 sides"


def _check_path_check(seed):
    # derandomize reuses its kept walk where every untied step still picks
    # its choice, and walks again otherwise. The flipping systems' weights
    # flip y, so each warm solve walks again, as a cold solve does; on a
    # doubled-instance sweep every step ties, so each solve with a kept walk
    # reuses it (all but the first per template and side, at least), and
    # its value is the random expectation
    t, one, two = flipping_systems()
    bad, walks, reused = 0, 0, 0
    for system, side in itertools.product((one, two, one), (1, 2)):
        end = _counts(system, side).assigned
        got = derandomize(system, t, side)
        walks += _counts(system, side).assigned is not end
        bad += got != derandomize(LinSystem.from_arrays(t, system.variables, system.arrays), t, side)
    for t in catalog.templates().values():
        for eps in _sweep(seed) + [Fraction(len(t.g1), len(t.g1) + 1)]:
            system = build_system(doubled_tiny(), t, ReductionParams(eps))
            for side in (1, 2):
                kept = _counts(system, side)
                end = kept.assigned
                value = derandomized_value(system, t, side)
                reused += end is not None and kept.assigned is end
                bad += bool(kept.untied) or (end is not None and kept.assigned is not end)
                bad += value != random_expectation(system, t, side)
    detail = f"{walks} walks in 6 flipping solves, {reused} doubled solves reuse a walk"
    return bad == 0 and walks == 6 and reused >= 40, float(bad), detail


def _check_tied_path_martingale(seed):
    # a step where every value has the same hits in every weight class
    # keeps the conditional expectation, so where every step of the kept
    # walk ties, the derandomized value is the random expectation, exactly;
    # the two are weighed from independent counts (the walk's end and the
    # expectation's totals). Every step ties on these pairs: one per
    # variable the view's incidence gives rows.
    bad, cases, steps = 0, 0, 0
    for t, name in itertools.product(catalog.templates().values(), ("lc_tiny", "lc1")):
        for eps in (Fraction(1, 8), Fraction(3, 17), Fraction(1, 4001)):
            system = build_system(catalog.label_cover(name), t, ReductionParams(eps))
            for side in (1, 2):
                value, kept = derandomized_value(system, t, side), _counts(system, side)
                indptr = side_view(system, side).memo["incidence"][2]
                bad += bool(kept.untied) or value != random_expectation(system, t, side)
                cases, steps = cases + 1, steps + int(np.count_nonzero(np.diff(indptr)))
    return bad == 0, float(bad), f"{cases} cases, {steps} tied steps"


def _check_noncubic_sound(seed):
    t = catalog.template("z3_id")
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(10):
        system = random_system(t, rng, n_vars=3, n_eqs=4)
        _, opt_assign = brute_force_opt(system, side=1)
        opt = evaluate(system, opt_assign, side=1)
        for c in (Fraction(1, 2), Fraction(3, 4)):
            result = non_cubic_solve(system, t, c)
            if result["status"] == "reject" and opt >= c:
                bad += 1
    return bad == 0, float(bad), ""


# -- decoder ------------------------------------------------------------------

@functools.cache
def _planted_context(tname, seed, eps=Fraction(1, 8), delta=Fraction(1, 4)):
    t = catalog.template(tname)
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    return make_context(lc, t, eps, delta, fam, seed=seed)


def _check_averaging(seed, tname):
    ctx = _planted_context(tname, seed)
    total = sum(
        r.dim * expected_character(ctx, r) for r in ctx.g2_irreps.irreps
    )
    target = len(ctx.template.g2) * float(ctx.value)
    return abs(complex(total) - target), f"value={ctx.value}"


def _check_trivial_term(seed, tname):
    ctx = _planted_context(tname, seed)
    worst = -1.0
    detail = []
    for rep in ctx.g2_irreps.irreps[1:]:
        measured, penalty = trivial_term_bound(ctx, rep)
        worst = max(worst, measured - penalty)
        detail.append(f"{measured:.2e}<= {penalty}")
    return max(worst, 0.0), "; ".join(detail)


def _check_high_degree(seed, tname):
    ctx = _planted_context(tname, seed)
    k_threshold = kappa(ctx.delta, ctx.eps)
    one_minus = 1 - float(ctx.eps)
    bad = 0.0
    for rep in ctx.g2_irreps.irreps[1:]:
        at_threshold = high_degree_mass(ctx, rep, k_threshold)
        bad = max(bad, at_threshold - rep.dim * float(ctx.delta) / 2)
        for k in (1, 2):
            mass = high_degree_mass(ctx, rep, k)
            bad = max(bad, mass - 2 * one_minus**k * rep.dim)
    return bad, ""


def _check_skew_symmetry(seed):
    ctx = _planted_context("s3_a3_incl", seed)
    rng = np.random.default_rng(seed)
    omega = ctx.g2_irreps.irreps[-1]
    fam = AssignmentFamily(
        2,
        ctx.family.a_tables,
        {"u0": rng.integers(0, 6, size=ctx.pd.n)},
    )
    # the random family is below the promise threshold on purpose, so the
    # decoder's warning about it is kept out of the run's output
    disabled, decoder.log.disabled = decoder.log.disabled, True
    try:
        ctx2 = make_context(ctx.lc, ctx.template, ctx.eps, ctx.delta, fam, seed=seed)
    finally:
        decoder.log.disabled = disabled
    b_fn = left_table(ctx2, omega, "u0")
    inv_arr = ctx2.pd.inv_array()
    res = float(
        np.abs(b_fn.values[inv_arr] - b_fn.values.conj().transpose(0, 2, 1)).max()
    )
    return res, ""


def _check_decode_floor(seed, tname):
    ctx = _planted_context(tname, seed)
    strategy, value, choice = decode(ctx)
    floor = float(alpha(ctx.delta, kappa(ctx.delta, ctx.eps), len(ctx.template.g1), len(ctx.template.g2)))
    ok = value >= floor and choice.margin >= 0
    return ok, max(floor - value, 0.0), f"value={value:.4f} floor={floor:.2e}"


def _kept_outputs(lc, t, eps, families, delta=Fraction(1, 4)):
    """What a support keeps serves: the built system, both payoff
    distributions and, where the promise allows, the decode."""
    params = ReductionParams(eps)
    system = build_system(lc, t, params)
    enc = system.arrays
    arrays = [x.tobytes() for x in (enc.var_ids, enc.signs, enc.rhs, enc.weight_class)], enc.weights
    payoffs = [payoff_distribution(lc, t, params, families[side], side) for side in (1, 2)]
    decoded = None
    if Fraction(1, len(t.h2)) + delta <= 1 - eps:
        strategy, value, choice = decode(make_context(lc, t, eps, delta, families[2]))
        decoded = strategy, value, (choice.index, choice.margin, choice.x, choice.y, choice.z)
    return arrays, payoffs, decoded


def _check_kept_equals_cold(seed):
    # over an eps sweep, the weight class totals, payoff counts and decode
    # outcomes a support keeps give what a cold support gives, also where
    # two row weights are equal; every pair of lc_tiny, and lc_tiny with a
    # doubled edge
    sweep = _sweep(seed) + [Fraction(1, 100)]
    bad, cases = 0, 0
    for tname, t in catalog.templates().items():
        for lc in (catalog.label_cover("lc_tiny"), doubled_tiny()):
            families = {
                side: projection_family(lc, t, dict.fromkeys(lc.u_names, "d0"), dict.fromkeys(lc.v_names, "e0"), side)
                for side in (1, 2)
            }
            eps_list = sweep + [Fraction(len(t.g1), len(t.g1) + 1), sweep[0]]
            warm = [_kept_outputs(lc, t, eps, families) for eps in eps_list]
            for eps, kept in zip(eps_list, warm):
                reduction._support.cache_clear()
                bad += kept != _kept_outputs(lc, t, eps, families)
                cases += 1
    return bad == 0, float(bad), f"{cases} cases"


def _decoded(lc, t, eps, delta, family):
    """A decode with its rounding, as the pipeline reports it."""
    strategy, value, choice = decode(make_context(lc, t, eps, delta, family))
    return strategy, value, choice, derandomize_strategy(lc, strategy)


def _check_kept_decode(seed):
    # over an eps sweep and back, the decode outcome kept per truncation
    # gives what a cleared support gives, and kappa is the least k >= 1
    # with (1 - eps)^k <= delta / 4; every catalog pair, where the promise
    # allows eps
    delta = Fraction(1, 4)
    sweep = _sweep(seed) + [Fraction(1, 4001), Fraction(1, 8)]
    bad, cases = 0, 0
    for t, lc in itertools.product(catalog.templates().values(), catalog.label_covers().values()):
        family = planted(lc, t)[2]
        eps_list = [eps for eps in sweep if Fraction(1, len(t.h2)) + delta <= 1 - eps]
        warm = [_decoded(lc, t, eps, delta, family) for eps in eps_list]
        for eps, kept in zip(eps_list, warm):
            reduction._support.cache_clear()
            bad += kept != _decoded(lc, t, eps, delta, family)
            k = kept[0].kappa
            bad += not (1 - eps) ** k <= delta / 4 < (1 - eps) ** (k - 1)
            cases += 1
    return bad == 0, float(bad), f"{cases} cases"


def _check_json_roundtrip(seed):
    """Canonical JSON reads back to the same bytes, and the streaming
    system writer gives exactly those bytes."""
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    system = build_system(lc, t, ReductionParams(Fraction(1, 2)))
    objs = [
        io.group_to_obj(catalog.group("s3")),
        io.lc_to_obj(catalog.label_cover("lc2")),
        io.template_to_obj(catalog.template("z4_to_z2"), "z4", "z2"),
        io.system_to_obj(system, "z2_id"),
        io.family_to_obj(projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)),
    ]
    bad = 0
    for obj in objs:
        text = io.canonical_dumps(obj)
        bad += io.canonical_dumps(json.loads(text)) != text
    written = StringIO()
    io.write_system(system, "z2_id", written)
    bad += written.getvalue() != io.canonical_dumps(objs[3])
    return bad == 0, float(bad), ""


# -- registry -----------------------------------------------------------------

@functools.cache
def registry() -> tuple[Check, ...]:
    """Every check, once, in the order ``grouplin selftest`` prints them."""
    rows: list[Check] = []

    def add(module, name, fn, *args, tol=math.inf):
        rows.append(Check(module, name, fn, args, tol))

    for name in GROUP_NAMES:
        add("groups", f"axioms[{name}]", _check_group_axioms, name)
    for tname in catalog.templates():
        add("groups", f"witness[{tname}]", _check_witness, tname)
        add("groups", f"fold[{tname}]", _check_fold, tname)
        add("groups", f"cosets[{tname}]", _check_cosets, tname)

    for name in GROUP_NAMES:
        add("reps", f"entry-orthogonality[{name}]", _check_entry_orthogonality, name)
        add("reps", f"character-dim-sum[{name}]", _check_char_dim_sum, name)
        add("reps", f"nontrivial-entry-sums[{name}]", _check_entry_sums, name)
        add("reps", f"regular-multiplicities[{name}]", _check_regular_multiplicities, name)
    for key in subgroup_pairs():
        add("reps", f"induced-trivial-sum[{key}]", _check_frobenius_pair, key)
    for name in GROUP_NAMES:
        add("reps", f"induced-trivial-sum[{name}/degenerate]", _check_frobenius_degenerate, name)
    add("reps", "tensor-trace", _check_tensor_trace, tol=1e-12)

    add("fourier", "roundtrip+plancherel[s3^2]", _check_roundtrip)
    add("fourier", "entry-expansion[s3]", _check_entry_expansion)
    add("fourier", "convolution-coefficients[s3]", _check_convolution)
    add("fourier", "noise-attenuation[z2^3]", _check_noise, tol=1e-12)
    add("fourier", "product-completeness", _check_product_completeness)

    for tname in ("z2_id", "z3_id", "z4_to_z2", "s3_sign", "s3_a3_incl"):
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            add("reduction", f"weights-sum[{tname},eps={eps}]", _check_weights_sum, tname, eps)
    for tname in ("z2_id", "s3_sign"):
        add("reduction", f"completeness-value[{tname}]", _check_completeness_value, tname)
    add("reduction", "two-path-agreement", _check_two_paths)
    add("reduction", "row-codes", _check_row_codes)
    add("reduction", "sampling-concentration", _check_sampling)

    add("solvers", "derandomize-dominates", _check_derandomize_dominates)
    add("solvers", "brute-dominates", _check_brute_dominates)
    add(
        "solvers",
        "distinct-variable-expectation",
        _check_distinct_var_expectation,
        "z2_id",
        "z4_to_z2",
        "s3_sign",
    )
    add("solvers", "unsatisfiable-rejection-sound", _check_noncubic_sound)
    add("solvers", "warm-equals-cold[lc_tiny]", _check_warm_equals_cold)
    add("solvers", "derandomized-value", _check_derandomized_value)
    add("solvers", "weight-flip-rescore", _check_weight_flip)
    add("solvers", "path-check", _check_path_check)
    add("solvers", "tied-path-martingale", _check_tied_path_martingale)

    for tname in ("z2_id", "s3_sign", "s3_a3_incl"):
        add("decoder", f"averaging-consistency[{tname}]", _check_averaging, tname)
        add("decoder", f"trivial-term-penalty[{tname}]", _check_trivial_term, tname)
        add("decoder", f"high-degree-smoothing[{tname}]", _check_high_degree, tname)
        add("decoder", f"decoded-value-floor[{tname}]", _check_decode_floor, tname)
    add("decoder", "skew-symmetry", _check_skew_symmetry, tol=1e-12)
    add("decoder", "warm-equals-cold[lc_tiny]", _check_kept_equals_cold)
    add("decoder", "kept-decode", _check_kept_decode)

    add("io", "json-canonical-roundtrip", _check_json_roundtrip)
    return tuple(rows)


def lookup(name: str) -> list[Check]:
    """The checks whose id is ``name`` or ``name[...]``, in registry order."""
    found = [c for c in registry() if c.id == name or c.id.startswith(name + "[")]
    if not found:
        raise KeyError(f"no selftest check named {name!r}")
    return found


def run(seed: int = 0, tol: float = 1e-9, only: str | None = None) -> Report:
    return Report([c.run(seed, tol) for c in registry() if only in (None, c.module)])
