"""Built-in verification suite.

Each check exercises one invariant of the library on the catalog and reports
a residual; ``run`` collects them into a report whose entries either pass at
the given tolerance or fail with the measured value. Exact rational checks
ignore the tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog, io
from .decoder import (
    expected_character,
    high_degree_mass,
    kappa,
    left_table,
    make_context,
    alpha,
    decode,
    simulate_strategy,
    trivial_term_bound,
)
from .fourier import (
    MatrixFn,
    ScalarFn,
    coeff,
    convolve,
    inverse,
    noise_apply,
    plancherel_gap,
    product_irreps,
    pullback,
    similar,
    transform,
)
from .groups import CosetDecomposition, GroupPower, fold, is_cubic
from .reduction import (
    AssignmentFamily,
    LinEquation,
    LinSystem,
    ReductionParams,
    build_system,
    evaluate,
    evaluate_family,
    family_assignment,
    powers,
    projection_family,
    tuple_system,
)
from .reps import eta, irreps, multiplicity, regular_representation
from .solvers import brute_force_opt, derandomize, non_cubic_solve, random_expectation

GROUP_NAMES = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8")


@dataclass
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""


@dataclass
class Report:
    entries: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if e.ok else 'FAIL'} {e.name} residual={e.residual:.3e}"
            + (f" ({e.detail})" if e.detail else "")
            for e in self.entries
        ]


def _irrep_cache(seed):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = irreps(catalog.group(name), seed=seed)
        return cache[name]

    return get


# -- group core ---------------------------------------------------------------

def _check_group_axioms(name):
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


def _check_witness(tname):
    t = catalog.template(tname)
    psi = t.witness
    bad = sum(
        1
        for a in range(len(t.g1))
        for b in range(len(t.g1))
        if psi[t.g1.mul(a, b)] != t.g2.mul(psi[a], psi[b])
    )
    bad += sum(1 for h in t.h1.members if psi[h] != t.phi.apply(h))
    return bad == 0, float(bad), ""


def _check_fold(tname, seed):
    t = catalog.template(tname)
    rng = np.random.default_rng(seed)
    power = GroupPower(t.g1, ["n0", "n1"])
    table = rng.integers(0, len(t.g2), size=power.n)
    folded = fold(table, power, t.phi)
    refold = fold(folded, power, t.phi)
    bad = int(np.sum(folded != refold))
    for _ in range(100):
        g = int(rng.integers(power.n))
        h = int(rng.choice(t.h1.members))
        lhs = int(folded[power.act(h, g)])
        rhs = t.g2.mul(t.phi.apply(h), int(folded[g]))
        bad += lhs != rhs
    return bad == 0, float(bad), ""


def _check_cosets(tname, seed):
    t = catalog.template(tname)
    rng = np.random.default_rng(seed)
    power = GroupPower(t.g1, ["n0", "n1"])
    cosets = CosetDecomposition(t.h1, power)
    bad = 0
    for _ in range(20):
        g = int(rng.integers(power.n))
        rep, h = cosets.data(g)
        if power.act(h, g) != rep:
            bad += 1
        reps = {cosets.data(power.act(m, g))[0] for m in t.h1.members}
        if reps != {rep}:
            bad += 1
    return bad == 0, float(bad), ""


def _check_cubic(tname):
    t = catalog.template(tname)
    cubes = {t.g2.cube(g) for g in range(len(t.g2))}
    expect = all(h in cubes for h in t.h2.members)
    return is_cubic(t) == expect, 0.0, f"cubic={expect}"


# -- representations ----------------------------------------------------------

def _check_entry_orthogonality(name, get):
    iset = get(name)
    g = iset.group
    rows, dims = [], []
    for rep in iset.irreps:
        for i in range(rep.dim):
            for j in range(rep.dim):
                rows.append(rep.matrices[:, i, j])
                dims.append(rep.dim)
    m = np.stack(rows)
    gram = m @ m.conj().T / len(g)
    target = np.diag([1.0 / d for d in dims])
    res = float(np.abs(gram - target).max())
    return res, ""


def _check_char_dim_sum(name, get):
    iset = get(name)
    g = iset.group
    total = sum(r.dim * r.character() for r in iset.irreps)
    target = np.zeros(len(g), dtype=complex)
    target[g.identity] = len(g)
    return float(np.abs(total - target).max()), ""


def _check_entry_sums(name, get):
    iset = get(name)
    res = 0.0
    for rep in iset.irreps[1:]:
        res = max(res, float(np.abs(rep.matrices.sum(axis=0)).max()))
    return res, ""


def _check_regular_multiplicities(name, get):
    iset = get(name)
    reg = regular_representation(iset.group)
    bad = sum(1 for r in iset.irreps if multiplicity(r, reg) != r.dim)
    return bad == 0, float(bad), ""


def _check_frobenius_pair(key, get):
    g, h = catalog.subgroup_pairs()[key]
    iset = get(g.name)
    total = sum(r.dim * eta(r, h) for r in iset.irreps)
    expect = len(g) // len(h)
    return total == expect, float(abs(total - expect)), f"sum={total}"


def _check_frobenius_degenerate(name, get):
    from .groups import full_subgroup, trivial_subgroup

    g = catalog.group(name)
    iset = get(name)
    bad = 0
    for h in (trivial_subgroup(g), full_subgroup(g)):
        total = sum(r.dim * eta(r, h) for r in iset.irreps)
        bad += total != len(g) // len(h)
    return bad == 0, float(bad), ""


def _check_tensor_trace(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    c, d = rng.standard_normal((3, 3)), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r1 = abs(np.trace(np.kron(a, c)) - np.trace(a) * np.trace(c))
    r2 = np.abs(np.kron(a @ b, c @ d) - np.kron(a, c) @ np.kron(b, d)).max()
    return float(max(r1, r2)), ""


# -- fourier ------------------------------------------------------------------

def _check_roundtrip(seed, get):
    iset = get("s3")
    power = GroupPower(iset.group, ["p0", "p1"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        f = ScalarFn(power, rng.standard_normal(power.n) + 1j * rng.standard_normal(power.n))
        back = inverse(transform(f, rhos), rhos)
        worst = max(worst, float(np.abs(back.values - f.values).max()))
        worst = max(worst, plancherel_gap(f, rhos))
    return worst, ""


def _check_entry_expansion(seed, get):
    # sum_ij F^(rho_ij) rho_ij(g) must equal the character-convolution form
    iset = get("s3")
    power = GroupPower(iset.group, ["p0"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    table = transform(f, rhos)
    worst = 0.0
    for rho in rhos:
        mats = rho.matrices(power)
        chi = rho.character_table(power)
        for g in range(power.n):
            lhs = np.einsum("ijxy,ij->xy", table.blocks[rho.comps], mats[g])
            rhs = np.zeros((2, 2), dtype=complex)
            for h in range(power.n):
                rhs += f.values[h] * chi[power.mul(power.inv(h), g)]
            rhs /= power.n
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, ""


def _check_convolution(seed, get):
    iset = get("s3")
    power = GroupPower(iset.group, ["p0"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    h = MatrixFn(power, rng.standard_normal((power.n, 2, 2)) + 1j * rng.standard_normal((power.n, 2, 2)))
    conv_table = transform(convolve(f, h), rhos)
    tf, th = transform(f, rhos), transform(h, rhos)
    worst = 0.0
    for rho in rhos:
        lhs = conv_table.blocks[rho.comps]
        rhs = np.einsum("ikxz,kjzy->ijxy", tf.blocks[rho.comps], th.blocks[rho.comps])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, ""


def _check_noise(seed, get):
    iset = get("z2")
    power = GroupPower(iset.group, ["p0", "p1", "p2"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(seed)
    f = ScalarFn(power, rng.integers(-8, 8, size=power.n).astype(complex))
    eps = Fraction(1, 2)
    noisy = noise_apply(f, eps)
    worst = 0.0
    for rho in rhos:
        for i in range(rho.dim):
            for j in range(rho.dim):
                lhs = coeff(noisy, rho, i, j)
                rhs = float((1 - eps)) ** rho.degree * coeff(f, rho, i, j)
                worst = max(worst, abs(lhs - rhs))
    return worst, ""


def _check_product_completeness(get):
    bad = 0
    for name, m in (("z2", 3), ("s3", 2)):
        iset = get(name)
        rhos = product_irreps(iset, [f"p{k}" for k in range(m)])
        if sum(r.dim**2 for r in rhos) != len(iset.group) ** m:
            bad += 1
    return bad == 0, float(bad), ""


def _check_pullback(seed, get):
    iset = get("z2")
    d_labels, e_labels = ("d0", "d1"), ("e0",)
    pe = GroupPower(iset.group, e_labels)
    rhos_d = product_irreps(iset, d_labels)
    rhos_e = product_irreps(iset, e_labels)
    pi = {"d0": "e0", "d1": "e0"}
    worst = 0.0
    for tau in rhos_e:
        for rho in rhos_d:
            pb = pullback(rho, pi, e_labels)
            mats = pb.matrices(pe)
            eye = np.eye(pb.dim)
            for g in range(pe.n):
                worst = max(
                    worst, float(np.abs(mats[g] @ mats[g].conj().T - eye).max())
                )
            if not similar(tau, rho, pi):
                for s, t in itertools.product(range(tau.dim), repeat=2):
                    te = tau.entry_table(pe, s, t)
                    for i, j in itertools.product(range(rho.dim), repeat=2):
                        ip = np.mean(te * np.conj(pb.entry_table(pe, i, j)))
                        worst = max(worst, abs(complex(ip)))
            else:
                deg_tau = tau.degree
                if deg_tau > rho.degree:
                    worst = max(worst, 1.0)
    return worst, ""


# -- reduction ----------------------------------------------------------------

def _check_weights_sum(tname, eps):
    t = catalog.template(tname)
    lc = catalog.label_cover("lc1")
    system = build_system(lc, t, ReductionParams(eps))
    total = sum((eq.weight for eq in system.equations), Fraction(0))
    first_exp_ok = all(eq.terms[0][1] == 1 for eq in system.equations)
    rhs_ok = all(eq.rhs in t.h1 for eq in system.equations)
    ok = total == 1 and first_exp_ok and rhs_ok
    return ok, float(abs(total - 1)), f"equations={len(system.equations)}"


def _check_completeness_value(tname, eps):
    t = catalog.template(tname)
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    value = evaluate_family(lc, t, ReductionParams(eps), fam, side=1)
    expect = 1 - eps * (1 - Fraction(1, len(t.g1)))
    return value == expect, float(abs(value - expect)), f"value={value}"


def _check_two_paths(seed):
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    params = ReductionParams(Fraction(1, 4))
    system = build_system(lc, t, params)
    pe, pd = powers(lc, t)
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(10):
        fam = AssignmentFamily(
            2,
            {"v0": rng.integers(0, 2, size=pe.n)},
            {"u0": rng.integers(0, 2, size=pd.n)},
        )
        via_family = evaluate_family(lc, t, params, fam, side=2)
        via_system = evaluate(system, family_assignment(lc, t, fam), side=2)
        bad += via_family != via_system
    return bad == 0, float(bad), ""


def _check_merge_invariance(seed):
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    params = ReductionParams(Fraction(1, 4))
    system = build_system(lc, t, params)
    tuples = tuple_system(lc, t, params)
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(5):
        assignment = {x: int(rng.integers(2)) for x in system.variables}
        merged_val = evaluate(system, assignment, side=1)
        bad += merged_val != evaluate(tuples, assignment, side=1)
    return bad == 0, float(bad), ""


def _check_sampling(seed):
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
    return gap <= bound, gap, f"bound={bound:.4f}"


# -- solvers ------------------------------------------------------------------

def _random_system(template, rng, n_vars=4, n_eqs=5) -> LinSystem:
    names = [f"x{i}" for i in range(n_vars)]
    weights = [Fraction(int(rng.integers(1, 6)), 1) for _ in range(n_eqs)]
    total = sum(weights)
    eqs = []
    merged = {}
    for w in weights:
        terms = tuple(
            (names[int(rng.integers(n_vars))], 1 if rng.integers(2) else -1)
            for _ in range(3)
        )
        rhs = int(rng.choice(template.h1.members))
        key = (terms, rhs)
        merged[key] = merged.get(key, Fraction(0)) + Fraction(w, total)
    for (terms, rhs), w in merged.items():
        eqs.append(LinEquation(terms, rhs, w))
    return LinSystem(template, tuple(names), tuple(eqs))


def _check_derandomize_dominates(seed):
    t = catalog.template("z2_id")
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(50):
        system = _random_system(t, rng)
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
        system = _random_system(t, rng, n_vars=3, n_eqs=4)
        opt, _ = brute_force_opt(system, side=2)
        val = evaluate(system, derandomize(system, t, side=2), side=2)
        bad += opt < val
    return bad == 0, float(bad), ""


def _check_distinct_var_expectation():
    bad = 0
    for tname in ("z2_id", "z4_to_z2", "s3_sign"):
        t = catalog.template(tname)
        eq = LinEquation((("x", 1), ("y", 1), ("z", -1)), t.g1.identity, Fraction(1))
        system = LinSystem(t, ("x", "y", "z"), (eq,))
        if random_expectation(system, t, side=2) != Fraction(1, len(t.h2)):
            bad += 1
    return bad == 0, float(bad), ""


def _check_noncubic_sound(seed):
    t = catalog.template("z3_id")
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(10):
        system = _random_system(t, rng, n_vars=3, n_eqs=4)
        _, opt_assign = brute_force_opt(system, side=1)
        opt = evaluate(system, opt_assign, side=1)
        for c in (Fraction(1, 2), Fraction(3, 4)):
            result = non_cubic_solve(system, t, c)
            if result["status"] == "reject" and opt >= c:
                bad += 1
    return bad == 0, float(bad), ""


# -- decoder ------------------------------------------------------------------

def _planted_context(tname, lc_name, seed, eps=Fraction(1, 8), delta=Fraction(1, 4)):
    t = catalog.template(tname)
    lc = catalog.label_cover(lc_name)
    h_d = {u: "d0" for u in lc.u_names}
    h_e = {v: "e0" for v in lc.v_names}
    fam = projection_family(lc, t, h_d, h_e, side=2)
    return make_context(lc, t, eps, delta, fam, seed=seed)


def _check_averaging(tname, lc_name, seed):
    ctx = _planted_context(tname, lc_name, seed)
    total = sum(
        r.dim * expected_character(ctx, r) for r in ctx.g2_irreps.irreps
    )
    target = len(ctx.template.g2) * float(ctx.value)
    return abs(complex(total) - target), f"value={ctx.value}"


def _check_trivial_term(tname, lc_name, seed, tol):
    ctx = _planted_context(tname, lc_name, seed)
    worst = -1.0
    detail = []
    for rep in ctx.g2_irreps.irreps[1:]:
        measured, penalty = trivial_term_bound(ctx, rep)
        worst = max(worst, measured - penalty)
        detail.append(f"{measured:.2e}<= {penalty}")
    return worst <= tol, max(worst, 0.0), "; ".join(detail)


def _check_high_degree(tname, lc_name, seed, tol):
    ctx = _planted_context(tname, lc_name, seed)
    k_threshold = kappa(ctx.delta, ctx.eps)
    one_minus = 1 - float(ctx.eps)
    bad = 0.0
    for rep in ctx.g2_irreps.irreps[1:]:
        at_threshold = high_degree_mass(ctx, rep, k_threshold)
        bad = max(bad, at_threshold - rep.dim * float(ctx.delta) / 2)
        for k in (1, 2):
            mass = high_degree_mass(ctx, rep, k)
            bad = max(bad, mass - 2 * one_minus**k * rep.dim)
    return bad <= tol, max(bad, 0.0), ""


def _check_skew_symmetry(seed):
    ctx = _planted_context("s3_a3_incl", "lc1", seed)
    rng = np.random.default_rng(seed)
    omega = ctx.g2_irreps.irreps[-1]
    fam = AssignmentFamily(
        2,
        {v: tbl for v, tbl in ctx.family.a_tables.items()},
        {"u0": rng.integers(0, 6, size=ctx.pd.n)},
    )
    ctx2 = make_context(ctx.lc, ctx.template, ctx.eps, ctx.delta, fam, seed=seed)
    b_fn = left_table(ctx2, omega, "u0")
    inv_arr = ctx2.pd.inv_array()
    res = float(
        np.abs(b_fn.values[inv_arr] - b_fn.values.conj().transpose(0, 2, 1)).max()
    )
    return res, ""


def _check_decode_floor(tname, lc_name, seed):
    ctx = _planted_context(tname, lc_name, seed)
    strategy, value, choice = decode(ctx)
    floor = float(alpha(ctx.delta, ctx.eps, len(ctx.template.g1), len(ctx.template.g2)))
    ok = value >= floor and choice.margin >= 0
    return ok, max(floor - value, 0.0), f"value={value:.4f} floor={floor:.2e}"


def _check_simulation(tname, lc_name, seed):
    ctx = _planted_context(tname, lc_name, seed)
    strategy, value, _ = decode(ctx)
    mean, sigma = simulate_strategy(ctx.lc, strategy, samples=100_000, seed=seed)
    gap = abs(mean - value)
    ok = gap <= max(3 * sigma, 1e-12)
    return ok, gap, f"analytic={value:.5f} mc={mean:.5f} sigma={sigma:.2e}"


def _check_json_roundtrip():
    objs = [
        io.group_to_obj(catalog.group("s3")),
        io.lc_to_obj(catalog.label_cover("lc2")),
    ]
    t = catalog.template("z4_to_z2")
    objs.append(io.template_to_obj(t, "z4", "z2"))
    lc = catalog.label_cover("lc1")
    system = build_system(lc, catalog.template("z2_id"), ReductionParams(Fraction(1, 2)))
    objs.append(io.system_to_obj(system, "z2_id"))
    bad = 0
    for obj in objs:
        text = io.canonical_dumps(obj)
        import json as _json

        if io.canonical_dumps(_json.loads(text)) != text:
            bad += 1
    return bad == 0, float(bad), ""


# -- runner -------------------------------------------------------------------

def run(seed: int = 0, tol: float = 1e-9, only: str | None = None, heavy: bool = False) -> Report:
    get = _irrep_cache(seed)
    entries: list[CheckResult] = []

    def add(module, name, fn):
        if only and only != module:
            return
        try:
            out = fn()
        except Exception as exc:  # a crash is a failing check, not a crash of the suite
            entries.append(CheckResult(f"{module}:{name}", False, float("nan"), repr(exc)))
            return
        if len(out) == 3 and isinstance(out[0], (bool, np.bool_)):
            ok, residual, detail = out
        else:
            residual, detail = out
            ok = residual <= tol
        entries.append(CheckResult(f"{module}:{name}", bool(ok), float(residual), detail))

    group_names = GROUP_NAMES + (("s4",) if heavy else ())
    for name in group_names:
        add("groups", f"axioms[{name}]", lambda n=name: _check_group_axioms(n))
    for tname in catalog.templates():
        add("groups", f"witness[{tname}]", lambda t=tname: _check_witness(t))
        add("groups", f"fold[{tname}]", lambda t=tname: _check_fold(t, seed))
        add("groups", f"cosets[{tname}]", lambda t=tname: _check_cosets(t, seed))
        add("groups", f"cubic[{tname}]", lambda t=tname: _check_cubic(t))

    for name in group_names:
        add("reps", f"entry-orthogonality[{name}]", lambda n=name: _check_entry_orthogonality(n, get))
        add("reps", f"character-dim-sum[{name}]", lambda n=name: _check_char_dim_sum(n, get))
        add("reps", f"nontrivial-entry-sums[{name}]", lambda n=name: _check_entry_sums(n, get))
        add("reps", f"regular-multiplicities[{name}]", lambda n=name: _check_regular_multiplicities(n, get))
    for key in catalog.subgroup_pairs():
        add("reps", f"induced-trivial-sum[{key}]", lambda k=key: _check_frobenius_pair(k, get))
    for name in group_names:
        add(
            "reps",
            f"induced-trivial-sum[{name}/degenerate]",
            lambda n=name: _check_frobenius_degenerate(n, get),
        )
    add("reps", "tensor-trace", lambda: _check_tensor_trace(seed))

    add("fourier", "roundtrip+plancherel[s3^2]", lambda: _check_roundtrip(seed, get))
    add("fourier", "entry-expansion[s3]", lambda: _check_entry_expansion(seed, get))
    add("fourier", "convolution-coefficients[s3]", lambda: _check_convolution(seed, get))
    add("fourier", "noise-attenuation[z2^3]", lambda: _check_noise(seed, get))
    add("fourier", "product-completeness", lambda: _check_product_completeness(get))
    add("fourier", "pullback[z2]", lambda: _check_pullback(seed, get))

    for tname in ("z2_id", "z3_id", "z4_to_z2", "s3_sign", "s3_a3_incl"):
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            add(
                "reduction",
                f"weights-sum[{tname},eps={eps}]",
                lambda t=tname, e=eps: _check_weights_sum(t, e),
            )
    for tname in ("z2_id", "s3_sign"):
        add(
            "reduction",
            f"completeness-value[{tname}]",
            lambda t=tname: _check_completeness_value(t, Fraction(1, 4)),
        )
    add("reduction", "two-path-agreement", lambda: _check_two_paths(seed))
    add("reduction", "merge-invariance", lambda: _check_merge_invariance(seed))
    add("reduction", "sampling-concentration", lambda: _check_sampling(seed))

    add("solvers", "derandomize-dominates", lambda: _check_derandomize_dominates(seed))
    add("solvers", "brute-dominates", lambda: _check_brute_dominates(seed))
    add("solvers", "distinct-variable-expectation", _check_distinct_var_expectation)
    add("solvers", "unsatisfiable-rejection-sound", lambda: _check_noncubic_sound(seed))

    contexts = (("z2_id", "lc1"), ("s3_sign", "lc1"), ("s3_a3_incl", "lc1"))
    for tname, lcname in contexts:
        add(
            "decoder",
            f"averaging-consistency[{tname}]",
            lambda t=tname, l=lcname: _check_averaging(t, l, seed),
        )
        add(
            "decoder",
            f"trivial-term-penalty[{tname}]",
            lambda t=tname, l=lcname: _check_trivial_term(t, l, seed, tol),
        )
        add(
            "decoder",
            f"high-degree-smoothing[{tname}]",
            lambda t=tname, l=lcname: _check_high_degree(t, l, seed, tol),
        )
        add(
            "decoder",
            f"decoded-value-floor[{tname}]",
            lambda t=tname, l=lcname: _check_decode_floor(t, l, seed),
        )
    add("decoder", "skew-symmetry", lambda: _check_skew_symmetry(seed))
    add("decoder", "strategy-simulation[z2_id]", lambda: _check_simulation("z2_id", "lc1", seed))
    add("decoder", "strategy-simulation[s3_a3_incl]", lambda: _check_simulation("s3_a3_incl", "lc1", seed))

    add("io", "json-canonical-roundtrip", _check_json_roundtrip)

    return Report(entries)
