import math
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grouplin import (
    AssignmentFamily,
    InvalidParams,
    NoOmega,
    ReductionParams,
    Strategy,
    alpha,
    catalog,
    decode,
    derandomize_strategy,
    evaluate_family,
    high_degree_mass,
    influence_probs,
    kappa,
    lc_value,
    make_context,
    penalized_margin,
    projection_family,
    select_omega,
    trivial_term_bound,
)
import reference_decoder as ref_decoder
from reference_decoder import simulate_strategy
from reference_fourier import coeff, scalar
from reference_groups import act, apply, pow_sign
from grouplin import io, reduction, reps
from grouplin.cli import run_pipeline
from grouplin.decoder import DecoderContext, expected_character, left_table, right_table
from grouplin.fourier import product_irreps, transform
from grouplin.reduction import support
from grouplin.reps import irreps
from test_cli import _digits

EPS = Fraction(1, 8)
DELTA = Fraction(1, 4)


def planted_context(tname, lc_name="lc1", eps=EPS, delta=DELTA, **kw):
    t = catalog.template(tname)
    lc = catalog.label_cover(lc_name)
    fam = projection_family(
        lc, t, {u: "d0" for u in lc.u_names}, {v: "e0" for v in lc.v_names}, side=2
    )
    return make_context(lc, t, eps, delta, fam, **kw)


@pytest.fixture(scope="module")
def ctx_z2():
    return planted_context("z2_id")


@pytest.fixture(scope="module")
def ctx_a3():
    return planted_context("s3_a3_incl")


@pytest.fixture(scope="module")
def ctx_sign():
    return planted_context("s3_sign")


def constant_identity_context():
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    fam = AssignmentFamily(
        2, {"v0": np.zeros(pe.n, dtype=int)}, {"u0": np.zeros(pd.n, dtype=int)}
    )
    return make_context(lc, t, EPS, DELTA, fam)


# -- kappa and alpha ----------------------------------------------------------

def test_kappa_formula_values():
    # ceil((log2(1/4) - 2) / log2(1/2)) and ceil((log2(1/2) - 2) / log2(1/2))
    assert kappa(Fraction(1, 4), Fraction(1, 2)) == 4
    assert kappa(Fraction(1, 2), Fraction(1, 2)) == 3
    ratio = (math.log2(0.25) - 2) / math.log2(7 / 8)
    assert kappa(Fraction(1, 4), Fraction(1, 8)) == math.ceil(ratio)


@pytest.mark.parametrize(
    "eps, k",
    [(Fraction(1, 2), 3), (Fraction(1, 3), 5), (Fraction(1, 4001), 11000)],
)
def test_kappa_is_exact_at_the_boundary(eps, k):
    # (1 - eps)^k = delta / 4 exactly: k is the least degree that reaches it
    delta = 4 * (1 - eps) ** k
    tiny = Fraction(1, 10**30)
    assert kappa(delta, eps) == k
    assert kappa(delta + tiny, eps) == k
    assert kappa(delta - tiny, eps) == k + 1


def test_kappa_is_the_least_degree():
    for eps in (Fraction(1, 7), Fraction(2, 3), Fraction(99, 100)):
        for delta in (Fraction(1, 10**40), Fraction(1, 3), Fraction(3, 1), 4 - Fraction(1, 10**20)):
            k = kappa(delta, eps)
            assert k >= 1 and (1 - eps) ** k <= delta / 4
            assert k == 1 or (1 - eps) ** (k - 1) > delta / 4


@pytest.mark.parametrize("tname", sorted(catalog.templates()))
def test_one_label_instances_decode_above_the_floor(tname):
    # |D| = 1 on lc_tiny while kappa = 21: a kappa clamped to |D| dropped
    # the degree-|D| terms, and every template decoded to 0, below alpha
    t = catalog.template(tname)
    report = run_pipeline(catalog.label_cover("lc_tiny"), t, EPS, DELTA)["decoder"]
    assert report["kappa"] == kappa(DELTA, EPS) == 21
    assert report["expected_value"] >= float(report["alpha"]) > 0


def test_kappa_rejects_bad_params():
    with pytest.raises(InvalidParams):
        kappa(Fraction(4), Fraction(1, 2))
    with pytest.raises(InvalidParams):
        kappa(Fraction(1, 4), Fraction(1))


def test_alpha_formula_value():
    assert alpha(Fraction(1, 4), kappa(Fraction(1, 4), Fraction(1, 2)), 2, 2) == Fraction(1, 65536)


def test_integer_kappa_and_alpha_equal_the_fraction_formulas():
    for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(7, 2)):
        for k in range(1, 401):
            eps = Fraction(k, 4001)
            assert kappa(delta, eps) == ref_decoder.kappa(delta, eps)
            assert alpha(delta, kappa(delta, eps), 6, 2) == ref_decoder.alpha(delta, eps, 6, 2)
    # the exact boundaries (1 - eps)^k = delta / 4
    for delta, eps, k in ((Fraction(1, 2), Fraction(1, 2), 3), (Fraction(1, 4), Fraction(3, 4), 2), (Fraction(2), Fraction(1, 2), 1)):
        assert (1 - eps) ** k == delta / 4
        assert kappa(delta, eps) == ref_decoder.kappa(delta, eps) == k
        assert alpha(delta, k, 6, 2) == ref_decoder.alpha(delta, eps, 6, 2)


@st.composite
def kappa_params(draw):
    """(delta, eps) with eps, delta and delta / 4 at least 1/1000, so that
    the reference's powers stay small; half of them on or a tiny step off
    an exact power (1 - eps)^k = delta / 4, where the float ratio alone
    cannot tell the answer."""
    eps = Fraction(draw(st.integers(1, 999)), 1000)
    if draw(st.booleans()):
        return Fraction(draw(st.integers(1, 3999)), 1000), eps
    k = draw(st.integers(1, max(1, math.floor(math.log(1 / 4000) / math.log(1 - eps)))))
    step = draw(st.sampled_from((0, 1, -1))) * Fraction(1, 10**30)
    return 4 * (1 - eps) ** k + step, eps


@settings(max_examples=300, deadline=None)
@given(params=kappa_params())
@example(params=(Fraction(1, 2), Fraction(1, 2)))  # (1/2)^3 = 1/8 = delta / 4
@example(params=(Fraction(1, 4), Fraction(3, 4)))  # (1/4)^2 = 1/16
@example(params=(4 * Fraction(2, 3) ** 5 + Fraction(1, 10**30), Fraction(1, 3)))
@example(params=(4 * Fraction(2, 3) ** 5 - Fraction(1, 10**30), Fraction(1, 3)))
def test_integer_kappa_equals_the_big_power_form(params):
    delta, eps = params
    assert kappa(delta, eps) == ref_decoder.kappa(delta, eps)


def test_alpha_at_a_small_eps_round_trips_through_frac_str():
    value = alpha(DELTA, kappa(DELTA, Fraction(1, 4001)), 6, 2)
    num, den = io.frac_str(value).split("/")
    assert len(den) > sys.get_int_max_str_digits()
    assert Fraction(_digits(num), _digits(den)) == value == ref_decoder.alpha(DELTA, Fraction(1, 4001), 6, 2)


# -- context and omega selection ----------------------------------------------

def test_context_rejects_infeasible_parameters():
    with pytest.raises(InvalidParams):
        planted_context("z2_id", eps=Fraction(1, 2), delta=Fraction(1, 4))


def test_planted_family_value(ctx_z2):
    assert ctx_z2.value == Fraction(15, 16)


def test_a_context_from_a_callers_params_equals_one_without_them():
    t, lc = catalog.template("z2_id"), catalog.label_cover("lc1")
    family = planted_context("z2_id").family
    own = make_context(lc, t, EPS, DELTA, family)
    ctx = make_context(lc, t, EPS, DELTA, family, params=ReductionParams(EPS))
    assert ctx.value == Fraction(15, 16) and ctx.pe is support(lc, t).pe
    for f in fields(DecoderContext):
        mine, theirs = getattr(ctx, f.name), getattr(own, f.name)
        assert mine is theirs or mine == theirs, f.name


def test_a_context_refuses_params_at_another_eps():
    # params at 1/4 would weigh the family at 1/4 (7/8), not at 1/8 (15/16)
    params = ReductionParams(Fraction(1, 4))
    with pytest.raises(InvalidParams, match="the params are at eps 1/4, the context at eps 1/8"):
        planted_context("z2_id", params=params)
    assert planted_context("z2_id", eps=Fraction(1, 4), params=params).value == Fraction(7, 8)


def test_a_context_with_params_takes_eps_and_delta_as_text():
    ctx = planted_context("z2_id", eps="1/8", delta="1/4", params=ReductionParams(EPS))
    assert (ctx.eps, ctx.delta) == (EPS, DELTA) and ctx.z_mass == planted_context("z2_id").z_mass
    assert decode(ctx)[1:] == decode(planted_context("z2_id"))[1:]


def test_trivial_representation_margin_is_negative(ctx_z2):
    margin = penalized_margin(ctx_z2, ctx_z2.g2_irreps.irreps[0])
    assert margin == pytest.approx(-float(DELTA))


def test_planted_margin_and_selection(ctx_z2):
    choice = select_omega(ctx_z2)
    assert choice.index == 1  # the only non-trivial representation of z2
    assert choice.eta == 0
    assert choice.margin == pytest.approx(7 / 8 - 1 / 4, abs=1e-9)
    assert expected_character(ctx_z2, choice.omega) == pytest.approx(7 / 8, abs=1e-12)


def test_threshold_family_has_no_omega():
    ctx = constant_identity_context()
    assert ctx.value == Fraction(1, 2)
    margins = [penalized_margin(ctx, rep) for rep in ctx.g2_irreps.irreps[1:]]
    assert all(m < 0 for m in margins)
    with pytest.raises(NoOmega):
        select_omega(ctx)


def test_z3_conjugate_margins_tie():
    ctx = planted_context("z3_id")
    reps = ctx.g2_irreps.irreps
    m1 = penalized_margin(ctx, reps[1])
    m2 = penalized_margin(ctx, reps[2])
    assert m1 == pytest.approx(m2, abs=1e-12)
    assert select_omega(ctx).index == 1  # tie broken by canonical order


def test_a3_inclusion_selects_two_dimensional_rep(ctx_a3):
    choice = select_omega(ctx_a3)
    assert choice.omega.dim == 2
    assert choice.eta == 0
    # E[chi(nu(d))] = 2(1-eps); margin subtracts dim*delta
    assert choice.margin == pytest.approx(2 * (1 - 1 / 8) - 2 * 1 / 4, abs=1e-9)


# -- the matrix tables ---------------------------------------------------------

def test_right_table_values_are_unitary(ctx_a3):
    omega = ctx_a3.g2_irreps.irreps[2]
    a_fn = right_table(ctx_a3, omega, "v0")
    eye = np.eye(omega.dim)
    prods = a_fn.values @ a_fn.values.conj().transpose(0, 2, 1)
    assert np.abs(prods - eye).max() < 1e-12


def test_left_table_collapses_for_self_inverse_groups(ctx_z2):
    omega = ctx_z2.g2_irreps.irreps[1]
    b_fn = left_table(ctx_z2, omega, "u0")
    table = ctx_z2.family.b_tables["u0"]
    expected = np.array([(-1.0) ** v for v in table])[:, None, None]
    assert np.abs(b_fn.values - expected).max() < 1e-12


def test_folded_table_equivariance_through_omega():
    t = catalog.template("s3_a3_incl")
    lc = catalog.label_cover("lc1")
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    rng = np.random.default_rng(1)
    fam = AssignmentFamily(
        2,
        {"v0": rng.integers(0, 6, size=pe.n)},
        {"u0": rng.integers(0, 6, size=pd.n)},
    )
    ctx = make_context(lc, t, EPS, DELTA, fam)
    omega = ctx.g2_irreps.irreps[2]
    a_fn = right_table(ctx, omega, "v0")
    for _ in range(20):
        a = int(rng.integers(pe.n))
        h = int(rng.choice(t.h1.members))
        lhs = a_fn.values[act(pe, h, a)]
        rhs = omega.matrices[apply(t.phi, h)] @ a_fn.values[a]
        assert np.abs(lhs - rhs).max() < 1e-12


# -- measured bounds ------------------------------------------------------------

def test_trivial_term_zero_penalty(ctx_z2):
    measured, penalty = trivial_term_bound(ctx_z2, ctx_z2.g2_irreps.irreps[1])
    assert penalty == 0
    assert measured <= 1e-9


def test_trivial_term_for_trivial_rep(ctx_z2):
    measured, penalty = trivial_term_bound(ctx_z2, ctx_z2.g2_irreps.irreps[0])
    assert penalty == 1
    assert measured <= 1 + 1e-9


def test_subgroup_average_is_zero_for_eta_zero():
    ctx = planted_context("s3_a3_incl")
    omega = ctx.g2_irreps.irreps[2]
    members = np.array(ctx.template.h2.members)
    avg = omega.matrices[members].mean(axis=0)
    assert np.abs(avg).max() < 1e-9


def test_high_degree_mass_vanishes_beyond_label_count(ctx_z2):
    omega = ctx_z2.g2_irreps.irreps[1]
    assert high_degree_mass(ctx_z2, omega, 3) == pytest.approx(0, abs=1e-15)
    assert high_degree_mass(ctx_z2, omega, 4) <= 2 * (1 / 16) * omega.dim


# -- influences and decoding ----------------------------------------------------

def test_dictator_influence_concentrates(ctx_z2):
    omega = ctx_z2.g2_irreps.irreps[1]
    probs = influence_probs(ctx_z2, omega, ("v", "v0", 0, 0), 2)
    assert probs["e0"] == pytest.approx(1.0, abs=1e-12)
    probs_u = influence_probs(ctx_z2, omega, ("u", "u0", 0, 0), 2)
    assert probs_u["d0"] == pytest.approx(1.0, abs=1e-12)
    assert probs_u["d1"] == pytest.approx(0.0, abs=1e-12)


def test_constant_table_has_zero_influence():
    ctx = constant_identity_context()
    omega = ctx.g2_irreps.irreps[1]
    probs = influence_probs(ctx, omega, ("u", "u0", 0, 0), 2)
    assert all(p == pytest.approx(0, abs=1e-12) for p in probs.values())


def test_truncation_at_one_kills_everything(ctx_z2):
    omega = ctx_z2.g2_irreps.irreps[1]
    probs = influence_probs(ctx_z2, omega, ("v", "v0", 0, 0), 1)
    assert all(p == 0 for p in probs.values())


def test_influence_sums_below_one(ctx_a3):
    omega = ctx_a3.g2_irreps.irreps[2]
    for x in range(2):
        for y in range(2):
            probs = influence_probs(ctx_a3, omega, ("v", "v0", x, y), 2)
            assert sum(probs.values()) <= 1 + 1e-9


def _fresh_influences(ctx, omega, which, kappa_value):
    """The truncated masses summed over a fresh transform, representation by
    representation: the float sums ``influence_probs`` must reproduce bit for
    bit at every truncation."""
    side, name, r, c = which
    if side == "v":
        fn, labels = right_table(ctx, omega, name), ctx.lc.e_labels
    else:
        fn, labels = left_table(ctx, omega, name), ctx.lc.d_labels
    rhos = product_irreps(ctx.g1_irreps, labels)
    table = transform(replace(fn, values=fn.values[:, r : r + 1, c : c + 1]), rhos)
    out = {l: 0.0 for l in labels}
    for rho in rhos:
        if 0 < rho.degree < kappa_value:
            mass = rho.dim * float(np.sum(np.abs(table.blocks[rho.comps]) ** 2)) / rho.degree
            for pos, comp in enumerate(rho.comps):
                if comp != 0 and mass != 0.0:
                    out[labels[pos]] += mass
    return out


@pytest.mark.parametrize("tname", ["s3_a3_incl", "z3_id", "s3_sign"])
def test_kept_influence_terms_replay_every_truncation_bit_for_bit(tname):
    # random tables, so that the masses are not sums exact in any order
    t, lc = catalog.template(tname), catalog.label_cover("lc2")
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    rng = np.random.default_rng(7)
    a_tables = {v: rng.integers(0, len(t.g2), size=pe.n) for v in lc.v_names}
    b_tables = {u: rng.integers(0, len(t.g2), size=pd.n) for u in lc.u_names}
    ctx = make_context(lc, t, EPS, DELTA, AssignmentFamily(2, a_tables, b_tables))
    for omega in ctx.g2_irreps.irreps[1:]:
        entries = [(side, x, r, c) for side, names in (("v", lc.v_names), ("u", lc.u_names)) for x in names
                   for r in range(omega.dim) for c in range(omega.dim)]
        for k in (21, 1, 2, 3, len(lc.d_labels), len(lc.d_labels) + 1, 2):
            for which in entries:
                got = influence_probs(ctx, omega, which, k)
                assert list(got.items()) == list(_fresh_influences(ctx, omega, which, k).items())


def test_one_run_computes_each_eta_once(monkeypatch):
    t, lc = catalog.template("s3_a3_incl"), catalog.label_cover("lc1")
    checks = []
    multiplicity = reps.multiplicity
    monkeypatch.setattr(reps, "multiplicity", lambda *args: checks.append(args) or multiplicity(*args))
    reps.eta.cache_clear()
    for eps in (EPS, Fraction(1, 9), EPS):
        run_pipeline(lc, t, eps, DELTA)
    # the choice of omega asks for eta of each non-trivial omega and of the winner;
    # the reciprocity check runs once per omega, in the first run
    omegas = catalog.template("s3_a3_incl").g2
    assert [omega for omega, _ in checks] == list(irreps(omegas).irreps[1:])
    assert reps.eta.cache_info().maxsize == 256


def test_decode_planted_z2(ctx_z2):
    strategy, value, choice = decode(ctx_z2)
    floor = alpha(ctx_z2.delta, kappa(ctx_z2.delta, ctx_z2.eps), 2, 2)
    assert value >= float(floor)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert (choice.x, choice.y, choice.z) == (0, 0, 0)
    h_d, h_e, v = derandomize_strategy(ctx_z2.lc, strategy)
    assert (h_d, h_e) == ({"u0": "d0"}, {"v0": "e0"})
    assert v == 1


def test_decode_a3_inclusion(ctx_a3):
    strategy, value, choice = decode(ctx_a3)
    assert value == pytest.approx(0.25, abs=1e-9)
    floor = alpha(ctx_a3.delta, kappa(ctx_a3.delta, ctx_a3.eps), 6, 6)
    assert value >= float(floor)
    _, _, v = derandomize_strategy(ctx_a3.lc, strategy)
    assert v == 1


def test_decode_propagates_no_omega():
    ctx = constant_identity_context()
    with pytest.raises(NoOmega):
        decode(ctx)


def test_normalize_leftover_scales_up():
    ctx = planted_context("s3_a3_incl", leftover="normalize")
    strategy, value, _ = decode(ctx)
    assert value == pytest.approx(1.0, abs=1e-9)
    for probs in list(strategy.v_probs.values()) + list(strategy.u_probs.values()):
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_derandomize_deterministic_strategy():
    lc = catalog.label_cover("lc2")
    strategy = Strategy(
        {"v0": {"e1": 1.0}},
        {"u0": {"d1": 1.0}, "u1": {"d0": 1.0}},
        kappa=2,
        leftover="giveup",
    )
    h_d, h_e, value = derandomize_strategy(lc, strategy)
    assert h_e == {"v0": "e1"} and h_d == {"u0": "d1", "u1": "d0"}
    assert value == 1


def test_derandomize_all_give_up_takes_first_labels():
    lc = catalog.label_cover("lc1")
    strategy = Strategy(
        {"v0": {}}, {"u0": {}}, kappa=2, leftover="giveup"
    )
    h_d, h_e, value = derandomize_strategy(lc, strategy)
    assert h_e == {"v0": "e0"} and h_d == {"u0": "d0"}
    assert value == lc_value(lc, h_d, h_e)


def test_derandomize_never_loses_value(ctx_a3):
    strategy, value, _ = decode(ctx_a3)
    _, _, rounded = derandomize_strategy(ctx_a3.lc, strategy)
    assert float(rounded) >= value - 1e-12


def test_strategy_rejects_overweight_maps():
    with pytest.raises(InvalidParams):
        Strategy({"v0": {"e0": 1.5}}, {"u0": {}}, kappa=2, leftover="giveup")


def test_decode_planted_z3_with_complex_characters():
    ctx = planted_context("z3_id")
    strategy, value, choice = decode(ctx)
    assert choice.index == 1
    assert value == pytest.approx(1.0, abs=1e-9)
    h_d, h_e, rounded = derandomize_strategy(ctx.lc, strategy)
    assert rounded == 1


def test_corrupted_family_still_decodes():
    # flip one left-vertex table entry: no longer a dictator, but the value
    # 23/32 still clears the 1/2 + 1/16 threshold
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    base = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    b = base.b_tables["u0"].copy()
    b[1] ^= 1
    fam = AssignmentFamily(2, dict(base.a_tables), {"u0": b})
    eps, delta = Fraction(1, 8), Fraction(1, 16)
    value = evaluate_family(lc, t, ReductionParams(eps), fam, side=2)
    assert value == Fraction(23, 32)
    ctx = make_context(lc, t, eps, delta, fam)
    choice = select_omega(ctx)
    assert choice.margin == pytest.approx(2 * 23 / 32 - 1 - 1 / 16, abs=1e-9)
    for rep in ctx.g2_irreps.irreps[1:]:
        measured, penalty = trivial_term_bound(ctx, rep)
        assert measured <= penalty + 1e-9
        k = kappa(delta, eps)
        assert high_degree_mass(ctx, rep, k) <= rep.dim * float(delta) / 2 + 1e-9
    strategy, decoded, _ = decode(ctx)
    floor = alpha(delta, kappa(delta, eps), 2, 2)
    assert decoded >= float(floor)
    mean, sigma = simulate_strategy(lc, strategy, samples=100_000, seed=5)
    assert abs(mean - decoded) <= max(3 * sigma, 1e-12)


def test_measured_bounds_hold_for_random_families():
    # the trivial-term and attenuation bounds are unconditional: they need
    # only foldedness of the right tables and skew-symmetry of the left ones
    t = catalog.template("s3_a3_incl")
    lc = catalog.label_cover("lc_tiny")
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    rng = np.random.default_rng(12)
    for _ in range(5):
        fam = AssignmentFamily(
            2,
            {"v0": rng.integers(0, 6, size=pe.n)},
            {"u0": rng.integers(0, 6, size=pd.n)},
        )
        ctx = make_context(lc, t, EPS, DELTA, fam)
        one_minus = 1 - float(EPS)
        for rep in ctx.g2_irreps.irreps[1:]:
            measured, penalty = trivial_term_bound(ctx, rep)
            assert measured <= penalty + 1e-9
            for k in (1, 2):
                mass = high_degree_mass(ctx, rep, k)
                assert mass <= 2 * one_minus**k * rep.dim + 1e-9


def test_decode_two_edge_instance():
    # two edges sharing the right vertex; the planted labeling sends v0 to e1
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc2")
    h_d, h_e = {"u0": "d1", "u1": "d0"}, {"v0": "e1"}
    assert lc_value(lc, h_d, h_e) == 1
    fam = projection_family(lc, t, h_d, h_e, side=2)
    ctx = make_context(lc, t, EPS, DELTA, fam)
    assert ctx.value == Fraction(15, 16)
    strategy, value, _ = decode(ctx)
    assert value == pytest.approx(1.0, abs=1e-9)
    got_d, got_e, rounded = derandomize_strategy(lc, strategy)
    assert rounded == 1
    assert got_e == h_e and got_d == h_d
    mean, sigma = simulate_strategy(lc, strategy, samples=50_000, seed=7)
    assert abs(mean - value) <= max(3 * sigma, 1e-12)


def test_expected_character_agrees_with_system_path():
    # the payoff distribution and the materialized equation system are
    # independent routes to E[chi(z)]
    from grouplin import build_system, family_assignment

    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    params = ReductionParams(EPS)
    system = build_system(lc, t, params)
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    rng = np.random.default_rng(17)
    fam = AssignmentFamily(
        2,
        {"v0": rng.integers(0, 2, size=pe.n)},
        {"u0": rng.integers(0, 2, size=pd.n)},
    )
    ctx = make_context(lc, t, EPS, Fraction(1, 64), fam)
    assignment = family_assignment(lc, t, fam)
    g2 = t.g2
    for omega in ctx.g2_irreps.irreps:
        chi = omega.character()
        total = 0j
        for eq in system.equations:
            acc = g2.identity
            for var, s in eq.terms:
                acc = g2.mul(acc, pow_sign(g2, assignment[var], s))
            z = g2.mul(g2.inv(apply(t.phi, eq.rhs)), acc)
            total += float(eq.weight) * complex(chi[z])
        assert total == pytest.approx(expected_character(ctx, omega), abs=1e-9)


def assert_simulation_agrees(tname):
    """The decoded strategy's exact value on lc1 is within 3 sigma of a
    Monte-Carlo estimate of it."""
    ctx = planted_context(tname)
    strategy, value, _ = decode(ctx)
    mean, sigma = simulate_strategy(ctx.lc, strategy, samples=100_000, seed=0)
    assert abs(mean - value) <= max(3 * sigma, 1e-12), f"analytic={value:.5f} mc={mean:.5f} sigma={sigma:.2e}"


@pytest.mark.parametrize("tname", ["z2_id", "s3_a3_incl"])
def test_strategy_simulation(tname):
    assert_simulation_agrees(tname)


def test_decode_is_deterministic():
    ctx1 = planted_context("s3_a3_incl")
    ctx2 = planted_context("s3_a3_incl")
    s1, v1, c1 = decode(ctx1)
    s2, v2, c2 = decode(ctx2)
    assert v1 == v2
    assert (c1.index, c1.x, c1.y, c1.z) == (c2.index, c2.x, c2.y, c2.z)
    assert s1.v_probs == s2.v_probs and s1.u_probs == s2.u_probs


def test_exhaustive_family_optimum_matches_noise_floor():
    # over all 64 side-2 families of the one-edge instance, the best payoff
    # is exactly the planted-dictator value 1 - eps*(1 - 1/|G1|)
    import itertools as it

    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    params = ReductionParams(EPS)
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    best = Fraction(0)
    for a_bits in it.product(range(2), repeat=pe.n):
        for b_bits in it.product(range(2), repeat=pd.n):
            fam = AssignmentFamily(
                2, {"v0": np.array(a_bits)}, {"u0": np.array(b_bits)}
            )
            best = max(best, evaluate_family(lc, t, params, fam, side=2))
    assert best == 1 - EPS * (1 - Fraction(1, 2))


def test_influence_total_matches_plancherel_identity():
    # with no truncation, summing the per-coordinate influences counts every
    # non-trivial representation exactly once
    ctx = planted_context("s3_a3_incl")
    omega = select_omega(ctx).omega
    k_open = len(ctx.lc.d_labels) + 1
    for x in range(omega.dim):
        for y in range(omega.dim):
            probs = influence_probs(ctx, omega, ("v", "v0", x, y), k_open)
            a_fn = right_table(ctx, omega, "v0")
            entry = scalar(ctx.pe, a_fn.values[:, x, y])
            total_mass = 0.0
            trivial_mass = None
            for rho in product_irreps(ctx.g1_irreps, ctx.lc.e_labels):
                block = sum(
                    abs(coeff(entry, rho, i, j)) ** 2
                    for i in range(rho.dim)
                    for j in range(rho.dim)
                )
                total_mass += rho.dim * block
                if rho.degree == 0:
                    trivial_mass = rho.dim * block
            assert sum(probs.values()) == pytest.approx(
                total_mass - trivial_mass, abs=1e-9
            )
