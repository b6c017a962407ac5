"""The eps-free support of the reduction (``reduction.support``): a build at
one eps after a build at another, on a warm support, must equal a cold build,
every cap must still be checked on every call, and the arrays systems share
must be read-only. A warm eps checks only its weights, solves from the hit
counts kept with the view without scoring a pattern, and weighs the payoff
counts and replays the decodes kept for the last family of each side."""

import copy
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reduction as ref
import reference_solvers as ref_solvers
from grouplin import (
    AssignmentFamily,
    CapExceeded,
    InvalidParams,
    NoOmega,
    ReductionParams,
    build_system,
    catalog,
    decode,
    decoder,
    derandomize,
    derandomize_strategy,
    derandomized_value,
    groups,
    io,
    make_context,
    payoff_distribution,
    projection_family,
    random_expectation,
    reduction,
    reps,
    selftest,
    solvers,
)
from grouplin.cli import main, run_pipeline
from grouplin.reduction import LinSystem
from test_reduction_equivalence import CATALOG_PAIRS, REFERENCE_BUDGET, _tuple_count, instances

EPS1, EPS2 = Fraction(1, 8), Fraction(3, 17)
DELTA = Fraction(1, 4)


def _cold(build, lc, t, params):
    reduction._support.cache_clear()
    return build(lc, t, params)


def assert_same_system(got, expect):
    """Equal arrays, dtype and bytes, equal weights and variables."""
    a, b = got.arrays, expect.arrays
    assert got.variables == expect.variables
    for x, y in ((a.var_ids, b.var_ids), (a.signs, b.signs), (a.rhs, b.rhs), (a.weight_class, b.weight_class)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.weights == b.weights


def assert_same_solutions(got, expect, t):
    for side in (1, 2):
        assert derandomize(got, t, side) == derandomize(expect, t, side)
        assert random_expectation(got, t, side) == random_expectation(expect, t, side)


@pytest.mark.parametrize("tname,lc_name", CATALOG_PAIRS)
def test_a_warm_build_equals_a_cold_one_on_the_catalog(tname, lc_name):
    t, lc = catalog.template(tname), catalog.label_cover(lc_name)
    first = build_system(lc, t, ReductionParams(EPS1))
    solved_first = derandomize(first, t, 2), random_expectation(first, t, 2)
    warm = build_system(lc, t, ReductionParams(EPS2))
    assert warm.arrays.var_ids is first.arrays.var_ids
    cold = _cold(build_system, lc, t, ReductionParams(EPS2))
    assert cold.arrays.var_ids is not first.arrays.var_ids
    assert_same_system(warm, cold)
    assert_same_solutions(warm, cold, t)
    # the first system keeps its own weights and solutions
    assert first.arrays.weights != warm.arrays.weights
    assert (derandomize(first, t, 2), random_expectation(first, t, 2)) == solved_first
    if _tuple_count(tname, lc_name) <= REFERENCE_BUDGET:
        assert warm.equations == ref.build_system(lc, t, ReductionParams(EPS2)).equations


@st.composite
def parallel_instances(draw):
    """``instances`` with one edge copied over another (or, on a single
    edge, repeated), so exact mode merges rows within the tuple budget."""
    _, t, lc, eps = draw(instances())
    edges = [(u, v, dict(pi)) for u, v, pi in lc.edges]
    copy = edges[draw(st.integers(0, len(edges) - 1))]
    if len(edges) == 1:
        edges.append(copy)
    else:
        edges[draw(st.integers(0, len(edges) - 1))] = copy
        if len({(u, v) for u, v, _ in edges}) == len(edges):
            edges[-1] = edges[0]
    lc = reduction.make_label_cover(lc.d_labels, lc.e_labels, lc.u_names, lc.v_names, edges)
    return t, lc, eps


@settings(max_examples=25, deadline=None)
@given(case=parallel_instances(), other=st.sampled_from((Fraction(1, 8), Fraction(2, 3))))
def test_a_warm_build_equals_a_cold_one_with_parallel_edges(case, other):
    t, lc, eps = case
    reduction._support.cache_clear()
    build_system(lc, t, ReductionParams(other))
    params = ReductionParams(eps)
    warm = build_system(lc, t, params)
    assert reduction.support(lc, t).mergeable
    assert_same_system(warm, _cold(build_system, lc, t, params))
    expect = ref.build_system(lc, t, params)
    assert warm.equations == expect.equations
    for side in (1, 2):
        assert derandomize(warm, t, side) == ref_solvers.derandomize(expect, t, side)
        assert random_expectation(warm, t, side) == ref_solvers.random_expectation(expect, t, side)
    # the unmerged tuples are not the support's rows and share no views
    tuples = ref.tuple_system(lc, t, params)
    assert tuples.equations == tuple(reduction.LinEquation(*row) for row in ref.raw_equations(lc, t, params))
    assert tuples._side_views is not warm._side_views


def test_sampled_systems_are_drawn_on_every_build():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    exact = build_system(lc, t, ReductionParams(EPS1))
    params = ReductionParams(EPS2, mode="sampled", sample_count=500, seed=3)
    sampled = build_system(lc, t, params)
    assert sampled.arrays.var_ids is not exact.arrays.var_ids
    assert sampled._side_views is not exact._side_views
    assert_same_system(sampled, _cold(build_system, lc, t, params))
    assert_same_system(ref.tuple_system(lc, t, params), _cold(ref.tuple_system, lc, t, params))


def test_exact_systems_of_one_support_share_their_side_views():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    one = build_system(lc, t, ReductionParams(EPS1))
    two = build_system(lc, t, ReductionParams(EPS2))
    assert one._side_views is two._side_views
    assert reduction.side_view(one, 2) is reduction.side_view(two, 2)


def test_an_eps_sweep_indexes_each_side_once(monkeypatch):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    calls = []
    incidence = solvers._incidence

    def counting(var_ids, signs, n_vars):
        calls.append(len(var_ids))
        return incidence(var_ids, signs, n_vars)

    monkeypatch.setattr(solvers, "_incidence", counting)
    assignments = {}
    for eps in (EPS1, EPS2, EPS1):
        system = build_system(lc, t, ReductionParams(eps))
        for side in (1, 2):
            assignments.setdefault((eps, side), derandomize(system, t, side))
            assert derandomize(system, t, side) == assignments[eps, side]
    # side 1 indexes all 31,104 equations, side 2 its 10,368 rows
    assert calls == [31104, 10368]


def test_the_shared_arrays_are_read_only():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    system = build_system(lc, t, ReductionParams(EPS1))
    derandomize(system, t, 2)
    sup = reduction.support(lc, t)
    rows, geo = sup.exact, sup.geo
    incidence = reduction.side_view(system, 2).memo["incidence"]
    shared = (rows.var_ids, rows.signs, rows.rhs, rows.row_class, rows.class_counts, *incidence)
    shared += (sup.pe.coords_matrix(), sup.pd.coords_matrix(), geo.inv_d, geo.noise_class, *geo.cosets)
    enc = system.arrays
    assert enc.var_ids is rows.var_ids and enc.signs is rows.signs and enc.rhs is rows.rhs
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 0


def _warm(lc, t):
    build_system(lc, t, ReductionParams(EPS1))
    assert reduction._support.cache_info().currsize == 1


def test_a_warm_support_still_checks_the_cap_argument():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    _warm(lc, t)
    tuples = _tuple_count("s3_sign", "lc1")
    for build in (build_system, ref.tuple_system):
        with pytest.raises(CapExceeded, match=f"exact mode needs {tuples} tuples, cap is {tuples - 1}"):
            build(lc, t, ReductionParams(EPS2, cap=tuples - 1))
        assert len(build(lc, t, ReductionParams(EPS2, cap=tuples)).arrays) == tuples


# s3_sign/lc1: 31,104 tuples, |G1|^|D| = 36 and |G1|^|E| = 6
@pytest.mark.parametrize(
    "env,message",
    [("1000", "exact mode needs 31104 tuples, cap is 1000"), ("10", r"\|G\|\^\|D\| = 36 exceeds the table cap 10")],
)
def test_a_warm_support_still_checks_grouplin_cap(monkeypatch, capsys, env, message):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    _warm(lc, t)
    monkeypatch.setenv("GROUPLIN_CAP", env)
    for build in (build_system, ref.tuple_system):
        with pytest.raises(CapExceeded, match=message):
            build(lc, t, ReductionParams(EPS2))
    monkeypatch.delenv("GROUPLIN_CAP")
    argv = ["reduce", "lc1", "--template", "s3_sign", "--eps", "3/17"]
    assert main(argv) == 0
    assert reduction._support.cache_info().currsize == 1
    capsys.readouterr()
    monkeypatch.setenv("GROUPLIN_CAP", env)
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("cap exceeded: ")
    assert reduction._support.cache_info().hits >= 2


def test_the_support_cache_is_bounded():
    t = catalog.template("z2_id")
    for k in range(reduction.SUPPORT_CACHE + 2):
        pi = {"d0": "e0"}
        lc = reduction.make_label_cover(["d0"], ["e0"], [f"u{k}"], ["v0"], [(f"u{k}", "v0", pi)])
        build_system(lc, t, ReductionParams(EPS1))
    assert reduction._support.cache_info().currsize == reduction.SUPPORT_CACHE


def test_equal_instances_share_one_support():
    t = catalog.template("z2_id")
    edges = [("u0", "v0", {"d0": "e0"})]
    one = reduction.make_label_cover(["d0"], ["e0"], ["u0"], ["v0"], edges)
    two = reduction.make_label_cover(["d0"], ["e0"], ["u0"], ["v0"], edges)
    assert one is not two
    assert reduction.support(one, t) is reduction.support(two, t)
    rhs = build_system(one, t, ReductionParams(EPS1)).arrays.rhs
    assert build_system(two, t, ReductionParams(EPS2)).arrays.rhs is rhs


def test_a_warm_eps_sweep_scores_no_pattern(monkeypatch):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    first = build_system(lc, t, ReductionParams(EPS1))
    for side in (1, 2):
        derandomize(first, t, side)
        random_expectation(first, t, side)
    scored = []
    hits = solvers._Patterns._hits

    def counting(self, slots, rhs):
        scored.append(len(rhs))
        return hits(self, slots, rhs)

    monkeypatch.setattr(solvers._Patterns, "_hits", counting)
    solved = {}
    for eps in (EPS2, Fraction(1, 100), Fraction(9, 10), Fraction(1, 3), EPS1):
        system = build_system(lc, t, ReductionParams(eps))
        for side in (1, 2):
            solved[system, side] = derandomize(system, t, side), random_expectation(system, t, side)
    assert scored == []
    # and every warm result is the cold one
    for (system, side), result in solved.items():
        fresh = LinSystem.from_arrays(t, system.variables, system.arrays)
        assert result == (derandomize(fresh, t, side), random_expectation(fresh, t, side))
    assert scored


@pytest.mark.parametrize("tname", sorted(catalog.templates()))
def test_an_eps_sweep_where_row_weights_meet_keeps_its_counts(tname, monkeypatch):
    # at |G1| / (|G1| + 1) two of doubled_tiny's row weights are equal; the
    # weight classes are the rows' row classes at every eps, so a sweep that
    # alternates it with 1/8 builds each side's counts once and scores
    # patterns on its first op only, and every op equals a cold build
    t, lc = catalog.template(tname), selftest.doubled_tiny()
    sweep = [EPS1, Fraction(len(t.g1), len(t.g1) + 1)] * 3
    builds, scored = [], []
    monkeypatch.setattr(solvers._Counts, "__init__", _counting(builds, "build", solvers._Counts.__init__))
    monkeypatch.setattr(solvers._Patterns, "_hits", _counting(scored, "_hits", solvers._Patterns._hits))

    def op(eps):
        system = build_system(lc, t, ReductionParams(eps))
        solve = (derandomize, derandomized_value, random_expectation)
        return [tuple(f(system, t, side) for f in solve) for side in (1, 2)]

    reduction._support.cache_clear()
    warm = [op(sweep[0])]
    first = len(scored)
    warm += [op(eps) for eps in sweep[1:]]
    assert builds == ["build"] * 2 and first and len(scored) == first
    for eps, got in zip(sweep, warm):
        reduction._support.cache_clear()
        assert got == op(eps)


def test_a_warm_pipeline_evaluates_nothing(monkeypatch):
    # the derandomized value is weighed from the counts kept with the path;
    # the template is a copy whose hash no lookup has computed yet
    t, lc = replace(catalog.template("s3_sign")), catalog.label_cover("lc1")
    sweep = (EPS2, Fraction(1, 100), Fraction(1, 5), EPS1)
    delta = Fraction(1, 4)
    hashes, keys, payoffs, bests = [], [], [], []
    template_hash = groups.Template.__dict__["_hash"]
    monkeypatch.setattr(template_hash, "func", _counting(hashes, "hash", template_hash.func))
    monkeypatch.setattr(reduction.Support, "family", _counting(keys, "key", reduction.Support.family))
    payoff = _counting(payoffs, "payoff", reduction.payoff_distribution)
    for module in (reduction, decoder):
        monkeypatch.setattr(module, "payoff_distribution", payoff)
    monkeypatch.setattr(solvers, "_best", _counting(bests, "_best", solvers._best))
    run_pipeline(lc, t, EPS1, delta)
    assert hashes == ["hash"]
    hashes.clear(), keys.clear(), payoffs.clear(), bests.clear()
    calls = []
    evaluate, hits = reduction.evaluate, solvers._Patterns._hits

    def evaluating(*args):
        calls.append("evaluate")
        return evaluate(*args)

    def scoring(self, slots, rhs):
        calls.append("_hits")
        return hits(self, slots, rhs)

    # under every name a grouplin module has for it, report.py's included
    for module in [m for name, m in list(sys.modules.items()) if name.startswith("grouplin.")]:
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", evaluating)
    assert reduction.evaluate is evaluating
    monkeypatch.setattr(solvers._Patterns, "_hits", scoring)
    # nor does it count a payoff, transform a table, check an eta, search
    # the labelings, build a planted family, check a family's shape, search
    # the decoder's entries or round its strategy
    eps_free = (
        (reduction, "_payoff_counts"),
        (decoder, "transform"),
        (reps, "multiplicity"),
        (reduction, "_labeling_search"),
        (reduction, "projection_family"),
        (reduction, "_check_family_shape"),
        (decoder, "_search"),
        (decoder, "_rounding"),
    )
    for module, name in eps_free:
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    warm = [run_pipeline(lc, t, eps, delta) for eps in sweep]
    assert calls == []
    # no template hash is computed again, one kept family is looked up per
    # payoff read (the completeness's identity row and the decoder's
    # distribution), and no step of the kept path is checked on its own, as
    # no choice flips
    assert hashes == [] and bests == []
    assert len(keys) == 2 * len(sweep) and len(payoffs) == len(sweep)
    # the labeling search's cap is still read on every call
    labelings = len(lc.d_labels) ** len(lc.u_names) * len(lc.e_labels) ** len(lc.v_names) * len(lc.edges)
    monkeypatch.setenv("GROUPLIN_CAP", str(labelings - 1))
    with pytest.raises(CapExceeded, match=f"edge checks exceed the cap {labelings - 1}"):
        run_pipeline(lc, t, EPS1, delta)
    monkeypatch.delenv("GROUPLIN_CAP")
    assert run_pipeline(lc, t, sweep[-1], delta) == warm[-1] and calls == []
    for eps, report in zip(sweep, warm):
        reduction._support.cache_clear()
        assert report == run_pipeline(lc, t, eps, delta)
    assert {"_hits"} | {name for _, name in eps_free if name != "multiplicity"} <= set(calls) and bests
    assert "evaluate" not in calls and "multiplicity" not in calls  # eta is memoized apart from the support


def _counting(calls: list, name: str, fn):
    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counting


def _families(lc, t):
    """The planted families of both sides, and a side-2 one with some
    entries changed, so that it decodes to another strategy."""
    labels = dict.fromkeys(lc.u_names, lc.d_labels[-1]), dict.fromkeys(lc.v_names, lc.e_labels[0])
    families = {side: projection_family(lc, t, *labels, side) for side in (1, 2)}
    b_tables = {u: b.copy() for u, b in families[2].b_tables.items()}
    for b in b_tables.values():
        b[:: max(3, len(b) // 4)] = len(t.g2) - 1
    return families, AssignmentFamily(2, families[2].a_tables, b_tables)


def _outputs(lc, t, eps, families, changed):
    """What the kept state serves at one eps: the built system, both payoff
    distributions and two decodes, of families of another content one after
    the other (each replaces the side's kept family)."""
    params = ReductionParams(eps)
    system = build_system(lc, t, params)
    payoffs = [payoff_distribution(lc, t, params, families[side], side) for side in (1, 2)]
    decoded = []
    if Fraction(1, len(t.h2)) + DELTA <= 1 - eps:
        for family in (families[2], changed):
            try:
                strategy, value, choice = decode(make_context(lc, t, eps, DELTA, family))
                decoded.append((strategy, value, choice.index, choice.margin, (choice.x, choice.y, choice.z)))
            except NoOmega:
                decoded.append("no omega")
    return system, payoffs, decoded


@pytest.mark.parametrize(
    "tname,lc_name",
    [(tname, lc_name) for tname in sorted(catalog.templates()) for lc_name in ("lc_tiny", "doubled")]
    + [("s3_sign", "lc1"), ("s3_a3_incl", "lc1")],
)
def test_kept_counts_weights_and_terms_equal_cold_ones_over_an_eps_sweep(tname, lc_name, monkeypatch):
    t = catalog.template(tname)
    lc = selftest.doubled_tiny() if lc_name == "doubled" else catalog.label_cover(lc_name)
    joining = Fraction(len(t.g1), len(t.g1) + 1)
    sweep = (EPS1, EPS2, Fraction(1, 100), joining, Fraction(1, 5), EPS1, joining)
    families, changed = _families(lc, t)
    reduction._support.cache_clear()
    calls = []
    monkeypatch.setattr(reduction, "_payoff_counts", _counting(calls, "count", reduction._payoff_counts))
    monkeypatch.setattr(decoder, "transform", _counting(calls, "transform", decoder.transform))
    warm = [_outputs(lc, t, eps, families, changed) for eps in sweep]
    sup = reduction.support(lc, t)
    # side 1 is counted once; side 2 whenever its family changes
    side_2 = [f for _, _, decoded in warm for f in ["planted"] + ["planted", "changed"] * bool(decoded)]
    changes = sum(k == 0 or f != side_2[k - 1] for k, f in enumerate(side_2))
    assert calls.count("count") == 1 + changes
    decodes = len(side_2) > len(warm)
    transforms = calls.count("transform")
    for eps, (system, payoffs, decoded) in zip(sweep, warm):
        reduction._support.cache_clear()
        cold_system, cold_payoffs, cold_decoded = _outputs(lc, t, eps, families, changed)
        assert_same_system(system, cold_system)
        assert payoffs == cold_payoffs and decoded == cold_decoded
    assert calls.count("transform") > transforms or not decodes
    # every eps has the rows' row classes as its weight classes
    assert all(system.arrays.weight_class is sup.exact.row_class for system, _, _ in warm)
    if lc_name == "doubled":
        # two row weights are equal at this eps, and both stay classes
        weights = warm[3][0].arrays.weights
        assert len(set(weights)) < len(weights) == len(warm[2][0].arrays.weights)


def test_a_family_is_a_read_only_copy_of_its_tables():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    planted, params = _families(lc, t)[0][2], ReductionParams(EPS1)
    source = planted.b_tables["u0"].copy()
    family = AssignmentFamily(2, planted.a_tables, {"u0": source})
    payoff = payoff_distribution(lc, t, params, family, 2)
    decoded = decode(make_context(lc, t, EPS1, DELTA, family))
    with pytest.raises(ValueError, match="read-only"):
        family.b_tables["u0"][:4] = 0
    for tables in (family.a_tables, family.b_tables):
        with pytest.raises(TypeError):
            tables["u0"] = source
    # an edit to the caller's array after construction reaches no result,
    # warm or cold, though a family built from it gives others
    source[:4] = 1 - source[:4]
    for _ in range(2):
        assert payoff_distribution(lc, t, params, family, 2) == payoff
        assert decode(make_context(lc, t, EPS1, DELTA, family)) == decoded
        reduction._support.cache_clear()
    edited = AssignmentFamily(2, planted.a_tables, {"u0": source})
    assert payoff_distribution(lc, t, params, edited, 2) != payoff
    assert decode(make_context(lc, t, EPS1, DELTA, edited))[1] != decoded[1]
    # a new family of equal content in another dtype gives equal results
    copy = AssignmentFamily(2, {"v0": planted.a_tables["v0"].astype(np.int32)}, {"u0": planted.b_tables["u0"].tolist()})
    assert payoff_distribution(lc, t, params, copy, 2) == payoff
    assert decode(make_context(lc, t, EPS1, DELTA, copy)) == decoded


def test_a_warm_payoff_still_checks_the_cap_and_the_family():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    families, _ = _families(lc, t)
    for side in (1, 2):
        payoff_distribution(lc, t, ReductionParams(EPS1), families[side], side)
    # one cell per (edge, a, b, s1) and |D| + 1 per point of u0's h table
    cells = 2 * 6 * 36 + 3 * 36
    for side in (1, 2):
        with pytest.raises(CapExceeded, match=f"needs {cells} cells, cap is {cells - 1}"):
            payoff_distribution(lc, t, ReductionParams(EPS2, cap=cells - 1), families[side], side)
        assert payoff_distribution(lc, t, ReductionParams(EPS2, cap=cells), families[side], side)
    family = families[2]
    a, b = family.a_tables["v0"], family.b_tables["u0"]
    for a_tables, b_tables, message in (
        ({"v0": a}, {"u0": b[:-1]}, "must have 36 entries"),
        ({"v0": a}, {"u0": b, "uX": b}, "not a vertex in U"),
        ({"v0": a + 2}, {"u0": b}, "outside 0..1"),
    ):
        bad = AssignmentFamily(2, a_tables, b_tables)
        with pytest.raises(InvalidParams, match=message):
            payoff_distribution(lc, t, ReductionParams(EPS2), bad, 2)
        with pytest.raises(InvalidParams, match=message):
            make_context(lc, t, EPS2, DELTA, bad)
    with pytest.raises(InvalidParams, match="other side"):
        payoff_distribution(lc, t, ReductionParams(EPS2), family, 1)


def test_a_warm_family_check_still_refuses_a_bad_family(monkeypatch):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    family = _families(lc, t)[0][2]
    run_pipeline(lc, t, EPS1, DELTA, family=family)
    checks = []
    monkeypatch.setattr(reduction, "_check_family_shape", _counting(checks, "check", reduction._check_family_shape))
    run_pipeline(lc, t, EPS2, DELTA, family=family)
    assert checks == []  # the kept family passed the check when it was kept

    def refused(bad, message):
        for call in (
            lambda: payoff_distribution(lc, t, ReductionParams(EPS1), bad, 2),
            lambda: make_context(lc, t, EPS1, DELTA, bad),
            lambda: run_pipeline(lc, t, EPS1, DELTA, family=bad),
        ):
            with pytest.raises(InvalidParams, match=message):
                call()

    a, b = family.a_tables["v0"], family.b_tables["u0"]
    outside = b.copy()
    outside[5] = len(t.g2)
    refused(AssignmentFamily(2, {"v0": a}, {"u0": outside}), f"value {len(t.g2)} in the family table for u0 outside 0..1")
    refused(AssignmentFamily(2, {"v0": a}, {}), "family table for u0 must have 36 entries")
    # every table as kept, and one more
    refused(AssignmentFamily(2, {"v0": a, "vX": a}, {"u0": b}), "family A table for vX, which is not a vertex in V")
    assert len(checks) == 9
    assert run_pipeline(lc, t, EPS1, DELTA, family=family) == run_pipeline(lc, t, EPS1, DELTA, family=_families(lc, t)[0][2])


def test_a_warm_pipeline_neither_checks_nor_counts_the_callers_family(monkeypatch):
    # the benchmark's pipeline op: s3_sign/lc1 at eps = k/4001, with one
    # side-2 family of a seeded labeling passed on every call
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    rng = np.random.default_rng([1, 2])
    h_d = {u: lc.d_labels[rng.integers(len(lc.d_labels))] for u in lc.u_names}
    h_e = {v: lc.e_labels[rng.integers(len(lc.e_labels))] for v in lc.v_names}
    family = projection_family(lc, t, h_d, h_e, side=2)
    sweep = [Fraction(k, 4001) for k in (17, 1000, 3, 250, 17)]
    reduction._support.cache_clear()
    calls = []
    for name in ("_check_family_shape", "_payoff_counts"):
        monkeypatch.setattr(reduction, name, _counting(calls, name, getattr(reduction, name)))
    run_pipeline(lc, t, sweep[0], DELTA, family=family)
    # the planted side-1 family and the caller's side-2 one, once each
    assert sorted(calls) == ["_check_family_shape"] * 2 + ["_payoff_counts"] * 2
    calls.clear()
    warm = [run_pipeline(lc, t, eps, DELTA, family=family) for eps in sweep]
    assert calls == []
    # a new family of equal content is another key: checked and counted once
    same = AssignmentFamily(2, family.a_tables, family.b_tables)
    assert run_pipeline(lc, t, sweep[-1], DELTA, family=same) == warm[-1]
    assert calls == ["_check_family_shape", "_payoff_counts"]
    for eps, report in zip(sweep, warm):
        reduction._support.cache_clear()
        assert report == run_pipeline(lc, t, eps, DELTA, family=family)


def _five_labels():
    """One edge from |D| = 5 onto |E| = 1."""
    labels = [f"d{k}" for k in range(5)]
    return reduction.make_label_cover(labels, ["e0"], ["u0"], ["v0"], [("u0", "v0", dict.fromkeys(labels, "e0"))])


def test_the_kept_decode_follows_the_truncation_boundary():
    # kappa = 5 at eps = 1/2 and delta = 1/6, the least the promise
    # 1/|H2| + delta <= 1 - eps allows with |H2| = 3: the decoder drops the
    # degree-5 terms there and keeps them at eps = 1/8 (kappa = 24)
    t, lc, delta = catalog.template("z3_id"), _five_labels(), Fraction(1, 6)
    planted = projection_family(lc, t, {"u0": "d2"}, {"v0": "e0"}, side=2)
    b = planted.b_tables["u0"].copy()
    b[::10] = (b[::10] + 1) % 3
    family = AssignmentFamily(2, planted.a_tables, {"u0": b})
    sweep = [(eps, leftover) for leftover in ("giveup", "normalize") for eps in (Fraction(1, 2), EPS1, Fraction(1, 2))]
    assert [decoder.kappa(delta, eps) for eps, _ in sweep[:2]] == [5, 24]
    reduction._support.cache_clear()
    warm = [decode(make_context(lc, t, eps, delta, family, leftover=leftover)) for eps, leftover in sweep]
    decodes = reduction.support(lc, t).families[2].decodes
    # per leftover rule, one outcome per min(kappa, max(|D|, |E|) + 1)
    assert sorted(key[1:2] + key[-1:] for key in decodes) == [("giveup", 5), ("giveup", 6), ("normalize", 5), ("normalize", 6)]
    assert warm[0][0] != warm[1][0] and warm[0][0].kappa == 5 and warm[1][0].kappa == 24
    assert warm[0][0].u_probs != warm[3][0].u_probs
    for (eps, leftover), got in zip(sweep, warm):
        reduction._support.cache_clear()
        assert got == decode(make_context(lc, t, eps, delta, family, leftover=leftover))


def test_a_returned_report_shares_nothing_kept(monkeypatch):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    first = run_pipeline(lc, t, EPS1, DELTA)
    expect = copy.deepcopy(first)
    report = first["decoder"]
    for maps in (report["strategy"]["v_probs"], report["strategy"]["u_probs"]):
        for probs in maps.values():
            probs[next(iter(probs))] = 0.5
    report["derandomized"]["hD"]["u0"] = report["derandomized"]["hE"]["v0"] = "x"
    assert run_pipeline(lc, t, EPS1, DELTA) == expect
    # a decoded strategy whose maps changed is rounded afresh
    ctx = make_context(lc, t, EPS1, DELTA, reduction.planted(lc, t)[2])
    strategy, _, _ = decode(ctx)
    assert derandomize_strategy(lc, strategy) == strategy.decoded.rounding
    walks = []
    monkeypatch.setattr(decoder, "_rounding", _counting(walks, "walk", decoder._rounding))
    assert derandomize_strategy(lc, strategy) == strategy.decoded.rounding and walks == []
    strategy.u_probs["u0"][next(iter(strategy.u_probs["u0"]))] = 0.0
    derandomize_strategy(lc, strategy)
    assert walks == ["walk"] and decode(ctx)[0].u_probs != strategy.u_probs


def test_the_kept_state_is_bounded_and_goes_with_the_support():
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    sup = reduction.support(lc, t)
    families, changed = _families(lc, t)
    for family in (families[1], families[2], changed):
        payoff_distribution(lc, t, ReductionParams(EPS1), family, family.side)
    decode(make_context(lc, t, EPS1, DELTA, changed))
    # the last family of each side, with the decoder's outcomes beside its counts
    assert sorted(sup.families) == [1, 2]
    assert sup.families[2] is sup.family(changed) and sup.families[2].decodes
    assert sup.families[1] is sup.family(families[1])
    build_system(lc, t, ReductionParams(EPS1))
    for array in (sup.families[2].counts, sup.first.class_totals):
        assert not array.flags.writeable
    other = catalog.label_cover("lc_tiny")
    build_system(other, t, ReductionParams(EPS1))
    assert reduction.support(lc, t) is not sup
    assert reduction.support(lc, t).families == {} and reduction.support(lc, t).first is None


def test_a_warm_build_checks_only_its_weights(monkeypatch):
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    passes = []
    check = reduction._validate_rows

    def counting(template, variables, rows):
        passes.append(len(rows.rhs))
        return check(template, variables, rows)

    monkeypatch.setattr(reduction, "_validate_rows", counting)
    totals = []
    monkeypatch.setattr(reduction, "_class_totals", _counting(totals, "totals", reduction._class_totals))
    build_system(lc, t, ReductionParams(EPS1))
    assert passes == [31104] and len(totals) == 1  # the support's rows and weight classes, once
    weights = build_system(lc, t, ReductionParams(EPS2)).arrays.numerators
    assert passes == [31104] and len(totals) == 1
    # sampled systems are checked row by row on every build
    sampled = ReductionParams(EPS2, mode="sampled", sample_count=100, seed=1)
    rows = [len(build_system(lc, t, sampled).arrays) for _ in range(2)]
    assert passes == [31104, *rows] and len(totals) == 3
    # bad weights still raise on a warm build, at an eps the support has
    # not weighed yet; the support is dropped after, as it keeps them
    (n0, n1, n2), denom = weights
    bad_weights = ((Fraction(1, 5), [n0 + 2 * n1, -n1, n2], "non-negative"), (Fraction(1, 6), [2 * n0, n1, n2], "weights sum to"))
    for eps, bad, message in bad_weights:
        monkeypatch.setattr(reduction, "_class_numerators", lambda *args, bad=bad: (bad, denom))
        with pytest.raises(InvalidParams, match=message):
            build_system(lc, t, ReductionParams(eps))
    reduction._support.cache_clear()
    assert passes == [31104, *rows]


def _random_family(lc, t, side, seed):
    """A family of seeded random tables into the side's group."""
    sup, rng = reduction.support(lc, t), np.random.default_rng(seed)
    order = len(t.g1 if side == 1 else t.g2)
    a_tables = {v: rng.integers(order, size=sup.pe.n) for v in lc.v_names}
    return AssignmentFamily(side, a_tables, {u: rng.integers(order, size=sup.pd.n) for u in lc.u_names})


@pytest.mark.parametrize("tname", sorted(catalog.templates()))
@pytest.mark.parametrize("lc_name", ("lc_tiny", "lc1"))
def test_the_completeness_row_is_the_identity_mass(tname, lc_name):
    # evaluate_family weighs the identity's row of the kept counts alone:
    # the payoff distribution's identity mass, 0 where it has none, for
    # planted and random families of both sides, warm and cold
    t, lc = catalog.template(tname), catalog.label_cover(lc_name)
    planted_families = reduction.planted(lc, t)[1:]
    for side in (1, 2):
        identity = (t.g1 if side == 1 else t.g2).identity
        for family in (planted_families[side - 1], *(_random_family(lc, t, side, seed) for seed in (1, 2))):
            for eps in (EPS1, EPS2, EPS1):
                params = ReductionParams(eps)
                expect = payoff_distribution(lc, t, params, family, side).get(identity, Fraction(0))
                assert reduction.evaluate_family(lc, t, params, family, side) == expect
                reduction._support.cache_clear()
                assert reduction.evaluate_family(lc, t, ReductionParams(eps), family, side) == expect


def test_a_warm_catalog_op_scores_no_path_step(monkeypatch):
    # every step of the side-2 walk is a weight-free tie on every template
    # with lc_tiny, lc1 and the doubled instance, so a second op, at a new
    # eps, reuses the kept walk without a ``_best`` call, and reads
    # random_expectation's kept totals without a pattern lookup
    calls = []
    monkeypatch.setattr(solvers, "_best", _counting(calls, "best", solvers._best))
    monkeypatch.setattr(solvers._Patterns, "lookup", _counting(calls, "lookup", solvers._Patterns.lookup))
    for t in catalog.templates().values():
        for lc in (catalog.label_cover("lc_tiny"), catalog.label_cover("lc1"), selftest.doubled_tiny()):
            run_pipeline(lc, t, EPS1, DELTA)
            calls.clear()
            run_pipeline(lc, t, EPS2, DELTA)
            assert calls == [], (t.name, lc.u_names)
            kept = solvers._counts(build_system(lc, t, ReductionParams(EPS2)), 2)
            assert kept.assigned is not None and kept.untied == []


def test_a_returned_strategy_shares_no_kept_map():
    # decode's strategy holds copies of the kept outcome's maps, which are
    # read-only: changing the copies changes no later report, and the kept
    # maps refuse a change and still render as JSON
    t, lc = catalog.template("s3_sign"), catalog.label_cover("lc1")
    expect = copy.deepcopy(run_pipeline(lc, t, EPS1, DELTA))
    strategy, _, _ = decode(make_context(lc, t, EPS1, DELTA, reduction.planted(lc, t)[2]))
    kept = strategy.decoded
    assert strategy == decoder.Strategy(kept.v_probs, kept.u_probs, strategy.kappa, strategy.leftover)
    for maps in (strategy.v_probs, strategy.u_probs):
        for probs in maps.values():
            probs[next(iter(probs))] = 0.75
        maps["extra"] = {}
    for maps in (kept.v_probs, kept.u_probs):
        with pytest.raises(TypeError):
            next(iter(maps.values()))["x"] = 0.5
        with pytest.raises(TypeError):
            maps["extra"] = {}
    assert run_pipeline(lc, t, EPS1, DELTA) == expect
    assert io.jsonable(kept.v_probs) == io.jsonable(expect["decoder"]["strategy"]["v_probs"])


@pytest.mark.parametrize("side", (1, 2))
def test_a_family_that_never_pays_completes_to_zero(side):
    # A = (12) everywhere on s3_a3_incl folds to a product outside A3 at every
    # tuple: the identity's row of the counts is all zero
    t, lc = catalog.template("s3_a3_incl"), catalog.label_cover("lc_tiny")
    sup = reduction.support(lc, t)
    family = AssignmentFamily(side, {"v0": np.full(sup.pe.n, 1)}, {"u0": np.zeros(sup.pd.n, dtype=int)})
    params = ReductionParams(EPS1)
    assert (t.g1 if side == 1 else t.g2).identity not in payoff_distribution(lc, t, params, family, side)
    value = reduction.evaluate_family(lc, t, params, family, side)
    assert value == 0 and isinstance(value, Fraction)
