"""The array kernels of ``derandomize``, ``random_expectation``,
``evaluate`` and ``brute_force_opt`` against the per-equation reference loops
in ``reference_solvers``: identical assignments and identical Fractions.
Systems that differ only in their weights and share one side-view memo, as
the exact systems of one support do, must solve as if each were cold."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from grouplin import (
    InvalidParams,
    ReductionParams,
    solvers,
    brute_force_opt,
    build_system,
    catalog,
    cli,
    derandomize,
    derandomized_value,
    evaluate,
    family_assignment,
    projection_family,
    random_expectation,
)
from grouplin.groups import full_subgroup, make_homomorphism, validate_template
from grouplin.reduction import LinEquation, LinSystem, SystemArrays, side_view
from grouplin.selftest import flipping_systems
from grouplin.solvers import non_cubic_solve, unsatisfiable_mask
from reference_groups import is_unsatisfiable_equation

TEMPLATES = sorted(catalog.templates())
EPS = Fraction(1, 8)
DELTA = Fraction(1, 4)


def s4_sign():
    """S4 -> Z2 by permutation parity, a template the catalog does not hold:
    |H1| = 24 on side 1."""
    s4, z2 = catalog.group("s4"), catalog.group("z2")
    parity = {}
    for g, label in enumerate(s4.elements):  # a label lists the images of 0..3
        p = [int(c) for c in label]
        parity[g] = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2
    return validate_template(s4, z2, make_homomorphism(full_subgroup(s4), z2, parity), "s4_sign")


S4_SIGN = s4_sign()
SMALL_TEMPLATES = [catalog.template(name) for name in TEMPLATES] + [S4_SIGN]


@st.composite
def small_systems(draw, templates=SMALL_TEMPLATES):
    """A few equations over a few variables. Terms may repeat a variable,
    some variables may go unused, weights are unequal, and identical
    equations are either merged or kept apart. Templates are the catalog's
    and S4 -> Z2."""
    t = draw(st.sampled_from(templates))
    n_vars = draw(st.integers(1, 5))
    names = draw(st.permutations([f"x{i}" for i in range(n_vars)]))
    used = names[: draw(st.integers(1, n_vars))]
    term = st.tuples(st.sampled_from(used), st.sampled_from((1, -1)))
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(term, term, term),
                st.sampled_from(t.h1.members),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    total = sum(w for _, _, w in rows)
    if draw(st.booleans()):
        merged = {}
        for terms, rhs, w in rows:
            merged[(terms, rhs)] = merged.get((terms, rhs), 0) + w
        rows = [(terms, rhs, w) for (terms, rhs), w in merged.items()]
    eqs = tuple(LinEquation(terms, rhs, Fraction(w, total)) for terms, rhs, w in rows)
    return LinSystem(t, tuple(names), eqs)


def _check_small_system(system, side, data):
    t = system.template
    assignment = derandomize(system, t, side)
    assert assignment == ref.derandomize(system, t, side)
    assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
    assert evaluate(system, assignment, side) == ref.evaluate(system, assignment, side)
    order = len(t.g1 if side == 1 else t.g2)
    values = data.draw(st.lists(st.integers(0, order - 1), min_size=len(system.variables), max_size=len(system.variables)))
    other = dict(zip(system.variables, values))
    assert evaluate(system, other, side) == ref.evaluate(system, other, side)
    if order ** len(system.variables) <= 1296:
        assert brute_force_opt(system, side) == ref.brute_force_opt(system, side)


@settings(max_examples=100, deadline=None)
@given(system=small_systems(), side=st.sampled_from((1, 2)), data=st.data())
def test_kernels_match_reference_on_small_systems(system, side, data):
    _check_small_system(system, side, data)


@settings(max_examples=50, deadline=None)
@given(system=small_systems([S4_SIGN]), data=st.data())
def test_kernels_match_reference_on_small_s4_systems(system, data):
    # side 1 draws the unknowns from all 24 elements of S4
    for side in (1, 2):
        _check_small_system(system, side, data)


@settings(max_examples=100, deadline=None)
@given(system=small_systems())
def test_unsatisfiable_mask_matches_the_equation_check(system):
    t = system.template
    expect = [is_unsatisfiable_equation(eq, t) for eq in system.equations]
    assert unsatisfiable_mask(system, t).tolist() == expect
    weight = sum((eq.weight for eq, bad in zip(system.equations, expect) if bad), Fraction(0))
    assert non_cubic_solve(system, t, Fraction(1, 2))["unsat_weight"] == weight


def _check_catalog_case(system, t, lc, side):
    assignment = derandomize(system, t, side)
    assert assignment == ref.derandomize(system, t, side)
    assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
    assert evaluate(system, assignment, side) == ref.evaluate(system, assignment, side)
    planted = family_assignment(lc, t, projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side))
    assert evaluate(system, planted, side) == ref.evaluate(system, planted, side)


@pytest.mark.parametrize("side", (1, 2))
@pytest.mark.parametrize("tname", TEMPLATES)
def test_kernels_match_reference_on_lc_tiny(tname, side):
    t, lc = catalog.template(tname), catalog.label_cover("lc_tiny")
    _check_catalog_case(build_system(lc, t, ReductionParams(EPS)), t, lc, side)


@pytest.mark.parametrize("tname", TEMPLATES)
def test_kernels_match_reference_on_lc1_side_two(tname):
    # side 1 is left out: the reference takes about 18 s on the S3 templates
    t, lc = catalog.template(tname), catalog.label_cover("lc1")
    _check_catalog_case(build_system(lc, t, ReductionParams(EPS)), t, lc, 2)


@pytest.mark.parametrize("tname", TEMPLATES)
def test_pipeline_report_matches_reference(tname, monkeypatch):
    t, lc = catalog.template(tname), catalog.label_cover("lc_tiny")
    report = cli.run_pipeline(lc, t, EPS, DELTA)
    # the pipeline report (report.py) calls its solvers through the module,
    # so it runs these
    monkeypatch.setattr(solvers, "random_expectation", ref.random_expectation)
    monkeypatch.setattr(
        solvers,
        "derandomized_value",
        lambda system, template, side: ref.evaluate(system, ref.derandomize(system, template, side), side),
    )
    assert report == cli.run_pipeline(lc, t, EPS, DELTA)


def reweighed(system, weights):
    """The system with other class weights, sharing its side views (and so
    the solvers' memo) as the exact systems of one support do."""
    denom = math.lcm(*(w.denominator for w in weights))
    return system.reweighed([w.numerator * (denom // w.denominator) for w in weights], denom)


def cold(system):
    """The same system with a memo of its own."""
    return LinSystem.from_arrays(system.template, system.variables, system.arrays)


def _counting_lookups(monkeypatch):
    """Patch ``_Patterns.lookup`` to record its calls: the sizes of the
    lookups of a variable's rows, where it is unknown 0, and of the
    all-fixed rows (shape 0) that count the assignment a walk ends in."""
    lookups, assigned = [], []
    lookup = solvers._Patterns.lookup

    def counting(self, shape, known):
        (lookups if shape.any() else assigned).append(len(shape))
        return lookup(self, shape, known)

    monkeypatch.setattr(solvers._Patterns, "lookup", counting)
    return lookups, assigned


@pytest.mark.parametrize("side", (1, 2))
def test_a_flip_costs_one_full_walk_and_the_same_weights_none(side, monkeypatch):
    # the second system's weights flip y: each switch between the systems
    # walks x, y and z again, one block each, and counts the new assignment
    # once over every view row; a call with the kept weights looks nothing up
    t, one, two = flipping_systems()
    lookups, assigned = _counting_lookups(monkeypatch)
    expect = {"x": 1, "y": 1, "z": 0}, {"x": 1, "y": 2, "z": 1}
    rows = len(side_view(one, side).rows(one.arrays.rhs))
    calls = (one, expect[0], 3), (two, expect[1], 3), (one, expect[0], 3), (one, expect[0], 0)
    for system, assignment, walked in calls:
        lookups.clear()
        assigned.clear()
        got = derandomize(system, t, side)
        assert len(lookups) == walked and assigned == [rows] * (walked > 0)
        assert got == assignment == ref.derandomize(system, t, side)
        # the value is read from the kept counts, with no lookup
        assert derandomized_value(system, t, side) == evaluate(system, got, side)
        assert len(lookups) == walked and assigned == [rows] * (walked > 0)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
    assert one._side_views is two._side_views


@pytest.mark.parametrize("side", (1, 2))
def test_an_interrupted_rescore_is_finished_by_the_next_call(side, monkeypatch):
    # the second system's weights flip y, so it walks again; stopped at z,
    # the walk has no end counted, and the next call walks it whole
    t, one, two = flipping_systems()
    derandomize(one, t, side)
    lookups, assigned = _counting_lookups(monkeypatch)
    counting = solvers._Patterns.lookup

    def stopping(self, shape, known):
        if len(lookups) == 2:  # x and y walked, then z
            raise KeyboardInterrupt
        return counting(self, shape, known)

    monkeypatch.setattr(solvers._Patterns, "lookup", stopping)
    with pytest.raises(KeyboardInterrupt):
        derandomize(two, t, side)
    assert solvers._counts(two, side).assigned is None
    monkeypatch.setattr(solvers._Patterns, "lookup", counting)
    lookups.clear()
    assert derandomize(two, t, side) == ref.derandomize(two, t, side)
    assert len(lookups) == 3 and len(assigned) == 1
    assert derandomized_value(two, t, side) == evaluate(two, ref.derandomize(two, t, side), side)


@settings(max_examples=60, deadline=None)
@given(system=small_systems(), data=st.data())
def test_a_reweighed_system_solves_as_a_cold_one_with_its_weights(system, data):
    # any non-negative integer numerators, equal ones and zeros too, over
    # the denominator that makes them sum to 1
    t, enc = system.template, system.arrays
    n = len(enc.weights)

    def fresh(nums, denom):
        weights = tuple(Fraction(r, denom) for r in nums)
        return LinSystem.from_arrays(t, system.variables, replace(enc, weights=weights))

    used = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(lambda r: any(r[k] for k in enc.weight_class))
    nums = data.draw(used)
    denom = sum(r * c for r, c in zip(nums, system.class_totals.tolist()))
    warm, expect = system.reweighed(nums, denom), fresh(nums, denom)
    assert warm._side_views is system._side_views and warm.arrays.weights == expect.arrays.weights
    for side in (1, 2):
        derandomize(system, t, side)  # the shared views keep the first system's counts
        assignment = derandomize(warm, t, side)
        assert assignment == derandomize(expect, t, side)
        assert derandomized_value(warm, t, side) == derandomized_value(expect, t, side)
        assert random_expectation(warm, t, side) == random_expectation(expect, t, side)
        assert evaluate(warm, assignment, side) == evaluate(expect, assignment, side)
    # only the weights are checked, a cold system's checks with its messages
    for wrong in (nums + [1], nums[:-1]):
        with pytest.raises(InvalidParams, match=f"{len(wrong)} weights for {n} weight classes"):
            system.reweighed(wrong, denom)
    negative = [-1, *nums[1:]]
    for args, message in (((negative, denom), "weights must be non-negative"), ((nums, denom + 1), "weights sum to")):
        for build in (system.reweighed, fresh):
            with pytest.raises(InvalidParams, match=message):
                build(*args)
    # a denominator below one is refused before any weight is built
    for args in (([0] * n, 0), (nums, -denom)):
        with pytest.raises(InvalidParams, match=f"the weights' denominator must be positive, got {args[1]}"):
            system.reweighed(*args)


@settings(max_examples=60, deadline=None)
@given(system=small_systems(), side=st.sampled_from((1, 2)), data=st.data())
def test_weight_sweeps_over_one_shared_view_match_cold_solves(system, side, data):
    t = system.template
    n = len(system.arrays.weights)
    used = np.bincount(system.arrays.weight_class, minlength=n).tolist()
    for _ in range(4):
        # distinct weights, as every built or loaded system has
        raw = data.draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
        total = sum(r * c for r, c in zip(raw, used))
        warm = reweighed(system, [Fraction(r, total) for r in raw])
        assignment = derandomize(warm, t, side)
        assert assignment == derandomize(cold(warm), t, side)
        assert random_expectation(warm, t, side) == random_expectation(cold(warm), t, side)


@settings(max_examples=60, deadline=None)
@given(system=small_systems(), side=st.sampled_from((1, 2)), data=st.data())
def test_derandomized_values_over_one_shared_view_match_the_reference(system, side, data):
    t = system.template
    n = len(system.arrays.weights)
    used = np.bincount(system.arrays.weight_class, minlength=n).tolist()
    for _ in range(4):
        raw = data.draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
        total = sum(r * c for r, c in zip(raw, used))
        warm = reweighed(system, [Fraction(r, total) for r in raw])
        value = evaluate(warm, ref.derandomize(warm, t, side), side)
        assert derandomized_value(warm, t, side) == value


@settings(max_examples=80, deadline=None)
@given(system=small_systems(), side=st.sampled_from((1, 2)), data=st.data())
def test_the_batched_path_check_finds_the_first_changed_step(system, side, data):
    # weights from a few values, so that scores tie and choices flip: the
    # check of the kept walk holds exactly where a step-by-step scan of its
    # untied steps finds no changed choice, under the weights and under
    # numerators up to 2^70, and the warm solve is the reference's
    t = system.template
    n = len(system.arrays.weights)
    used = np.bincount(system.arrays.weight_class, minlength=n).tolist()
    derandomize(system, t, side)
    for _ in range(4):
        raw = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        warm = reweighed(system, [Fraction(r, sum(map(int.__mul__, raw, used))) for r in raw])
        kept = solvers._counts(warm, side)
        huge = data.draw(st.lists(st.sampled_from((0, 1, 2, 3, 2**61, 2**62, 2**70)), min_size=n, max_size=n))
        for nums in (warm.arrays.numerators[0], huge):
            scan = ref.first_changed(kept.untied, kept.choice, nums) == len(kept.untied)
            assert solvers._holds(kept, nums) == scan
        assert derandomize(warm, t, side) == ref.derandomize(warm, t, side)


@settings(max_examples=80, deadline=None)
@given(system=small_systems(), side=st.sampled_from((1, 2)), data=st.data())
def test_the_path_check_scores_only_untied_steps(system, side, data):
    # weights from a few values, so that scores tie and choices flip: the
    # warm solve and its value are the reference's, and the untied steps
    # are exactly those whose counts are not all equal
    t = system.template
    n = len(system.arrays.weights)
    used = np.bincount(system.arrays.weight_class, minlength=n).tolist()
    derandomize(system, t, side)
    for _ in range(4):
        raw = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        warm = reweighed(system, [Fraction(r, sum(map(int.__mul__, raw, used))) for r in raw])
        kept = solvers._counts(warm, side)
        assignment = ref.derandomize(warm, t, side)
        assert derandomize(warm, t, side) == assignment
        assert derandomized_value(warm, t, side) == evaluate(warm, assignment, side)
        untied = [warm.variables[x] for x, _, _ in kept.untied]
        assert untied == ref.untied_variables(warm, t, side, assignment)


@pytest.mark.parametrize("side", (1, 2))
def test_joined_weight_classes_replace_the_kept_counts(side):
    # the second system shares the first's side views but joins classes 1
    # and 2 into one weight class: the kept counts are for one weight class
    # array, so each system in turn replaces them
    t = catalog.template("z4_to_z2")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1, 10)),
        LinEquation((("y", 1), ("x", 1), ("x", -1)), 1, Fraction(4, 10)),
        LinEquation((("y", 1), ("z", 1), ("z", -1)), 2, Fraction(3, 10)),
        LinEquation((("z", 1), ("y", -1), ("x", 1)), 3, Fraction(2, 10)),
    ]
    one = LinSystem(t, ("x", "y", "z"), eqs)
    enc = one.arrays
    joined = SystemArrays(
        enc.var_ids, enc.signs, enc.rhs, np.array([0, 1, 1, 2]), (Fraction(1, 20), Fraction(2, 5), Fraction(3, 20))
    )
    two = LinSystem.from_arrays(t, one.variables, joined)
    two._side_views = one._side_views
    for system in (one, two, one):
        assert derandomize(system, t, side) == ref.derandomize(system, t, side)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
        assert derandomized_value(system, t, side) == evaluate(system, ref.derandomize(system, t, side), side)
        assert solvers._counts(system, side).weight_class is system.arrays.weight_class
