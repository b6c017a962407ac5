"""The array kernels of ``derandomize``, ``random_expectation``,
``evaluate`` and ``brute_force_opt`` against the per-equation reference loops
in ``reference_solvers``: identical assignments and identical Fractions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from grouplin import (
    ReductionParams,
    brute_force_opt,
    build_system,
    catalog,
    cli,
    derandomize,
    evaluate,
    family_assignment,
    projection_family,
    random_expectation,
)
from grouplin.groups import (
    full_subgroup,
    is_unsatisfiable_equation,
    make_homomorphism,
    validate_template,
)
from grouplin.reduction import LinEquation, LinSystem
from grouplin.solvers import non_cubic_solve, unsatisfiable_mask

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
    monkeypatch.setattr(cli, "derandomize", ref.derandomize)
    monkeypatch.setattr(cli, "random_expectation", ref.random_expectation)
    monkeypatch.setattr(cli, "evaluate", ref.evaluate)
    assert report == cli.run_pipeline(lc, t, EPS, DELTA)
