from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import reference_solvers as ref
from grouplin import (
    CapExceeded,
    InvalidParams,
    ReductionParams,
    brute_force_opt,
    build_system,
    catalog,
    derandomize,
    evaluate,
    non_cubic_solve,
    random_expectation,
)
from grouplin import selftest, solvers
from grouplin.groups import validate_template
from grouplin.reduction import LinEquation, LinSystem
from grouplin.selftest import random_system
from grouplin.solvers import unsatisfiable_mask

from checks import assert_passes


def make_system(template, equations):
    names = sorted({v for eq in equations for v, _ in eq.terms})
    return LinSystem(template, tuple(names), tuple(equations))


def test_brute_force_single_equation():
    t = catalog.template("z2_id")
    system = make_system(
        t, [LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))]
    )
    value, assignment = brute_force_opt(system, 1)
    assert value == 1
    assert assignment == {"x": 0, "y": 0, "z": 0}  # lex-first optimum


def test_brute_force_contradictory_pair():
    t = catalog.template("z2_id")
    system = make_system(
        t,
        [
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1, 2)),
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 1, Fraction(1, 2)),
        ],
    )
    value, _ = brute_force_opt(system, 1)
    assert value == Fraction(1, 2)


def test_brute_force_unsatisfiable_cube():
    t = catalog.template("z3_id")
    system = make_system(t, [LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1))])
    value, _ = brute_force_opt(system, 1)
    assert value == 0


def test_brute_force_cap():
    t = catalog.template("z2_id")
    system = make_system(
        t, [LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))]
    )
    with pytest.raises(CapExceeded):
        brute_force_opt(system, 1, cap=4)


@pytest.mark.parametrize("cap", [-1, 0])
def test_caps_below_one_are_refused(cap):
    t = catalog.template("z2_id")
    system = make_system(t, [LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))])
    message = f"cap must be a positive integer, got {cap}"
    with pytest.raises(InvalidParams, match=message):
        brute_force_opt(system, 1, cap=cap)
    with pytest.raises(InvalidParams, match=message):
        build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(Fraction(1, 4), cap=cap))


def test_random_expectation_free_equation():
    t = catalog.template("z2_id")
    system = make_system(
        t, [LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))]
    )
    assert random_expectation(system, t, 2) == Fraction(1, 2)


def test_random_expectation_unsatisfiable_cube_is_zero():
    t = catalog.template("z3_id")
    system = make_system(t, [LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1))])
    assert random_expectation(system, t, 2) == 0


@pytest.mark.parametrize("tname", ["z2_id", "z4_to_z2", "s3_sign"])
def test_distinct_variable_equations_hit_inverse_subgroup_order(tname):
    (check,) = selftest.lookup("solvers:distinct-variable-expectation")
    assert tname in check.args
    assert_passes(replace(check, args=(tname,)))


def test_derandomize_beats_expectation_on_weighted_pair():
    t = catalog.template("z2_id")
    system = make_system(
        t,
        [
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(3, 4)),
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 1, Fraction(1, 4)),
        ],
    )
    assert random_expectation(system, t, 1) == Fraction(1, 2)
    assignment = derandomize(system, t, 1)
    value = evaluate(system, assignment, 1)
    assert value == Fraction(3, 4)
    opt, _ = brute_force_opt(system, 1)
    assert value == opt


def test_derandomize_satisfiable_equation_reaches_one():
    t = catalog.template("z2_id")
    system = make_system(
        t, [LinEquation((("x", 1), ("y", 1), ("z", -1)), 1, Fraction(1))]
    )
    assignment = derandomize(system, t, 2)
    assert evaluate(system, assignment, 2) == 1


def test_non_cubic_rejects_all_unsatisfiable_system():
    t = catalog.template("z3_id")
    system = make_system(t, [LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1))])
    result = non_cubic_solve(system, t, Fraction(1, 2))
    assert result["status"] == "reject"
    assert result["unsat_weight"] == 1


def test_non_cubic_accepts_with_value_floor():
    t = catalog.template("z3_id")
    system = make_system(
        t,
        [
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(3, 4)),
            LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1, 4)),
        ],
    )
    result = non_cubic_solve(system, t, Fraction(1, 2))
    assert result["status"] == "accept"
    assert result["unsat_weight"] == Fraction(1, 4)
    assert result["value"] >= Fraction(3, 4) * Fraction(1, 3)


def test_cubic_template_never_rejects():
    t = catalog.template("z2_id")
    rng = np.random.default_rng(2)
    for _ in range(10):
        system = random_system(t, rng)
        assert non_cubic_solve(system, t, Fraction(9, 10))["status"] == "accept"


def test_derandomize_all_ties_take_first_member():
    # x*y*z = e and x*y*z = (12) with equal weight: on side 2 (Z2) exactly
    # one holds, on side 1 (S3) the product is uniform while any variable is
    # free; the last variable ties between e and (12). Every step ties.
    t = catalog.template("s3_sign")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1, 2)),
        LinEquation((("x", 1), ("y", 1), ("z", 1)), 1, Fraction(1, 2)),
    ]
    system = make_system(t, eqs)
    for side in (1, 2):
        h = t.h1 if side == 1 else t.h2
        assert derandomize(system, t, side) == dict.fromkeys("xyz", h.members[0])


def test_derandomize_every_candidate_ties_on_a_balanced_system():
    # each equation pins one variable to the identity or to the generator
    # with equal weight, so every variable scores the same for each value
    t = catalog.template("z2_id")
    eqs = [
        LinEquation(((v, 1), ("w", 1), ("w", -1)), rhs, Fraction(1, 6))
        for v in ("a", "b", "c")
        for rhs in (0, 1)
    ]
    system = LinSystem(t, ("a", "b", "c", "w"), tuple(eqs))
    for side in (1, 2):
        assert derandomize(system, t, side) == {"a": 0, "b": 0, "c": 0, "w": 0}


def test_derandomize_takes_a_strictly_better_later_element():
    # x * y * y^-1 = 2 forces x = 2, the last element of Z3
    t = catalog.template("z3_id")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 2, Fraction(2, 3)),
        LinEquation((("y", 1), ("y", 1), ("y", 1)), 0, Fraction(1, 3)),
    ]
    system = LinSystem(t, ("x", "y"), tuple(eqs))
    assignment = derandomize(system, t, 1)
    assert assignment["x"] == 2
    assert evaluate(system, assignment, 1) == 1


def test_derandomize_takes_a_strictly_better_later_element_in_s3():
    # over A3 = {0, 4, 5}: x * y * y^-1 = 5 forces x to the last member
    t = catalog.template("s3_a3_incl")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 5, Fraction(1, 2)),
        LinEquation((("y", 1), ("z", 1), ("z", -1)), 0, Fraction(1, 2)),
    ]
    system = LinSystem(t, ("x", "y", "z"), tuple(eqs))
    assignment = derandomize(system, t, 1)
    assert assignment == {"x": 5, "y": 0, "z": 0}
    assert evaluate(system, assignment, 1) == 1


def test_derandomize_counts_duplicate_equations_like_merged_ones():
    t = catalog.template("z3_id")
    a = LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1, 4))
    b = LinEquation((("x", 1), ("y", 1), ("y", -1)), 2, Fraction(1, 3))
    split = LinSystem(t, ("x", "y"), (a, a, b, LinEquation(a.terms, 0, Fraction(1, 6))))
    merged = LinSystem(
        t, ("x", "y"), (LinEquation(a.terms, 1, Fraction(1, 2)), b, split.equations[3])
    )
    assert derandomize(split, t, 1) == derandomize(merged, t, 1) == {"x": 1, "y": 0}


def test_brute_force_keeps_lexicographically_first_optimum():
    t = catalog.template("z3_id")
    system = make_system(t, [LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1))])
    # y is free: (1, 0), (1, 1), (1, 2) are all optimal
    assert brute_force_opt(system, 1) == (1, {"x": 1, "y": 0})


def test_brute_force_spans_several_blocks():
    t = catalog.template("z2_id")
    names = tuple(f"x{i}" for i in range(12))
    eqs = [
        LinEquation(((names[i], 1), (names[i + 1], 1), (names[i + 1], 1)), 1, Fraction(1, 11))
        for i in range(11)
    ]
    system = LinSystem(t, names, tuple(eqs))
    value, assignment = brute_force_opt(system, 1)
    # x_i = 1 for i < 11 is forced; x11 is free and takes 0
    assert value == 1
    assert [assignment[x] for x in names] == [1] * 11 + [0]


def test_brute_force_cap_counts_equations():
    # 4 assignments but 11 equations: 44 evaluations
    t = catalog.template("z2_id")
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", s)), r, Fraction(1, 11))
        for s, r in [(1, 0), (1, 1), (-1, 0), (-1, 1)] * 2 + [(1, 0), (1, 1), (-1, 0)]
    ]
    system = LinSystem(t, ("x", "y"), tuple(eqs))
    with pytest.raises(CapExceeded, match="4 assignments x 11 equations = 44"):
        brute_force_opt(system, 1, cap=43)
    assert brute_force_opt(system, 1, cap=44)[0] == Fraction(6, 11)


def test_unsatisfiable_mask_on_cube_equations():
    # in Z3 every cube is 0, so x^3 = h and x^-3 = h fail for h != 0
    t = catalog.template("z3_id")
    eqs = (
        LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1, 4)),
        LinEquation((("x", -1), ("x", -1), ("x", -1)), 2, Fraction(1, 4)),
        LinEquation((("x", 1), ("x", 1), ("x", 1)), 0, Fraction(1, 4)),
        LinEquation((("x", 1), ("x", -1), ("x", 1)), 1, Fraction(1, 4)),
    )
    system = LinSystem(t, ("x",), eqs)
    assert unsatisfiable_mask(system, t).tolist() == [True, True, False, False]
    assert non_cubic_solve(system, t, Fraction(1, 2))["unsat_weight"] == Fraction(1, 2)


@pytest.mark.parametrize("other", ["z2_id", "z3_id", "s3_sign"])
def test_solvers_refuse_a_template_other_than_the_systems(other):
    # the constants would come from one template and the tables from another
    t = catalog.template("z4_to_z2")
    system = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(Fraction(1, 8)))
    wrong = catalog.template(other)
    for side in (1, 2):
        with pytest.raises(InvalidParams, match="differs from the system's template"):
            derandomize(system, wrong, side)
        with pytest.raises(InvalidParams, match="differs from the system's template"):
            random_expectation(system, wrong, side)
    with pytest.raises(InvalidParams, match="differs from the system's template"):
        non_cubic_solve(system, wrong, Fraction(1, 2))
    with pytest.raises(InvalidParams, match="differs from the system's template"):
        unsatisfiable_mask(system, wrong)


def test_solvers_take_an_equal_template_under_another_name():
    t = catalog.template("z4_to_z2")
    twin = validate_template(t.g1, t.g2, t.phi, "twin")
    system = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(Fraction(1, 8)))
    for side in (1, 2):
        assert derandomize(system, twin, side) == derandomize(system, t, side)
        assert random_expectation(system, twin, side) == random_expectation(system, t, side)
    assert non_cubic_solve(system, twin, Fraction(1, 2)) == non_cubic_solve(system, t, Fraction(1, 2))


@pytest.mark.parametrize("side", (1, 2))
def test_derandomize_scores_each_pattern_once(side, monkeypatch):
    t = catalog.template("s3_sign")
    system = build_system(catalog.label_cover("lc1"), t, ReductionParams(Fraction(1, 8)))
    scored = []
    hits = solvers._Patterns._hits

    def counting(self, slots, rhs):
        scored.extend(zip(map(tuple, slots.tolist()), rhs.tolist()))
        return hits(self, slots, rhs)

    monkeypatch.setattr(solvers._Patterns, "_hits", counting)
    derandomize(system, t, side)
    assert scored and len(scored) == len(set(scored))


def test_weights_past_int64_stay_exact():
    # the weights' common denominator is about 2^150, so scores are summed as
    # Python ints; x = 1 beats x = 2 by 1/p - 1/q only
    t = catalog.template("z3_id")
    p, q = 2**61 - 1, 2**89 - 1
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1, p)),
        LinEquation((("x", 1), ("z", 1), ("z", -1)), 2, Fraction(1, q)),
        LinEquation((("y", 1), ("z", 1), ("z", 1)), 0, 1 - Fraction(1, p) - Fraction(1, q)),
    ]
    system = make_system(t, eqs)
    for side in (1, 2):
        assignment = derandomize(system, t, side)
        assert assignment["x"] == 1
        assert assignment == ref.derandomize(system, t, side)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
