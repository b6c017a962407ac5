from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from grouplin import (
    AssignmentFamily,
    CapExceeded,
    InvalidParams,
    MissingVariable,
    ReductionParams,
    build_system,
    catalog,
    evaluate,
    evaluate_family,
    family_assignment,
    lc_value,
    make_label_cover,
    payoff_distribution,
    projection_family,
)
from grouplin import reduction, selftest
from grouplin.groups import coset_arrays
from grouplin.reduction import LinEquation, LinSystem, _labeling_search, planted, support
from checks import assert_passes
from reference_groups import apply, pow_sign
from reference_reduction import raw_equations


@pytest.fixture(scope="module")
def z2_setup():
    return catalog.template("z2_id"), catalog.label_cover("lc1")


def test_raw_tuple_count(z2_setup):
    t, lc = z2_setup
    raw = list(raw_equations(lc, t, ReductionParams(Fraction(1, 2))))
    assert len(raw) == 128  # 1 edge * 2 * 4 * 4 * 4


def test_specific_tuple_weight(z2_setup):
    t, lc = z2_setup
    # the all-identity tuple with both signs positive: independent event
    # probabilities multiply to (1/2)(1/4)(3/4)^2(1/4)
    raw = list(raw_equations(lc, t, ReductionParams(Fraction(1, 2))))
    terms, rhs, w = raw[0]
    assert terms == (("v0[0]", 1), ("u0[0]", 1), ("u0[0]", 1))
    assert rhs == 0
    assert w == Fraction(1, 2) * Fraction(1, 4) * Fraction(9, 16) * Fraction(1, 4)
    assert w == Fraction(9, 512)


def test_zero_eps_rejected():
    with pytest.raises(InvalidParams):
        ReductionParams(Fraction(0))
    with pytest.raises(InvalidParams):
        ReductionParams(Fraction(1))


def test_generated_equations_structure():
    for tname in ("z2_id", "s3_sign"):
        t = catalog.template(tname)
        lc = catalog.label_cover("lc1")
        system = build_system(lc, t, ReductionParams(Fraction(1, 4)))
        for eq in system.equations:
            assert eq.terms[0][1] == 1
            assert eq.rhs in t.h1.members


def test_evaluate_single_equation():
    t = catalog.template("z2_id")
    eq = LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))
    system = LinSystem(t, ("x", "y", "z"), (eq,))
    assert evaluate(system, {"x": 0, "y": 0, "z": 0}, 1) == 1


def test_evaluate_contradictory_pair():
    t = catalog.template("z2_id")
    eqs = (
        LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1, 2)),
        LinEquation((("x", 1), ("y", 1), ("z", 1)), 1, Fraction(1, 2)),
    )
    system = LinSystem(t, ("x", "y", "z"), eqs)
    for combo in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        assignment = dict(zip("xyz", combo))
        assert evaluate(system, assignment, 1) == Fraction(1, 2)


def test_evaluate_missing_variable():
    t = catalog.template("z2_id")
    eq = LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1))
    system = LinSystem(t, ("x", "y", "z"), (eq,))
    with pytest.raises(MissingVariable):
        evaluate(system, {"x": 0, "y": 0}, 1)


def test_planted_family_value_is_exact(z2_setup):
    t, lc = z2_setup
    params = ReductionParams(Fraction(1, 4))
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    value = evaluate_family(lc, t, params, fam, side=1)
    assert value == Fraction(7, 8)
    assert value == 1 - Fraction(1, 4) * (1 - Fraction(1, 2))
    assert value >= 1 - Fraction(1, 4)


def test_planted_value_formula_across_templates():
    check = selftest.lookup("reduction:completeness-value")[0]
    for tname in ("z2_id", "z3_id", "s3_sign"):
        assert_passes(replace(check, name=f"completeness-value[{tname}]", args=(tname,)))


def test_merging_preserves_value(z2_setup):
    t, lc = z2_setup
    params = ReductionParams(Fraction(1, 4))
    system = build_system(lc, t, params)
    rng = np.random.default_rng(10)
    g = t.g1
    for _ in range(5):
        assignment = {x: int(rng.integers(2)) for x in system.variables}
        raw_val = Fraction(0)
        for terms, rhs, w in raw_equations(lc, t, params):
            acc = g.identity
            for var, s in terms:
                acc = g.mul(acc, pow_sign(g, assignment[var], s))
            if acc == rhs:
                raw_val += w
        assert raw_val == evaluate(system, assignment, 1)


def test_constant_identity_family_value(z2_setup):
    t, lc = z2_setup
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    fam = AssignmentFamily(
        2, {"v0": np.zeros(pe.n, dtype=int)}, {"u0": np.zeros(pd.n, dtype=int)}
    )
    value = evaluate_family(lc, t, ReductionParams(Fraction(1, 4)), fam, side=2)
    assert value == Fraction(1, 2)  # the folded table is the coset witness


def test_constant_identity_family_counts_identity_constants():
    # with every variable at the identity, the satisfied weight is exactly
    # the weight of equations whose pushed-through constant is the identity
    lc = catalog.label_cover("lc1")
    for tname in ("z2_id", "s3_sign"):
        t = catalog.template(tname)
        params = ReductionParams(Fraction(1, 4))
        system = build_system(lc, t, params)
        sup = support(lc, t)
        pe, pd = sup.pe, sup.pd
        fam = AssignmentFamily(
            2, {"v0": np.zeros(pe.n, dtype=int)}, {"u0": np.zeros(pd.n, dtype=int)}
        )
        value = evaluate_family(lc, t, params, fam, side=2)
        identity_weight = sum(
            (
                eq.weight
                for eq in system.equations
                if apply(t.phi, eq.rhs) == t.g2.identity
            ),
            Fraction(0),
        )
        assert value == identity_weight


def test_exact_mode_cap(z2_setup):
    t, lc = z2_setup
    with pytest.raises(CapExceeded):
        build_system(lc, t, ReductionParams(Fraction(1, 4), cap=10))


def test_payoff_counts_that_could_overflow_int64_are_refused(z2_setup):
    # 4 * 2^63 tuples on one edge could overflow a count, however high the
    # cap; 4 * 2^60 cannot
    _, lc = z2_setup
    power = SimpleNamespace(n=2**21, m=21)
    with pytest.raises(CapExceeded, match="overflow the int64 counts"):
        reduction._check_payoff_cap(lc, power, power, cap=2**80)
    reduction._check_payoff_cap(lc, SimpleNamespace(n=2**18, m=18), power, cap=2**80)


def test_exact_cap_is_checked_before_the_coset_pass(z2_setup, monkeypatch):
    t, lc = z2_setup

    def no_coset_pass(*args):
        raise AssertionError("coset pass before the cap check")

    monkeypatch.setattr(reduction, "coset_arrays", no_coset_pass)
    params = ReductionParams(Fraction(1, 4), cap=10)
    with pytest.raises(CapExceeded):
        build_system(lc, t, params)
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    with pytest.raises(CapExceeded):
        payoff_distribution(lc, t, params, fam, side=1)


def test_sampled_mode_looks_up_only_the_drawn_cosets(monkeypatch):
    t = catalog.template("s3_sign")
    lc = catalog.label_cover("lc1")
    queried = []

    def recording(sub, power, index=None):
        queried.append(None if index is None else len(index))
        return coset_arrays(sub, power, index)

    monkeypatch.setattr(reduction, "coset_arrays", recording)
    params = ReductionParams(Fraction(1, 4), mode="sampled", sample_count=7, seed=1)
    assert len(build_system(lc, t, params).arrays) <= 7
    assert queried == [7]


def test_lc_value_examples():
    lc1 = catalog.label_cover("lc1")
    assert lc_value(lc1, {"u0": "d0"}, {"v0": "e0"}) == 1
    lc2 = catalog.label_cover("lc2")
    assert lc_value(lc2, {"u0": "d1", "u1": "d0"}, {"v0": "e1"}) == 1
    assert lc_value(lc2, {"u0": "d0", "u1": "d0"}, {"v0": "e0"}) == Fraction(1, 2)
    assert lc_value(lc1, {"u0": "d0"}, {"v0": "e0"}) == 1


def test_mismatched_labels_give_zero():
    lc = make_label_cover(
        ["d0"], ["e0", "e1"], ["u0"], ["v0"], [("u0", "v0", {"d0": "e0"})]
    )
    assert lc_value(lc, {"u0": "d0"}, {"v0": "e1"}) == 0


def test_two_paths_agree_on_non_abelian_random_families():
    t = catalog.template("s3_a3_incl")
    rng = np.random.default_rng(21)
    for lc_name, trials in (("lc_tiny", 5), ("lc1", 2)):
        lc = catalog.label_cover(lc_name)
        params = ReductionParams(Fraction(1, 8))
        system = build_system(lc, t, params)
        sup = support(lc, t)
        pe, pd = sup.pe, sup.pd
        for _ in range(trials):
            fam = AssignmentFamily(
                2,
                {"v0": rng.integers(0, 6, size=pe.n)},
                {"u0": rng.integers(0, 6, size=pd.n)},
            )
            via_family = evaluate_family(lc, t, params, fam, side=2)
            via_system = evaluate(system, family_assignment(lc, t, fam), side=2)
            assert via_family == via_system


def test_witness_composed_family_counts_kernel_mass():
    # pushing the projection through the full homomorphism, the payoff picks
    # up every noise value that lands in the kernel
    t = catalog.template("z4_to_z2")
    lc = catalog.label_cover("lc1")
    eps = Fraction(1, 8)
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    value = evaluate_family(lc, t, ReductionParams(eps), fam, side=2)
    kernel = Fraction(2, 4)  # {0, 2} inside z4
    assert value == (1 - eps) + eps * kernel


def test_family_shape_validated():
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    bad = AssignmentFamily(2, {"v0": np.zeros(1, dtype=int)}, {"u0": np.zeros(4, dtype=int)})
    with pytest.raises(InvalidParams):
        evaluate_family(lc, t, ReductionParams(Fraction(1, 4)), bad, side=2)


@pytest.mark.parametrize("bad", [7, -1])
@pytest.mark.parametrize("table", ["a", "b"])
def test_family_values_validated(z2_setup, table, bad):
    t, lc = z2_setup
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    tables = {"a": dict(fam.a_tables), "b": dict(fam.b_tables)}
    name = next(iter(tables[table]))
    flat = tables[table][name]
    values = flat.copy()
    values[0] = bad
    cases = [
        (values, "outside"),
        # a table of the right length that is not flat is refused too
        (np.stack([flat, flat], axis=1), f"must have {len(flat)} entries"),
        # as are values that int64 would truncate back to the planted table
        (flat + 0.7, "float64 values, not integers"),
        (flat.astype(bool).tolist(), "bool values, not integers"),
        (flat.astype(object), "object values, not integers"),
    ]
    for value, message in cases:
        tables[table][name] = value
        with pytest.raises(InvalidParams, match=message):
            changed = AssignmentFamily(2, tables["a"], tables["b"])
            payoff_distribution(lc, t, ReductionParams(Fraction(1, 4)), changed, side=2)
        with pytest.raises(InvalidParams, match=message):
            family_assignment(lc, t, AssignmentFamily(2, tables["a"], tables["b"]))


def test_family_range_is_the_sides_group():
    # 2 is an element of Z4 (side 1) but not of Z2 (side 2)
    t, lc = catalog.template("z4_to_z2"), catalog.label_cover("lc_tiny")
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    tables = ({"v0": np.full(pe.n, 2)}, {"u0": np.zeros(pd.n, dtype=int)})
    family_assignment(lc, t, AssignmentFamily(1, *tables))
    with pytest.raises(InvalidParams, match="outside"):
        family_assignment(lc, t, AssignmentFamily(2, *tables))


def test_side2_interprets_constants_through_phi():
    t = catalog.template("z4_to_z2")
    eq = LinEquation((("x", 1), ("y", 1), ("z", 1)), 3, Fraction(1))
    system = LinSystem(t, ("x", "y", "z"), (eq,))
    # phi(3) = 1 in z2, so x+y+z must be odd on side 2
    assert evaluate(system, {"x": 1, "y": 0, "z": 0}, 2) == 1
    assert evaluate(system, {"x": 1, "y": 1, "z": 0}, 2) == 0
    # on side 1 the right-hand side stays 3 in z4
    assert evaluate(system, {"x": 1, "y": 1, "z": 1}, 1) == 1


@pytest.mark.parametrize("bad", [7, -1])
def test_evaluate_rejects_out_of_range_values(bad):
    t, lc = catalog.template("z4_to_z2"), catalog.label_cover("lc_tiny")
    system = build_system(lc, t, ReductionParams(Fraction(1, 4)))
    assignment = dict.fromkeys(system.variables, 0)
    assignment[system.variables[-1]] = bad
    for side in (1, 2):
        with pytest.raises(InvalidParams, match="outside"):
            evaluate(system, assignment, side)


def test_evaluate_range_is_the_sides_group():
    # 2 is an element of Z4 (side 1) but not of Z2 (side 2)
    t = catalog.template("z4_to_z2")
    eq = LinEquation((("x", 1), ("y", 1), ("z", 1)), 2, Fraction(1))
    system = LinSystem(t, ("x", "y", "z"), (eq,))
    assert evaluate(system, {"x": 2, "y": 0, "z": 0}, 1) == 1
    with pytest.raises(InvalidParams):
        evaluate(system, {"x": 2, "y": 0, "z": 0}, 2)


def test_system_rejects_repeated_variable_names():
    t = catalog.template("z2_id")
    eq = LinEquation((("x", 1), ("y", 1), ("y", 1)), 0, Fraction(1))
    with pytest.raises(InvalidParams, match="distinct"):
        LinSystem(t, ("x", "y", "x"), (eq,))


def test_system_arrays_encode_equations():
    t = catalog.template("s3_sign")
    eqs = (
        LinEquation((("y", 1), ("x", -1), ("y", 1)), 4, Fraction(1, 3)),
        LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1, 3)),
        LinEquation((("x", -1), ("y", 1), ("x", 1)), 0, Fraction(2, 6)),
    )
    enc = LinSystem(t, ("x", "y", "unused"), eqs).arrays
    assert enc.var_ids.tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
    assert enc.signs.tolist() == [[1, -1, 1], [1, 1, 1], [-1, 1, 1]]
    assert enc.rhs.tolist() == [4, 1, 0]
    assert enc.weight_class.tolist() == [0, 0, 0]
    assert enc.weights == (Fraction(1, 3),)
    assert enc.weigh([3]) == 1


def test_best_labeling_is_the_first_optimum():
    lc2 = catalog.label_cover("lc2")
    assert _labeling_search(lc2) == (1, {"u0": "d1", "u1": "d0"}, {"v0": "e1"})
    # every labeling of lc_tiny satisfies its one edge: the first one wins
    assert _labeling_search(catalog.label_cover("lc_tiny")) == (1, {"u0": "d0"}, {"v0": "e0"})


def test_best_labeling_cap_counts_labelings_times_edges(monkeypatch):
    lc2 = catalog.label_cover("lc2")  # 2^2 * 2^1 labelings, 2 edges
    t = catalog.template("z2_id")
    monkeypatch.setenv("GROUPLIN_CAP", "15")
    with pytest.raises(CapExceeded, match="8 labelings x 2 edges = 16"):
        planted(lc2, t)
    monkeypatch.setenv("GROUPLIN_CAP", "16")
    assert planted(lc2, t)[0] == 1
