"""The side view of a system (``reduction.side_view``): on side 2, equations
whose G1 constants differ by an element of ker(phi) are one constraint, and
the solvers score each such group once. Grouped scores must equal the
per-equation reference loops in ``reference_solvers``."""

import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from grouplin import (
    ReductionParams,
    build_system,
    catalog,
    cli,
    derandomize,
    derandomized_value,
    evaluate,
    random_expectation,
    reduction,
    solvers,
)
from grouplin.reduction import LinEquation, LinSystem, side_tables, side_view
from test_solver_equivalence import S4_SIGN, _check_small_system, reweighed, small_systems

EPS = Fraction(1, 8)
DELTA = Fraction(1, 4)
TEMPLATES = sorted(catalog.templates())
# phi is injective on Dom(phi) on the other catalog templates
KERNEL_TEMPLATES = [catalog.template("s3_sign"), catalog.template("z4_to_z2"), S4_SIGN]


def kernel(template):
    """ker(phi), a subgroup of Dom(phi)."""
    return [a for a, b in template.phi.mapping if b == template.g2.identity]


def assert_entries(system, side):
    """Each view row's vector in ``_Counts`` (its row class's entries) is a
    Python count of its equations per weight class: the classes it has,
    ascending, each with its number of equations, in the smallest unsigned
    dtypes. Two rows share a row class exactly when their vectors are
    equal. Returns the vector per row."""
    enc, view = system.arrays, side_view(system, side)
    rows = len(view.rows(enc.rhs))
    group = range(rows) if view.group is None else view.group.tolist()
    expect = [{} for _ in range(rows)]
    for g, c in zip(group, enc.weight_class.tolist()):
        expect[g][c] = expect[g].get(c, 0) + 1
    expect = [sorted(e.items()) for e in expect]
    kept = solvers._counts(system, side)
    start = kept.vec_start.tolist()
    vectors = [list(zip(kept.vec_cls[a:b].tolist(), kept.vec_n[a:b].tolist())) for a, b in zip(start, start[1:])]
    got = [vectors[q] for q in kept.row_class.tolist()]
    assert got == expect
    assert max(sum(n for _, n in e) for e in expect) <= kept.most
    if view.group is None:  # the row classes are the system's weight classes
        assert kept.row_class is enc.weight_class and len(vectors) == len(enc.weights)
    else:
        assert len(vectors) == len(set(map(tuple, vectors)))
        assert kept.vec_cls.dtype == np.min_scalar_type(len(enc.weights))
        assert kept.vec_n.dtype == np.min_scalar_type(max(max(n for _, n in e) for e in expect))
        assert kept.row_class.dtype == np.min_scalar_type(len(vectors))
    return got


@st.composite
def kernel_copies(draw):
    """A small system whose equations each come with up to three copies
    differing only in the constant, multiplied on the left or the right by
    an element of ker(phi). Each equation's weight is split among its
    copies, and the rows are shuffled. Or, instead of the split weights,
    each row takes one of up to 64 weight classes drawn at random, some
    unused, so that a row's vector of counts per class can have more
    digits than one int64 holds."""
    system = draw(small_systems(KERNEL_TEMPLATES))
    t = system.template
    ker = kernel(t)
    rows = []
    for eq in system.equations:
        shifts = [t.g1.identity] + draw(st.lists(st.sampled_from(ker), max_size=3))
        parts = draw(st.lists(st.integers(1, 4), min_size=len(shifts), max_size=len(shifts)))
        for k, part in zip(shifts, parts):
            rhs = t.g1.mul(eq.rhs, k) if draw(st.booleans()) else t.g1.mul(k, eq.rhs)
            rows.append(LinEquation(eq.terms, rhs, eq.weight * Fraction(part, sum(parts))))
    split = LinSystem(t, system.variables, draw(st.permutations(rows)))
    n = draw(st.integers(0, 64))
    if n == 0:
        return split
    enc = split.arrays
    weight_class = draw(st.lists(st.integers(0, n - 1), min_size=len(enc), max_size=len(enc)))
    raw = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n, unique=True))
    total = sum(raw[c] for c in weight_class)
    weights = tuple(Fraction(r, total) for r in raw)
    arrays = reduction.SystemArrays(enc.var_ids, enc.signs, enc.rhs, np.array(weight_class), weights)
    return LinSystem.from_arrays(t, split.variables, arrays)


@settings(max_examples=100, deadline=None)
@given(system=kernel_copies(), data=st.data())
def test_kernel_copies_match_reference(system, data):
    for side in (1, 2):
        _check_small_system(system, side, data)
        assert_entries(system, side)


def _keys(system, side):
    """Per equation, its (variable ids, signs, side constant) as one row."""
    enc = system.arrays
    rhs = side_tables(system.template, side).rhs_map[enc.rhs]
    return np.concatenate([enc.var_ids, enc.signs, rhs[:, None]], axis=1)


@pytest.mark.parametrize(
    "tname, lc_name, rows",
    [("s3_sign", "lc1", 10368), ("z4_to_z2", "lc1", 2048), ("s3_sign", "lc_tiny", None)],
)
def test_side_two_groups_equations_equal_modulo_the_kernel(tname, lc_name, rows):
    t = catalog.template(tname)
    system = build_system(catalog.label_cover(lc_name), t, ReductionParams(EPS))
    keys = _keys(system, 2)
    distinct = len(np.unique(keys, axis=0))
    assert distinct < len(system.arrays)
    assert rows is None or distinct == rows
    view = side_view(system, 2)
    assert view.rep.dtype == view.group.dtype == np.int32
    assert len(view.rep) == distinct and len(view.group) == len(system.arrays)
    # each equation agrees with its group's rep, and each group is one key
    assert (keys == keys[view.rep][view.group]).all()
    assert np.array_equal(view.group[view.rep], np.arange(distinct))
    # each row's entries count its group's equations per weight class
    assert_entries(system, 2)


@pytest.mark.parametrize("tname", TEMPLATES)
def test_the_view_is_the_system_where_nothing_can_merge(tname):
    t = catalog.template(tname)
    system = build_system(catalog.label_cover("lc1"), t, ReductionParams(EPS))
    sides = (1, 2) if len(kernel(t)) == 1 else (1,)
    for side in sides:
        view = side_view(system, side)
        assert view.rep is None and view.group is None
        assert view.rows(system.arrays.rhs) is system.arrays.rhs


def test_rows_past_the_packed_int64_key_still_merge():
    # (v0, v1, v2, three sign bits, side constant) packs into n^3 * 8 * |G2|
    # values, past int64 for n >= 832,256 variables on a Z2 side; _codes
    # ranks the code there, so the view still merges, exactly as the small
    # system's does, and the solvers keep equal to the reference
    t = catalog.template("z4_to_z2")
    small = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(EPS))
    enc = small.arrays
    n = 832256
    assert n**3 * 16 >= 2**63 > (n - 1) ** 3 * 16
    # the top variable ids land in the code's highest digits
    arrays = reduction.SystemArrays(
        enc.var_ids + (n - 1 - enc.var_ids.max()), enc.signs, enc.rhs, enc.weight_class, enc.weights
    )
    system = LinSystem.from_arrays(t, [f"x{i}" for i in range(n)], arrays)
    view = side_view(system, 2)
    # groups are numbered in the order of the rows, a negative sign above
    # a positive one
    keys = [(*row[:3], *(-s for s in row[3:6]), row[6]) for row in _keys(system, 2).tolist()]
    groups = {key: g for g, key in enumerate(sorted(set(keys)))}
    assert view.group.tolist() == [groups[key] for key in keys]
    assert len(view.rep) < len(enc)
    assert np.array_equal(view.group, side_view(small, 2).group)
    assert random_expectation(system, t, 2) == ref.random_expectation(system, t, 2)
    # derandomize walks only the variables rows touch, the small system's
    # renamed; the reference scores every other one 0 and keeps Im(phi)'s
    # first element there, which is what its loop over all n would return
    assignment = derandomize(system, t, 2)
    offset = n - 1 - enc.var_ids.max()
    expect = dict.fromkeys(system.variables, t.h2.members[0])
    reference = ref.derandomize(small, t, 2)
    for i, x in enumerate(small.variables[: n - offset]):
        expect[f"x{i + offset}"] = reference[x]
    assert assignment == expect
    assert derandomized_value(system, t, 2) == evaluate(system, assignment, 2)


def test_python_int_numerators_are_summed_per_group():
    # z4_to_z2 maps 1 and 3 to 1, so on side 2 the first two equations are
    # one row. Denominators near 2^61, 2^89 and 2^107 push the scores past
    # int64; x = 1 wins side 2 by 1/s only, and x = 2 wins side 1.
    t = catalog.template("z4_to_z2")
    p, q, s = 2**61 - 1, 2**89 - 1, 2**107 - 1
    w = Fraction(1, p) + Fraction(1, q) - Fraction(1, s)
    eqs = [
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 1, Fraction(1, p)),
        LinEquation((("x", 1), ("y", 1), ("y", -1)), 3, Fraction(1, q)),
        LinEquation((("x", 1), ("z", 1), ("z", -1)), 2, w),
        LinEquation((("y", 1), ("z", 1), ("z", 1)), 0, 1 - Fraction(1, p) - Fraction(1, q) - w),
    ]
    system = LinSystem(t, ("x", "y", "z"), eqs)
    nums, _ = system.arrays.numerators
    assert max(nums) >= 2**63  # so the scores are Python ints
    assert len(side_view(system, 2).rep) == 3
    # the merged row counts both equations, one per weight class
    entries = assert_entries(system, 2)
    assert entries[side_view(system, 2).group[0]] == [(0, 1), (1, 1)]
    for side, x in ((1, 2), (2, 1)):
        assignment = derandomize(system, t, side)
        assert assignment["x"] == x
        assert assignment == ref.derandomize(system, t, side)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)


def assert_path_classes(system, side):
    """Each step of the kept path holds counts for exactly the row classes
    of the view rows touching its variable, ascending, one column per
    element of the constants subgroup."""
    enc, t = system.arrays, system.template
    width = len(t.h1 if side == 1 else t.h2)
    kept = solvers._counts(system, side)
    var_ids = side_view(system, side).rows(enc.var_ids)
    for x, row_class, counts in kept.path:
        touching = (var_ids == x).any(axis=1)
        assert row_class.tolist() == np.unique(kept.row_class[touching]).tolist()
        assert counts.shape == (len(row_class), width)


def test_many_weight_classes_keep_a_vector_per_row():
    # 70 distinct weights, in pairs one kernel element apart, and some
    # equations twice: the pairs merge on side 2, so a row has up to two
    # weight classes, and a class up to two equations in a row. Each path
    # step keeps the counts of the weight classes its rows have, so a warm
    # call with other weights weighs those per value and variable.
    t = catalog.template("z4_to_z2")
    rng = np.random.default_rng(5)
    names = [f"x{i}" for i in range(5)]
    eqs, total = [], 70 * 71 // 2 + 3 + 5
    for k in range(35):
        terms = tuple((names[int(rng.integers(5))], int(rng.choice((1, -1)))) for _ in range(3))
        rhs = int(rng.integers(4))
        eqs.append(LinEquation(terms, rhs, Fraction(2 * k + 1, total)))
        eqs.append(LinEquation(terms, (rhs + 2) % 4, Fraction(2 * k + 2, total)))
    eqs += eqs[2:6:2]  # weights 3/total and 5/total, twice each
    system = LinSystem(t, names, eqs)
    entries = assert_entries(system, 2)
    assert len(system.arrays.weights) == 70 and len(entries) < 70
    assert max(map(len, entries)) == 2 and max(n for row in entries for _, n in row) == 2
    used = np.bincount(system.arrays.weight_class).tolist()
    raw = [(37 * k) % 71 + 1 for k in range(70)]
    other = reweighed(system, [Fraction(r, sum(map(operator.mul, raw, used))) for r in raw])
    for side in (1, 2):
        for s in (system, other, system):
            assert derandomize(s, t, side) == ref.derandomize(s, t, side)
            assert random_expectation(s, t, side) == ref.random_expectation(s, t, side)
        assert_path_classes(system, side)


def test_rows_that_share_weight_classes_are_kept_per_weight_class():
    # s3_sign/lc_tiny with 45 weight classes drawn at random, so that many
    # side-2 rows have several classes. Each row's entries are its
    # equations' count per weight class, and each variable keeps one count
    # per weight class of its rows and value.
    t = catalog.template("s3_sign")
    built = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(EPS))
    enc = built.arrays
    weight_class = np.random.default_rng(11).integers(45, size=len(enc)).astype(np.int32)
    used = np.bincount(weight_class, minlength=45).tolist()
    raw = [(17 * k) % 47 + 1 for k in range(45)]
    total = sum(map(operator.mul, raw, used))
    arrays = reduction.SystemArrays(
        enc.var_ids, enc.signs, enc.rhs, weight_class, tuple(Fraction(r, total) for r in raw)
    )
    system = LinSystem.from_arrays(t, built.variables, arrays)
    for side in (1, 2):
        assert (max(map(len, assert_entries(system, side))) > 1) == (side == 2)
        assert derandomize(system, t, side) == ref.derandomize(system, t, side)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)
        assert_path_classes(system, side)
        # some step counts the rows of more than one row class
        assert max(len(q) for _, q, _ in solvers._counts(system, side).path) > 1


def test_memory_stays_linear_in_thousands_of_weight_classes():
    # 6,000 equations over 600 variables, each of its own weight, in pairs
    # one kernel element apart that merge on side 2. Entries, steps and
    # scratch grow with the equations, not with equations x classes: one
    # dense [equations x classes] byte array alone would take 36 MB.
    t = catalog.template("z4_to_z2")
    rng = np.random.default_rng(3)
    half, n_vars = 3000, 600
    var_ids = np.repeat(rng.integers(n_vars, size=(half, 3)), 2, axis=0).astype(np.int32)
    signs = np.repeat(rng.choice(np.array([-1, 1], dtype=np.int8), size=(half, 3)), 2, axis=0)
    rhs = np.repeat(rng.integers(4, size=half), 2)
    rhs[1::2] = (rhs[1::2] + 2) % 4  # 2 is ker(phi)'s other element
    m = 2 * half
    total = m * (m + 1) // 2
    arrays = reduction.SystemArrays(
        var_ids, signs, rhs.astype(np.int16), rng.permutation(m).astype(np.int32),
        tuple(Fraction(k + 1, total) for k in range(m)),
    )
    system = LinSystem.from_arrays(t, tuple(f"x{i}" for i in range(n_vars)), arrays)
    assert len(side_view(system, 2).rep) == half
    tracemalloc.start()
    try:
        for side in (1, 2):
            value = derandomized_value(system, t, side)
            expectation = random_expectation(system, t, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert value == evaluate(system, derandomize(system, t, 2), 2)
    assert expectation == ref.random_expectation(system, t, 2)


@pytest.mark.parametrize("tname", ("s3_sign", "z4_to_z2"))
def test_rows_counted_by_sorting_match_the_reference(tname, monkeypatch):
    # no dense grid, so every block is counted by sorting its pairs
    monkeypatch.setattr(solvers, "_DENSE_PER_ROW", 0)
    t = catalog.template(tname)
    system = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(EPS))
    for side in (1, 2):
        assert derandomize(system, t, side) == ref.derandomize(system, t, side)
        assert random_expectation(system, t, side) == ref.random_expectation(system, t, side)


def test_run_pipeline_groups_once_per_system_and_side(monkeypatch):
    reduction._support.cache_clear()
    views, sorts = [], []
    make_view, groups = reduction._side_view, reduction._groups

    def counting_view(system, side):
        views.append((system, side))
        return make_view(system, side)

    def counting_groups(key):
        sorts.append(len(key))
        return groups(key)

    monkeypatch.setattr(reduction, "_side_view", counting_view)
    monkeypatch.setattr(reduction, "_groups", counting_groups)
    t = catalog.template("s3_sign")
    cli.run_pipeline(catalog.label_cover("lc1"), t, EPS, DELTA)
    cli.run_pipeline(catalog.label_cover("lc1"), t, Fraction(3, 17), DELTA)
    # derandomize and random_expectation, at both eps, share one grouping of
    # side 2: the exact systems of one support share their side views
    assert [side for _, side in views] == [2] and sorts == [len(views[0][0].arrays)]
    system = views[0][0]
    assert side_view(system, 2) is side_view(system, 2)
    derandomize(system, t, 1)
    random_expectation(system, t, 1)
    assert [side for _, side in views] == [2, 1] and len(sorts) == 1
