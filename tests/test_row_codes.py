"""Equal rows are found one way (``reduction._codes``): one int64 per row of
small ints, equal exactly where the rows are equal and ascending in their
lexicographic order. ``_merge`` must equal the ``np.unique(axis=0)``
reference, array for array."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reduction as ref
from grouplin import ReductionParams, catalog, reduction
from test_support import parallel_instances


@st.composite
def columns(draw):
    """Columns of one length with sizes up to 2^32, so the code often passes
    int64 and is ranked; each column takes a few values, so rows repeat."""
    m = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 2**32), min_size=1, max_size=6))
    cols = []
    for size in sizes:
        pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
        cols.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)), dtype=np.int64))
    return cols, sizes


@settings(max_examples=300, deadline=None)
@given(case=columns())
def test_codes_number_and_order_rows_like_unique_rows(case):
    cols, sizes = case
    codes = reduction._codes(cols, sizes)
    assert codes.dtype == np.int64
    _, by_code = np.unique(codes, return_inverse=True)
    _, by_row = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    assert by_code.tolist() == by_row.reshape(-1).tolist()


def test_codes_rank_where_the_digits_pass_int64():
    # 2^32 * 2^32 passes int64, so the first column is ranked (big - 1 is
    # rank 1) before the second is appended
    big = 2**32
    cols = [np.array(c, dtype=np.int64) for c in ([big - 1, 0, big - 1], [big - 1, 5, 0], [1, 0, 1])]
    codes = reduction._codes(cols, [big, big, 2])
    assert codes.tolist() == [(2 * big - 1) * 2 + 1, 5 * 2, big * 2 + 1]


def assert_same_rows(got, expect):
    for name in ("var_ids", "signs", "rhs", "row_class", "class_counts"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=25, deadline=None)
@given(case=parallel_instances())
def test_merge_equals_the_reference_on_parallel_edges(case):
    t, lc, _ = case
    rows = reduction.support(lc, t).tuple_rows()
    merged = reduction._merge(rows)
    assert len(merged.rhs) < len(rows.rhs)
    assert_same_rows(merged, ref.merge(rows))


@settings(max_examples=20, deadline=None)
@given(
    tname=st.sampled_from(sorted(catalog.templates())),
    count=st.integers(1, 400),
    seed=st.integers(0, 2**16),
)
def test_merge_equals_the_reference_on_sampled_draws(tname, count, seed):
    t, lc = catalog.template(tname), catalog.label_cover("lc_tiny")
    params = ReductionParams(Fraction(1, 8), mode="sampled", sample_count=count, seed=seed)
    rows = reduction.support(lc, t).sampled_rows(params)
    assert_same_rows(reduction._merge(rows), ref.merge(rows))
