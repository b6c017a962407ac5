"""The per-axis Fourier kernel behind ``transform``, ``inverse``,
``noise_apply`` and ``convolve``, and the decoder expansions built on it,
against the per-representation and group-domain sums in ``reference_fourier``:
equal blocks, round trips, noise and convolution output and decoder
quantities to 1e-12."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fourier as ref
from grouplin import (
    AssignmentFamily,
    DimensionMismatch,
    FourierTable,
    GroupPower,
    IncompleteTable,
    MatrixFn,
    catalog,
    convolve,
    high_degree_mass,
    influence_probs,
    inverse,
    irreps,
    make_context,
    noise_apply,
    product_irreps,
    projection_family,
    transform,
    trivial_term_bound,
)
from grouplin.decoder import left_table, right_table
from grouplin.selftest import GROUP_NAMES

TOL = 1e-12
MAX_N = 2000
# every catalog group at every power with |G|^m <= MAX_N: S3^4, Q8^3, S4^2, ...
POWERS = [
    (name, m)
    for name in GROUP_NAMES
    for m in range(1, 12)
    if len(catalog.group(name)) ** m <= MAX_N
]
# the direct convolution sum is O(n^2), so it runs on the powers up to 600
CONV_POWERS = [(name, m) for name, m in POWERS if len(catalog.group(name)) ** m <= 600]
EPS = (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(7, 9))


@functools.cache
def setup(name, m):
    iset = irreps(catalog.group(name))
    power = GroupPower(iset.group, [f"p{k}" for k in range(m)])
    return power, product_irreps(iset, power.labels)


def random_fn(power, seed, size):
    rng = np.random.default_rng(seed)
    shape = (power.n, size, size)
    return MatrixFn(power, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def subset(rhos, seed):
    """A non-empty subset of ``rhos``, in their order."""
    keep = np.random.default_rng(seed).random(len(rhos)) < 0.5
    keep[seed % len(rhos)] = True
    return tuple(r for r, k in zip(rhos, keep) if k)


def gap(x, y) -> float:
    return float(np.abs(np.asarray(x) - np.asarray(y)).max())


def assert_same_blocks(got, want):
    assert list(got.blocks) == list(want.blocks)
    assert got.matrix_size == want.matrix_size and got.base is want.base
    for comps, block in want.blocks.items():
        assert got.blocks[comps].shape == block.shape
        assert gap(got.blocks[comps], block) <= TOL, comps


def test_powers_cover_the_non_abelian_cases():
    assert {("s3", 4), ("q8", 3), ("s4", 2), ("d4", 3), ("z2", 10)} <= set(POWERS)


@pytest.mark.parametrize("name,m", POWERS, ids=lambda x: str(x))
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from((1, 2)),
    eps=st.sampled_from(EPS),
)
def test_kernel_matches_reference(name, m, seed, size, eps):
    power, rhos = setup(name, m)
    fn = random_fn(power, seed, size)
    table = transform(fn, rhos)
    assert_same_blocks(table, ref.transform(fn, rhos))
    assert gap(inverse(table, rhos).values, fn.values) <= TOL
    assert gap(inverse(table, rhos).values, ref.inverse(table, rhos).values) <= TOL

    part = subset(rhos, seed)
    part_table = transform(fn, part)
    assert_same_blocks(part_table, ref.transform(fn, part))
    back = inverse(part_table, part)
    assert type(back) is type(fn)
    assert gap(back.values, ref.inverse(part_table, part).values) <= TOL

    noisy = noise_apply(fn, eps)
    assert type(noisy) is type(fn)
    assert gap(noisy.values, ref.noise_apply(fn, eps).values) <= TOL


@pytest.mark.parametrize("name,m", CONV_POWERS, ids=lambda x: str(x))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from((1, 2)))
def test_convolve_matches_direct_sum(name, m, seed, size):
    power, _ = setup(name, m)
    f, h = random_fn(power, seed, size), random_fn(power, seed + 1, size)
    got = convolve(f, h)
    assert type(got) is type(f) and got.power is power
    assert gap(got.values, ref.convolve(f, h).values) <= TOL


def test_errors_match_reference():
    power, rhos = setup("s3", 2)
    other, _ = setup("s3", 1)
    fn = random_fn(other, 0, 1)
    for impl in (transform, ref.transform):
        with pytest.raises(DimensionMismatch):
            impl(fn, rhos)
    table = transform(random_fn(power, 0, 2), rhos)
    partial = FourierTable(power, table.base, {rhos[0].comps: table.blocks[rhos[0].comps]}, 2)
    for impl in (inverse, ref.inverse):
        with pytest.raises(IncompleteTable):
            impl(partial, rhos)
        with pytest.raises(IncompleteTable):
            impl(table, rhos[1:])


def _contexts():
    out = []
    for tname in ("z2_id", "s3_sign", "s3_a3_incl"):
        t = catalog.template(tname)
        lc = catalog.label_cover("lc1")
        planted = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
        out.append((f"{tname}/planted", lc, t, planted))
        rng = np.random.default_rng(len(out))
        drawn = AssignmentFamily(
            2,
            *(
                {k: rng.integers(0, len(t.g2), size=len(x)) for k, x in tables.items()}
                for tables in (planted.a_tables, planted.b_tables)
            ),
        )
        out.append((f"{tname}/random", lc, t, drawn))
    return out


CONTEXTS = _contexts()


@pytest.fixture(scope="module", params=CONTEXTS, ids=lambda c: c[0])
def ctx(request):
    _, lc, t, fam = request.param
    return make_context(lc, t, Fraction(1, 8), Fraction(1, 4), fam)


def test_decoder_expansions_match_reference(ctx):
    for omega in ctx.g2_irreps.irreps[1:]:
        measured, _ = trivial_term_bound(ctx, omega)
        assert abs(measured - ref.trivial_term_sum(ctx, omega)) <= TOL
        for k in range(1, len(ctx.lc.d_labels) + 2):
            assert abs(high_degree_mass(ctx, omega, k) - ref.high_degree_mass(ctx, omega, k)) <= TOL
            for side, names, table, power, labels in (
                ("v", ctx.lc.v_names, right_table, ctx.pe, ctx.lc.e_labels),
                ("u", ctx.lc.u_names, left_table, ctx.pd, ctx.lc.d_labels),
            ):
                rhos = product_irreps(ctx.g1_irreps, labels)
                for name in names:
                    values = table(ctx, omega, name).values
                    for r in range(omega.dim):
                        for c in range(omega.dim):
                            got = influence_probs(ctx, omega, (side, name, r, c), k)
                            want = ref.influence_probs(ctx, values, power, rhos, labels, r, c, k)
                            assert list(got) == list(want)
                            assert max(abs(got[l] - want[l]) for l in want) <= TOL
