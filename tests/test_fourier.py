import itertools
from fractions import Fraction

import numpy as np
import pytest

from grouplin import (
    GroupPower,
    InvalidParams,
    MatrixFn,
    catalog,
    convolve,
    inverse,
    irreps,
    noise_apply,
    plancherel_gap,
    product_irreps,
    transform,
)
from grouplin.errors import CapExceeded
from reference_fourier import coeff, entry_table, scalar


@pytest.fixture(scope="module")
def s3_setup():
    iset = irreps(catalog.group("s3"))
    power = GroupPower(iset.group, ["p0"])
    return iset, power, product_irreps(iset, power.labels)


@pytest.fixture(scope="module")
def z2_setup():
    iset = irreps(catalog.group("z2"))
    power = GroupPower(iset.group, ["p0"])
    return iset, power, product_irreps(iset, power.labels)


def test_two_point_transform(z2_setup):
    _, power, rhos = z2_setup
    a, b = 0.7, -0.3
    f = scalar(power, np.array([a, b], dtype=complex))
    assert coeff(f, rhos[0], 0, 0) == pytest.approx((a + b) / 2)
    assert coeff(f, rhos[1], 0, 0) == pytest.approx((a - b) / 2)


def test_entry_function_coefficient_is_inverse_dimension(s3_setup):
    _, power, rhos = s3_setup
    two_dim = rhos[2]
    assert two_dim.dim == 2
    f = scalar(power, entry_table(two_dim, power, 0, 1))
    assert coeff(f, two_dim, 0, 1) == pytest.approx(1 / 2)
    assert coeff(f, two_dim, 0, 0) == pytest.approx(0, abs=1e-12)


def test_constant_function_has_no_nontrivial_mass(s3_setup):
    _, power, rhos = s3_setup
    f = scalar(power, np.ones(power.n, dtype=complex))
    for rho in rhos[1:]:
        for i, j in itertools.product(range(rho.dim), repeat=2):
            assert abs(coeff(f, rho, i, j)) < 1e-12


def test_inversion_of_a_delta(z2_setup):
    _, power, rhos = z2_setup
    f = scalar(power, np.array([1.0, 0.0], dtype=complex))
    back = inverse(transform(f, rhos), rhos)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_roundtrip_over_z2_squared_is_tight():
    iset = irreps(catalog.group("z2"))
    power = GroupPower(iset.group, ["p0", "p1"])
    rhos = product_irreps(iset, power.labels)
    f = scalar(power, np.array([1.0, -2.0, 0.5, 3.0], dtype=complex))
    back = inverse(transform(f, rhos), rhos)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_plancherel_examples(s3_setup):
    iset, power, rhos = s3_setup
    zero = scalar(power, np.zeros(power.n, dtype=complex))
    assert plancherel_gap(zero, rhos) == 0
    ones = scalar(power, np.ones(power.n, dtype=complex))
    assert plancherel_gap(ones, rhos) < 1e-12


def test_convolution_with_scaled_delta_is_identity(s3_setup):
    _, power, rhos = s3_setup
    rng = np.random.default_rng(1)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)).astype(complex))
    delta = np.zeros((power.n, 2, 2), dtype=complex)
    delta[power.group.identity] = power.n * np.eye(2)  # the identity tuple of G^1
    h = MatrixFn(power, delta)
    assert np.abs(convolve(f, h).values - f.values).max() < 1e-12


def test_two_point_convolution(z2_setup):
    _, power, _ = z2_setup
    f = scalar(power, np.array([2.0, 5.0], dtype=complex))
    h = scalar(power, np.array([-1.0, 3.0], dtype=complex))
    out = convolve(f, h)
    assert out.values[0] == pytest.approx((2 * -1 + 5 * 3) / 2)
    assert out.values[1] == pytest.approx((2 * 3 + 5 * -1) / 2)


def test_noise_on_constant_function_is_identity():
    iset = irreps(catalog.group("z3"))
    power = GroupPower(iset.group, ["p0", "p1"])
    f = scalar(power, np.full(power.n, 2.5, dtype=complex))
    out = noise_apply(f, Fraction(1, 3))
    assert np.abs(out.values - f.values).max() < 1e-12


def test_noise_halves_the_sign_character(z2_setup):
    _, power, rhos = z2_setup
    sign = scalar(power, entry_table(rhos[1], power, 0, 0))
    out = noise_apply(sign, Fraction(1, 2))
    assert np.abs(out.values - sign.values / 2).max() < 1e-12


def test_noise_on_matrix_functions():
    iset = irreps(catalog.group("s3"))
    power = GroupPower(iset.group, ["p0"])
    rhos = product_irreps(iset, power.labels)
    rng = np.random.default_rng(8)
    f = MatrixFn(power, rng.integers(-4, 4, size=(power.n, 2, 2)).astype(complex))
    eps = Fraction(1, 4)
    noisy = noise_apply(f, eps)
    for rho in rhos:
        got = coeff(noisy, rho, 0, 0)
        want = float(1 - eps) ** rho.degree * coeff(f, rho, 0, 0)
        assert np.abs(got - want).max() < 1e-12


def test_noise_rejects_bad_rate(z2_setup):
    _, power, _ = z2_setup
    f = scalar(power, np.zeros(power.n, dtype=complex))
    with pytest.raises(InvalidParams):
        noise_apply(f, Fraction(0))


def test_power_cap_enforced():
    s3 = catalog.group("s3")
    with pytest.raises(CapExceeded):
        GroupPower(s3, [f"p{k}" for k in range(6)])


def test_inverse_requires_complete_table(s3_setup):
    from grouplin import FourierTable, IncompleteTable

    _, power, rhos = s3_setup
    f = scalar(power, np.ones(power.n, dtype=complex))
    table = transform(f, rhos)
    partial = FourierTable(
        power, rhos[0].base, {rhos[0].comps: table.blocks[rhos[0].comps]}, 1
    )
    with pytest.raises(IncompleteTable):
        inverse(partial, rhos)


def test_convolve_rejects_mismatched_operands(s3_setup, z2_setup):
    from grouplin import DimensionMismatch

    _, p_s3, _ = s3_setup
    _, p_z2, _ = z2_setup
    f = scalar(p_s3, np.ones(p_s3.n, dtype=complex))
    h = scalar(p_z2, np.ones(p_z2.n, dtype=complex))
    with pytest.raises(DimensionMismatch):
        convolve(f, h)
    g = MatrixFn(p_s3, np.ones((p_s3.n, 2, 2), dtype=complex))
    with pytest.raises(DimensionMismatch):
        convolve(f, g)


def test_coeff_rejects_wrong_power(s3_setup, z2_setup):
    from grouplin import DimensionMismatch

    _, p_s3, rhos_s3 = s3_setup
    _, p_z2, _ = z2_setup
    f = scalar(p_z2, np.ones(p_z2.n, dtype=complex))
    with pytest.raises(DimensionMismatch):
        coeff(f, rhos_s3[0], 0, 0)
