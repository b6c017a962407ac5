import itertools
from fractions import Fraction

import numpy as np
import pytest

from grouplin import (
    GroupPower,
    InvalidParams,
    MatrixFn,
    ScalarFn,
    catalog,
    coeff,
    convolve,
    inverse,
    irreps,
    noise_apply,
    plancherel_gap,
    product_irreps,
    pullback,
    similar,
    transform,
)
from grouplin.errors import CapExceeded


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
    f = ScalarFn(power, np.array([a, b], dtype=complex))
    assert coeff(f, rhos[0], 0, 0) == pytest.approx((a + b) / 2)
    assert coeff(f, rhos[1], 0, 0) == pytest.approx((a - b) / 2)


def test_entry_function_coefficient_is_inverse_dimension(s3_setup):
    _, power, rhos = s3_setup
    two_dim = rhos[2]
    assert two_dim.dim == 2
    f = ScalarFn(power, two_dim.entry_table(power, 0, 1))
    assert coeff(f, two_dim, 0, 1) == pytest.approx(1 / 2)
    assert coeff(f, two_dim, 0, 0) == pytest.approx(0, abs=1e-12)


def test_constant_function_has_no_nontrivial_mass(s3_setup):
    _, power, rhos = s3_setup
    f = ScalarFn(power, np.ones(power.n, dtype=complex))
    for rho in rhos[1:]:
        for i, j in itertools.product(range(rho.dim), repeat=2):
            assert abs(coeff(f, rho, i, j)) < 1e-12


def test_inversion_of_a_delta(z2_setup):
    _, power, rhos = z2_setup
    f = ScalarFn(power, np.array([1.0, 0.0], dtype=complex))
    back = inverse(transform(f, rhos), rhos)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_roundtrip_over_z2_squared_is_tight():
    iset = irreps(catalog.group("z2"))
    power = GroupPower(iset.group, ["p0", "p1"])
    rhos = product_irreps(iset, power.labels)
    f = ScalarFn(power, np.array([1.0, -2.0, 0.5, 3.0], dtype=complex))
    back = inverse(transform(f, rhos), rhos)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_plancherel_examples(s3_setup):
    iset, power, rhos = s3_setup
    zero = ScalarFn(power, np.zeros(power.n, dtype=complex))
    assert plancherel_gap(zero, rhos) == 0
    ones = ScalarFn(power, np.ones(power.n, dtype=complex))
    assert plancherel_gap(ones, rhos) < 1e-12


def test_convolution_with_scaled_delta_is_identity(s3_setup):
    _, power, rhos = s3_setup
    rng = np.random.default_rng(1)
    f = MatrixFn(power, rng.standard_normal((power.n, 2, 2)).astype(complex))
    delta = np.zeros((power.n, 2, 2), dtype=complex)
    delta[power.identity_index] = power.n * np.eye(2)
    h = MatrixFn(power, delta)
    assert np.abs(convolve(f, h).values - f.values).max() < 1e-12


def test_two_point_convolution(z2_setup):
    _, power, _ = z2_setup
    f = ScalarFn(power, np.array([2.0, 5.0], dtype=complex))
    h = ScalarFn(power, np.array([-1.0, 3.0], dtype=complex))
    out = convolve(f, h)
    assert out.values[0] == pytest.approx((2 * -1 + 5 * 3) / 2)
    assert out.values[1] == pytest.approx((2 * 3 + 5 * -1) / 2)


def test_noise_on_constant_function_is_identity():
    iset = irreps(catalog.group("z3"))
    power = GroupPower(iset.group, ["p0", "p1"])
    f = ScalarFn(power, np.full(power.n, 2.5, dtype=complex))
    out = noise_apply(f, Fraction(1, 3))
    assert np.abs(out.values - f.values).max() < 1e-12


def test_noise_halves_the_sign_character(z2_setup):
    _, power, rhos = z2_setup
    sign = ScalarFn(power, rhos[1].entry_table(power, 0, 0))
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
    f = ScalarFn(power, np.zeros(power.n, dtype=complex))
    with pytest.raises(InvalidParams):
        noise_apply(f, Fraction(0))


def test_pullback_identity_map():
    iset = irreps(catalog.group("s3"))
    power = GroupPower(iset.group, ["d0"])
    rhos = product_irreps(iset, ["d0"])
    pb = pullback(rhos[2], {"d0": "d0"}, ["d0"])
    assert np.abs(pb.matrices(power) - rhos[2].matrices(power)).max() < 1e-12


def test_pullback_of_two_signs_is_constant():
    iset = irreps(catalog.group("z2"))
    pe = GroupPower(iset.group, ["e0"])
    rhos_d = product_irreps(iset, ["d0", "d1"])
    sign_sign = next(r for r in rhos_d if r.comps == (1, 1))
    pb = pullback(sign_sign, {"d0": "e0", "d1": "e0"}, ["e0"])
    assert np.abs(pb.entry_table(pe, 0, 0) - 1.0).max() < 1e-12


def test_similar_relation_and_orthogonality():
    iset = irreps(catalog.group("z2"))
    pe = GroupPower(iset.group, ["e0"])
    rhos_d = product_irreps(iset, ["d0", "d1"])
    rhos_e = product_irreps(iset, ["e0"])
    pi = {"d0": "e0", "d1": "e0"}
    trivial_e, sign_e = rhos_e
    assert all(similar(trivial_e, rho, pi) for rho in rhos_d)
    both_trivial = next(r for r in rhos_d if r.comps == (0, 0))
    sign_first = next(r for r in rhos_d if r.comps == (1, 0))
    assert not similar(sign_e, both_trivial, pi)
    assert similar(sign_e, sign_first, pi)
    assert sign_e.degree <= sign_first.degree
    # dissimilar pairs have orthogonal entries
    pb = pullback(both_trivial, pi, ["e0"])
    te = sign_e.entry_table(pe, 0, 0)
    ip = np.mean(te * np.conj(pb.entry_table(pe, 0, 0)))
    assert abs(ip) < 1e-12


def test_similar_implies_degree_bound():
    iset = irreps(catalog.group("s3"))
    rhos_d = product_irreps(iset, ["d0", "d1"])
    rhos_e = product_irreps(iset, ["e0", "e1"])
    pi = {"d0": "e0", "d1": "e1"}
    for tau in rhos_e:
        for rho in rhos_d:
            if similar(tau, rho, pi):
                assert tau.degree <= rho.degree


def test_power_cap_enforced():
    s3 = catalog.group("s3")
    with pytest.raises(CapExceeded):
        GroupPower(s3, [f"p{k}" for k in range(6)])


def test_inverse_requires_complete_table(s3_setup):
    from grouplin import FourierTable, IncompleteTable

    _, power, rhos = s3_setup
    f = ScalarFn(power, np.ones(power.n, dtype=complex))
    table = transform(f, rhos)
    partial = FourierTable(
        power, rhos[0].base, {rhos[0].comps: table.blocks[rhos[0].comps]}, None
    )
    with pytest.raises(IncompleteTable):
        inverse(partial, rhos)


def test_convolve_rejects_mismatched_operands(s3_setup, z2_setup):
    from grouplin import DimensionMismatch

    _, p_s3, _ = s3_setup
    _, p_z2, _ = z2_setup
    f = ScalarFn(p_s3, np.ones(p_s3.n, dtype=complex))
    h = ScalarFn(p_z2, np.ones(p_z2.n, dtype=complex))
    with pytest.raises(DimensionMismatch):
        convolve(f, h)
    g = MatrixFn(p_s3, np.ones((p_s3.n, 2, 2), dtype=complex))
    with pytest.raises(DimensionMismatch):
        convolve(f, g)


def test_coeff_rejects_wrong_power(s3_setup, z2_setup):
    from grouplin import DimensionMismatch

    _, p_s3, rhos_s3 = s3_setup
    _, p_z2, _ = z2_setup
    f = ScalarFn(p_z2, np.ones(p_z2.n, dtype=complex))
    with pytest.raises(DimensionMismatch):
        coeff(f, rhos_s3[0], 0, 0)
