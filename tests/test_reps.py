import numpy as np
import pytest

from grouplin import (
    NonIntegerMultiplicity,
    eta,
    irreps,
    multiplicity,
    right_regular,
    subgroup,
    trivial_subgroup,
    UnitaryRep,
)
from grouplin import catalog, reps
from grouplin.selftest import GROUP_NAMES, subgroup_pairs

from checks import assert_checks


@pytest.fixture(scope="module")
def irrep_sets():
    return {name: irreps(catalog.group(name)) for name in GROUP_NAMES}


@pytest.mark.parametrize(
    "name,dims",
    [
        ("z2", (1, 1)),
        ("z3", (1, 1, 1)),
        ("s3", (1, 1, 2)),
        ("q8", (1, 1, 1, 1, 2)),
    ],
)
def test_irrep_dimensions(irrep_sets, name, dims):
    assert irrep_sets[name].dims() == dims


def test_s4_dimensions_from_class_count():
    iset = irreps(catalog.group("s4"))
    assert sorted(iset.dims()) == [1, 1, 2, 3, 3]
    assert sum(d * d for d in iset.dims()) == 24


def test_irreps_deterministic_given_seed():
    a = irreps(catalog.group("s3"), seed=5)
    b = reps._irreps.__wrapped__(catalog.group("s3"), 5, 1e-9)  # a fresh run
    for ra, rb in zip(a.irreps, b.irreps, strict=True):
        assert np.array_equal(ra.matrices, rb.matrices)


def test_irreps_are_memoized_and_read_only():
    s4 = catalog.group("s4")
    iset = irreps(s4)
    assert irreps(s4, seed=0, tol=1e-9) is iset
    assert irreps(s4, seed=1) is not iset
    for rep in iset.irreps:
        with pytest.raises(ValueError, match="read-only"):
            rep.matrices[0, 0, 0] = 2


def test_a_character_is_computed_once_per_rep_and_read_only():
    for rep in irreps(catalog.group("s4")).irreps:
        chi = rep.character()
        assert rep.character() is chi and not chi.flags.writeable
        expect = np.trace(rep.matrices, axis1=1, axis2=2)
        assert chi.dtype == expect.dtype and chi.tobytes() == expect.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            chi[0] = 0


def test_character_of_trivial_and_sign(irrep_sets):
    iset = irrep_sets["s3"]
    assert np.allclose(iset.irreps[0].character(), 1.0)
    s3 = catalog.group("s3")
    sign_chi = iset.irreps[1].character()
    assert sign_chi[s3.elements.index("(12)")] == pytest.approx(-1)
    two_dim = iset.irreps[2]
    assert two_dim.character()[s3.identity] == pytest.approx(2)


def test_multiplicity_of_irrep_in_itself(irrep_sets):
    for iset in irrep_sets.values():
        for rep in iset.irreps:
            assert multiplicity(rep, rep) == 1


def test_coset_representation_of_s3_over_a3(irrep_sets):
    s3 = catalog.group("s3")
    a3 = subgroup(s3, (0, 4, 5))
    rep = right_regular(s3, a3)
    assert rep.dim == 2
    # oracle: even permutations fix both cosets, odd ones swap them
    chi = rep.character()
    expected = [2 if i in (0, 4, 5) else 0 for i in range(6)]
    assert np.allclose(chi, expected)
    assert multiplicity(irrep_sets["s3"].irreps[0], rep) == 1


def test_right_regular_degenerate_subgroups():
    s3 = catalog.group("s3")
    full = right_regular(s3, subgroup(s3, range(6)))
    assert full.dim == 1 and np.allclose(full.matrices, 1.0)
    reg = right_regular(s3, trivial_subgroup(s3))
    assert reg.dim == 6
    assert reg.unitarity_residual() < 1e-12
    assert reg.homomorphism_residual() < 1e-12


def test_restriction_examples(irrep_sets):
    s3 = catalog.group("s3")
    a3 = subgroup(s3, (0, 4, 5))
    iset = irrep_sets["s3"]
    # a restriction to A3 is the matrices at its members
    members = list(a3.members)
    assert np.allclose(iset.irreps[0].matrices[members], 1.0)
    assert np.allclose(iset.irreps[1].matrices[members], 1.0)  # even permutations only
    two = iset.irreps[2]
    assert eta(two, a3) == 0
    # oracle: character of the restriction is (2, -1, -1)
    assert np.allclose(sorted(np.real(two.character()[members])), [-1, -1, 2])


def test_eta_trivial_is_one(irrep_sets):
    for name, iset in irrep_sets.items():
        g = catalog.group(name)
        h = trivial_subgroup(g)
        assert eta(iset.irreps[0], h) == 1


def test_eta_s3_over_a3(irrep_sets):
    s3 = catalog.group("s3")
    a3 = subgroup(s3, (0, 4, 5))
    iset = irrep_sets["s3"]
    assert eta(iset.irreps[1], a3) == 1
    assert eta(iset.irreps[2], a3) == 0


def test_eta_z4_over_even_subgroup(irrep_sets):
    z4 = catalog.group("z4")
    h = subgroup(z4, (0, 2))
    # oracle: eta = (1 + chi(2)) / 2 for each character
    for rep in irrep_sets["z4"].irreps:
        chi2 = complex(rep.character()[2])
        expected = int(round((1 + chi2.real) / 2))
        assert eta(rep, h) == expected


@pytest.mark.parametrize(
    "key,expected",
    [("s3/a3", 2), ("s3/<(12)>", 3), ("z4/{0,2}", 2), ("q8/center", 4)],
)
def test_induced_trivial_multiplicity_sum(key, expected):
    g, h = subgroup_pairs()[key]
    assert expected == len(g) // len(h)
    assert_checks(f"reps:induced-trivial-sum[{key}]")


def test_trace_and_product_tensor_identities(irrep_sets):
    # The random-matrix identities live in reps:tensor-trace; here they are
    # held on the library's own irreps: rho (x) sigma is a unitary rep whose
    # character is the product of characters. For S3, 2 (x) 2 = 1 + sign + 2.
    iset = irrep_sets["s3"]
    triv, sign, two = iset.irreps
    tensor = UnitaryRep(
        two.group, np.stack([np.kron(a, b) for a, b in zip(two.matrices, two.matrices)])
    )
    assert np.allclose(tensor.character(), two.character() ** 2, atol=1e-12)
    assert tensor.homomorphism_residual() < 1e-9
    assert tensor.unitarity_residual() < 1e-9
    assert [multiplicity(r, tensor) for r in (triv, sign, two)] == [1, 1, 1]


def test_irreps_rejects_bad_tolerance():
    from grouplin import InvalidParams

    with pytest.raises(InvalidParams):
        irreps(catalog.group("z2"), tol=1e-3)
    with pytest.raises(InvalidParams):
        irreps(catalog.group("z2"), tol=0)


def test_non_integer_multiplicity_guard(irrep_sets):
    iset = irrep_sets["s3"]
    broken = type(iset.irreps[2])(
        group=iset.irreps[2].group, matrices=iset.irreps[2].matrices * 1.1
    )
    with pytest.raises(NonIntegerMultiplicity):
        multiplicity(iset.irreps[2], broken)
