import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplin import (
    GroupPower,
    NoExtension,
    NoInverse,
    NotAssociative,
    fold,
    full_subgroup,
    identity_hom,
    make_group,
    make_homomorphism,
    subgroup,
    subgroup_closure,
    validate_template,
)
from grouplin import InvalidParams, catalog
from grouplin.groups import coset_arrays, cube_image
from grouplin.reduction import LinEquation
from grouplin.selftest import subgroup_pairs
from reference_groups import act, apply, index, inv, is_unsatisfiable_equation, mul



def perm_compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


S3_PERMS = [
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),
    (2, 0, 1),
]


def test_make_group_z2():
    g = make_group(["0", "1"], [[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inverses == (0, 1)


def test_make_group_s3_against_permutation_oracle():
    table = [
        [S3_PERMS.index(perm_compose(p, q)) for q in S3_PERMS] for p in S3_PERMS
    ]
    g = make_group(None, table, "s3")
    assert len(g) == 6
    assert g.identity == 0
    # catalog must agree with the oracle-built table
    assert catalog.group("s3").table == g.table


def test_make_group_rejects_missing_inverse():
    with pytest.raises(NoInverse):
        make_group(None, [[0, 1], [0, 1]])


def test_make_group_rejects_missing_identity():
    from grouplin import NoIdentity

    with pytest.raises(NoIdentity):
        make_group(None, [[1, 1], [1, 1]])


def test_make_group_rejects_broken_associativity():
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table[2][2] = 3  # identity row/column and inverse pairs untouched
    with pytest.raises(NotAssociative) as err:
        make_group(None, table)
    assert len(err.value.triple) == 3


def test_subgroup_closure_of_a_three_cycle():
    s3 = catalog.group("s3")
    rot = s3.elements.index("(123)")
    # oracle: repeated multiplication
    expected = {s3.identity}
    x = rot
    while x not in expected:
        expected.add(x)
        x = s3.mul(x, rot)
    sub = subgroup_closure(s3, [rot])
    assert set(sub.members) == expected
    assert len(sub) == 3


def test_subgroup_closure_empty_seeds_gives_identity():
    g = catalog.group("s3")
    assert subgroup_closure(g, []).members == (g.identity,)


def test_subgroup_closure_z4_order_two_element():
    z4 = catalog.group("z4")
    assert subgroup_closure(z4, [2]).members == (0, 2)


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=4))
@settings(max_examples=30, deadline=None)
def test_subgroup_closure_is_a_subgroup(seeds):
    g = catalog.group("s3")
    sub = subgroup_closure(g, seeds)
    members = set(sub.members)
    assert g.identity in members
    for a in members:
        assert g.inv(a) in members
        for b in members:
            assert g.mul(a, b) in members


def test_validate_template_identity_on_z2():
    z2 = catalog.group("z2")
    phi = make_homomorphism(full_subgroup(z2), z2, {0: 0, 1: 1})
    t = validate_template(z2, z2, phi)
    assert t.witness == (0, 1)


def test_validate_template_no_extension_z4_to_z2():
    z4, z2 = catalog.group("z4"), catalog.group("z2")
    # oracle: enumerate the two homomorphisms Z4 -> Z2 and check phi(2)=1 is
    # not realized by either
    homs = []
    for img in range(2):
        psi = [(img * x) % 2 for x in range(4)]
        if all(
            psi[z4.mul(a, b)] == z2.mul(psi[a], psi[b])
            for a in range(4)
            for b in range(4)
        ):
            homs.append(tuple(psi))
    assert all(psi[2] == 0 for psi in homs)
    phi = make_homomorphism(subgroup(z4, (0, 2)), z2, {0: 0, 2: 1})
    with pytest.raises(NoExtension):
        validate_template(z4, z2, phi)


def test_validate_template_no_extension_q8_center_to_z2():
    # a refused map is a fixture: Q8's centre {1, -1} -> Z2 with -1 -> 1
    q8, center = subgroup_pairs()["q8/center"]
    z2 = catalog.group("z2")
    minus_one, i = q8.elements.index("-1"), q8.elements.index("i")
    assert center.members == tuple(sorted((q8.identity, minus_one))) and q8.mul(i, i) == minus_one
    # oracle: enumerate every map Q8 -> Z2; each homomorphism sends
    # -1 = i^2 to the identity
    homs = [
        psi
        for psi in itertools.product(range(2), repeat=len(q8))
        if all(psi[q8.mul(a, b)] == z2.mul(psi[a], psi[b]) for a in range(len(q8)) for b in range(len(q8)))
    ]
    assert len(homs) == 4 and all(psi[minus_one] == z2.identity for psi in homs)
    phi = make_homomorphism(center, z2, {q8.identity: z2.identity, minus_one: 1})
    with pytest.raises(NoExtension):
        validate_template(q8, z2, phi)


def test_validate_template_sign_map():
    s3, z2 = catalog.group("s3"), catalog.group("z2")
    sign = {i: (0 if s3.elements[i] in ("e", "(123)", "(132)") else 1) for i in range(6)}
    # oracle: the sign table is a homomorphism
    for a in range(6):
        for b in range(6):
            assert sign[s3.mul(a, b)] == (sign[a] + sign[b]) % 2
    phi = make_homomorphism(full_subgroup(s3), z2, sign)
    t = validate_template(s3, z2, phi)
    assert t.witness == tuple(sign[i] for i in range(6))


def test_coset_data_full_group_z2():
    z2 = catalog.group("z2")
    power = GroupPower(z2, ["a", "b"])
    (rep,), (h,) = coset_arrays(full_subgroup(z2), power, [index(power, (1, 0))])
    assert power.coords(rep) == (0, 1)
    assert h == 1


def test_coset_data_trivial_subgroup():
    z4 = catalog.group("z4")
    power = GroupPower(z4, ["a"])
    from grouplin import trivial_subgroup

    for flat in range(power.n):
        (rep,), (h,) = coset_arrays(trivial_subgroup(z4), power, [flat])
        assert rep == flat and h == z4.identity


def test_coset_data_a3_on_a_transposition():
    s3 = catalog.group("s3")
    a3 = subgroup(s3, (0, 4, 5))
    power = GroupPower(s3, ["a"])
    g = s3.elements.index("(12)")
    # oracle: enumerate the whole coset A3*(12)
    coset = sorted(s3.mul(h, g) for h in a3.members)
    (rep,), (h,) = coset_arrays(a3, power, [g])
    assert rep == min(coset)
    assert s3.mul(h, g) == rep


def test_fold_z2_identity_template():
    z2 = catalog.group("z2")
    power = GroupPower(z2, ["a"])
    phi = identity_hom(full_subgroup(z2))
    folded = fold([0, 0], power, phi)
    assert list(folded) == [0, 1]


def test_fold_to_trivial_image_constant_on_cosets():
    z2 = catalog.group("z2")
    phi = make_homomorphism(full_subgroup(z2), z2, {0: 0, 1: 0})
    power = GroupPower(z2, ["a"])
    folded = fold([0, 1], power, phi)
    # both elements share one coset, so the folded table is constant
    assert folded[0] == folded[1]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fold_equivariance(seed):
    rng = np.random.default_rng(seed)
    t = catalog.template("s3_a3_incl")
    power = GroupPower(t.g1, ["a", "b"])
    table = rng.integers(0, 6, size=power.n)
    folded = fold(table, power, t.phi)
    for _ in range(20):
        g = int(rng.integers(power.n))
        h = int(rng.choice(t.h1.members))
        assert folded[act(power, h, g)] == t.g2.mul(apply(t.phi, h), int(folded[g]))


def test_coset_arrays_on_an_index_match_the_full_pass():
    t = catalog.template("s3_a3_incl")
    power = GroupPower(t.g1, ["a", "b"])
    rep, witness = coset_arrays(t.h1, power)
    index = np.random.default_rng(5).integers(power.n, size=50)  # repeats too
    part_rep, part_witness = coset_arrays(t.h1, power, index)
    assert np.array_equal(part_rep, rep[index])
    assert np.array_equal(part_witness, witness[index])


def test_fold_reuses_given_cosets():
    t = catalog.template("s3_sign")
    power = GroupPower(t.g1, ["a", "b"])
    table = np.random.default_rng(4).integers(0, 2, size=power.n)
    cosets = coset_arrays(t.phi.source, power)
    assert np.array_equal(fold(table, power, t.phi, cosets), fold(table, power, t.phi))


@pytest.mark.parametrize(
    "tname,expected",
    [("z2_id", True), ("z3_id", False), ("z4_to_z2", True), ("s3_sign", True)],
)
def test_is_cubic_examples(tname, expected):
    # every element of Im(phi) has a cube root in G2
    t = catalog.template(tname)
    assert (set(t.h2.members) <= cube_image(t.g2)) is expected


def test_s3_cube_image_misses_three_cycles():
    s3 = catalog.group("s3")
    cubes = {s3.cube(g) for g in range(6)}
    assert s3.elements.index("(123)") not in cubes


def test_unsatisfiable_equation_detection():
    t = catalog.template("z3_id")
    triple_x = lambda rhs: LinEquation((("x", 1), ("x", 1), ("x", 1)), rhs, 1)
    assert is_unsatisfiable_equation(triple_x(1), t)
    assert not is_unsatisfiable_equation(triple_x(0), t)
    distinct = LinEquation((("x", 1), ("y", 1), ("z", 1)), 1, 1)
    assert not is_unsatisfiable_equation(distinct, t)
    inverse_form = LinEquation((("x", -1), ("x", -1), ("x", -1)), 1, 1)
    assert is_unsatisfiable_equation(inverse_form, t)
    mixed = LinEquation((("x", 1), ("x", -1), ("x", 1)), 1, 1)
    assert not is_unsatisfiable_equation(mixed, t)


def test_group_power_flat_encoding_is_row_major():
    z4 = catalog.group("z4")
    power = GroupPower(z4, ["a", "b"])
    assert power.encode(np.array((1, 2))) == 6
    assert power.coords(6) == (1, 2)
    flats = [int(power.encode(np.array(c))) for c in itertools.product(range(4), repeat=2)]
    assert flats == sorted(flats) == [index(power, c) for c in itertools.product(range(4), repeat=2)]


def test_scalar_tuple_arithmetic_matches_the_array_kernels():
    power = GroupPower(catalog.group("s3"), ["a", "b"])
    every = np.arange(power.n)
    assert [index(power, c) for c in power.coords_matrix()] == every.tolist()
    assert [inv(power, i) for i in every] == power.inv_array().tolist()
    for i in every:
        assert [mul(power, i, j) for j in every] == power.mul_array(i, every).tolist()
    for h in range(len(power.group)):
        diagonal = power.encode(np.full(power.m, h))
        assert [act(power, h, i) for i in every] == power.mul_array(diagonal, every).tolist()


def test_subgroup_membership_and_homomorphism_lookup():
    t = catalog.template("s3_a3_incl")
    assert [x in t.h1.members for x in range(6)] == [True, False, False, False, True, True]
    assert [apply(t.phi, h) for h in t.h1.members] == [0, 4, 5]
    with pytest.raises(InvalidParams, match="outside the domain"):
        apply(t.phi, 1)


def test_catalog_builds_s4_once():
    assert catalog.group("s4") is catalog.group("S4")
