"""Built-in groups, templates, and Label Cover fixtures.

Everything here is validated at construction, so loading the catalog is
itself a smoke test of the group machinery.
"""

from __future__ import annotations

import functools
import itertools

from .groups import (
    FiniteGroup,
    Template,
    full_subgroup,
    make_group,
    make_homomorphism,
    subgroup,
    validate_template,
)
from .reduction import LabelCoverInstance, make_label_cover


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return make_group([str(i) for i in range(n)], table, name or f"z{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    pairs = list(itertools.product(range(len(a)), range(len(b))))
    pos = {p: k for k, p in enumerate(pairs)}
    table = [
        [pos[(a.mul(x1, x2), b.mul(y1, y2))] for (x2, y2) in pairs]
        for (x1, y1) in pairs
    ]
    labels = [f"{a.elements[x]},{b.elements[y]}" for x, y in pairs]
    return make_group(labels, table, name or f"{a.name}x{b.name}")


def _perm_group(perms: list[tuple[int, ...]], labels: list[str], name: str) -> FiniteGroup:
    pos = {p: k for k, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[x]] for x in range(len(p)))] for q in perms]
        for p in perms
    ]
    return make_group(labels, table, name)


def symmetric3() -> FiniteGroup:
    perms = [
        (0, 1, 2),  # e
        (1, 0, 2),  # (12)
        (2, 1, 0),  # (13)
        (0, 2, 1),  # (23)
        (1, 2, 0),  # (123)
        (2, 0, 1),  # (132)
    ]
    labels = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return _perm_group(perms, labels, "s3")


def symmetric4() -> FiniteGroup:
    perms = list(itertools.permutations(range(4)))
    labels = ["".join(str(x) for x in p) for p in perms]
    return _perm_group(perms, labels, "s4")


def dihedral4() -> FiniteGroup:
    rot = (1, 2, 3, 0)
    ref = (0, 3, 2, 1)
    e = (0, 1, 2, 3)

    def compose(p, q):
        return tuple(p[q[x]] for x in range(4))

    perms, labels = [e], ["e"]
    r = e
    for k in range(1, 4):
        r = compose(rot, r)
        perms.append(r)
        labels.append(f"r{k}" if k > 1 else "r")
    for k, base in enumerate(perms[:4]):
        perms.append(compose(base, ref))
        labels.append("s" if k == 0 else f"r{k}s")
    return _perm_group(perms, labels, "d4")


def quaternion8() -> FiniteGroup:
    units = {
        "1": (1, 0, 0, 0),
        "-1": (-1, 0, 0, 0),
        "i": (0, 1, 0, 0),
        "-i": (0, -1, 0, 0),
        "j": (0, 0, 1, 0),
        "-j": (0, 0, -1, 0),
        "k": (0, 0, 0, 1),
        "-k": (0, 0, 0, -1),
    }
    names = list(units)
    vals = {v: k for k, v in units.items()}

    def qmul(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    table = [
        [names.index(vals[qmul(units[a], units[b])]) for b in names] for a in names
    ]
    return make_group(names, table, "q8")


@functools.lru_cache(maxsize=None)
def groups() -> dict[str, FiniteGroup]:
    return {
        "z2": cyclic(2),
        "z3": cyclic(3),
        "z4": cyclic(4),
        "z2xz2": direct_product(cyclic(2), cyclic(2), "z2xz2"),
        "s3": symmetric3(),
        "d4": dihedral4(),
        "q8": quaternion8(),
        "s4": symmetric4(),
    }


def group(name: str) -> FiniteGroup:
    name = name.lower()
    pool = groups()
    if name not in pool:
        raise KeyError(f"unknown catalog group {name!r}")
    return pool[name]


@functools.lru_cache(maxsize=None)
def templates() -> dict[str, Template]:
    z2, z3, z4, s3 = group("z2"), group("z3"), group("z4"), group("s3")

    z2_id = validate_template(
        z2, z2, make_homomorphism(full_subgroup(z2), z2, {0: 0, 1: 1}), "z2_id"
    )
    z3_id = validate_template(
        z3, z3, make_homomorphism(full_subgroup(z3), z3, {0: 0, 1: 1, 2: 2}), "z3_id"
    )
    z4_to_z2 = validate_template(
        z4,
        z2,
        make_homomorphism(full_subgroup(z4), z2, {x: x % 2 for x in range(4)}),
        "z4_to_z2",
    )
    sign = {0: 0, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0}
    s3_sign = validate_template(
        s3, z2, make_homomorphism(full_subgroup(s3), z2, sign), "s3_sign"
    )
    a3 = subgroup(s3, (0, 4, 5))
    s3_a3_incl = validate_template(
        s3, s3, make_homomorphism(a3, s3, {m: m for m in a3.members}), "s3_a3_incl"
    )
    return {
        "z2_id": z2_id,
        "z3_id": z3_id,
        "z4_to_z2": z4_to_z2,
        "s3_sign": s3_sign,
        "s3_a3_incl": s3_a3_incl,
    }


def template(name: str) -> Template:
    pool = templates()
    if name not in pool:
        raise KeyError(f"unknown catalog template {name!r}")
    return pool[name]


@functools.lru_cache(maxsize=None)
def label_covers() -> dict[str, LabelCoverInstance]:
    lc1 = make_label_cover(
        ["d0", "d1"],
        ["e0"],
        ["u0"],
        ["v0"],
        [("u0", "v0", {"d0": "e0", "d1": "e0"})],
    )
    lc2 = make_label_cover(
        ["d0", "d1"],
        ["e0", "e1"],
        ["u0", "u1"],
        ["v0"],
        [
            ("u0", "v0", {"d0": "e0", "d1": "e1"}),
            ("u1", "v0", {"d0": "e1", "d1": "e1"}),
        ],
    )
    lc_tiny = make_label_cover(
        ["d0"], ["e0"], ["u0"], ["v0"], [("u0", "v0", {"d0": "e0"})]
    )
    return {"lc1": lc1, "lc2": lc2, "lc_tiny": lc_tiny}


def label_cover(name: str) -> LabelCoverInstance:
    pool = label_covers()
    if name not in pool:
        raise KeyError(f"unknown catalog instance {name!r}")
    return pool[name]
