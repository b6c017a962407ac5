"""Finite groups given by Cayley tables, subgroups, homomorphisms, templates,
tuple arithmetic on direct powers, coset representatives, and folding."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceeded,
    InvalidParams,
    NoExtension,
    NoIdentity,
    NoInverse,
    NotAssociative,
    table_cap,
)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: element labels plus a validated Cayley table.

    Elements are identified by their index; labels are presentation only.
    ``table[i][j]`` is the index of ``e_i * e_j``.
    """

    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def cube(self, i: int) -> int:
        return self.table[self.table[i][i]][i]

    def element_order(self, i: int) -> int:
        x, n = i, 1
        while x != self.identity:
            x = self.table[x][i]
            n += 1
        return n


def make_group(elements, table, name: str = "group") -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Raises NoIdentity, NoInverse, or NotAssociative (naming the offending
    element or triple) when the table is not a group.
    """
    n = len(table)
    if elements is None:
        elements = [f"g{i}" for i in range(n)]
    if len(elements) != n:
        raise InvalidParams(f"{len(elements)} labels for a {n}x{n} table")
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (n, n):
        raise InvalidParams(f"table must be square, got shape {t.shape}")
    if n == 0:
        raise InvalidParams("empty table")
    if t.min() < 0 or t.max() >= n:
        raise InvalidParams("table entries out of range")

    identity = -1
    for i in range(n):
        if all(t[i, j] == j for j in range(n)):
            identity = i
            break
    if identity < 0:
        raise NoIdentity()

    inverses = []
    for i in range(n):
        inv = next(
            (j for j in range(n) if t[i, j] == identity and t[j, i] == identity),
            None,
        )
        if inv is None:
            raise NoInverse(i)
        inverses.append(inv)

    # (i*j)*k vs i*(j*k), exhaustively; fine for |G| <= 64
    left = t[t, :]
    right = t[:, t]
    if not np.array_equal(left, right):
        i, j, k = map(int, np.argwhere(left != right)[0])
        raise NotAssociative(i, j, k)
    if any(t[j, identity] != j for j in range(n)):
        raise NoIdentity()

    return FiniteGroup(
        name=name,
        elements=tuple(str(e) for e in elements),
        table=tuple(tuple(int(x) for x in row) for row in t),
        identity=identity,
        inverses=tuple(inverses),
    )


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` as a sorted set of element indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def subgroup(parent: FiniteGroup, members) -> Subgroup:
    """Wrap a member set as a Subgroup, checking the subgroup axioms."""
    ms = frozenset(int(m) for m in members)
    if parent.identity not in ms:
        raise InvalidParams("subgroup must contain the identity")
    for a in ms:
        if parent.inv(a) not in ms:
            raise InvalidParams(f"subgroup not closed under inverse: {a}")
        for b in ms:
            if parent.mul(a, b) not in ms:
                raise InvalidParams(f"subgroup not closed under product: ({a},{b})")
    return Subgroup(parent, tuple(sorted(ms)))


def subgroup_closure(group: FiniteGroup, seeds) -> Subgroup:
    """Least subgroup containing ``seeds``: closure under product and inverse."""
    members = {group.identity}
    frontier = [int(s) for s in seeds]
    for s in frontier:
        if not 0 <= s < len(group):
            raise InvalidParams(f"seed {s} out of range")
    while frontier:
        x = frontier.pop()
        if x in members:
            continue
        members.add(x)
        frontier.append(group.inv(x))
        # products against every element present at insertion time; later
        # insertions enqueue their products with x in turn
        for y in list(members):
            frontier.append(group.mul(x, y))
            frontier.append(group.mul(y, x))
    return Subgroup(group, tuple(sorted(members)))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(range(len(group))))


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism from a subgroup of one group into another group."""

    source: Subgroup
    target: FiniteGroup
    mapping: tuple[tuple[int, int], ...]  # (element of source, image in target)

    @property
    def image(self) -> Subgroup:
        return subgroup(self.target, {b for _, b in self.mapping})


def make_homomorphism(source: Subgroup, target: FiniteGroup, mapping) -> Homomorphism:
    """Validate ``mapping`` (element index -> element index) as a homomorphism."""
    m = {int(k): int(v) for k, v in dict(mapping).items()}
    if set(m) != set(source.members):
        raise InvalidParams("mapping must be defined exactly on the domain subgroup")
    for v in m.values():
        if not 0 <= v < len(target):
            raise InvalidParams(f"image {v} out of range")
    g1 = source.parent
    for a in source.members:
        for b in source.members:
            if m[g1.mul(a, b)] != target.mul(m[a], m[b]):
                raise InvalidParams(
                    f"not a homomorphism: phi({a}*{b}) != phi({a})*phi({b})"
                )
    return Homomorphism(source, target, tuple(sorted(m.items())))


def identity_hom(h: Subgroup) -> Homomorphism:
    """The identity map on ``h``, viewed into its parent group."""
    return Homomorphism(h, h.parent, tuple((m, m) for m in h.members))


@dataclass(frozen=True)
class Template:
    """Two groups and a subgroup homomorphism that extends to all of g1.

    ``h1`` is the domain of ``phi``, ``h2`` its image, and ``witness`` a full
    homomorphism g1 -> g2 agreeing with ``phi`` on ``h1``.
    """

    name: str
    g1: FiniteGroup
    g2: FiniteGroup
    phi: Homomorphism
    h1: Subgroup
    h2: Subgroup
    witness: tuple[int, ...]

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """Computed once, as hashing the groups' tables costs microseconds."""
        return hash((self.name, self.g1, self.g2, self.phi, self.h1, self.h2, self.witness))


def _generating_set(group: FiniteGroup) -> list[int]:
    gens: list[int] = []
    closure = {group.identity}
    while len(closure) < len(group):
        nxt = min(i for i in range(len(group)) if i not in closure)
        gens.append(nxt)
        closure = set(subgroup_closure(group, gens).members)
    return gens


def _words(group: FiniteGroup, gens: list[int]) -> list[tuple[int, ...]]:
    """A word over generator positions for every element, by BFS."""
    words: dict[int, tuple[int, ...]] = {group.identity: ()}
    queue = [group.identity]
    while queue:
        x = queue.pop(0)
        for k, g in enumerate(gens):
            y = group.mul(x, g)
            if y not in words:
                words[y] = words[x] + (k,)
                queue.append(y)
    if len(words) != len(group):
        raise InvalidParams("generating set does not generate")  # pragma: no cover
    return [words[i] for i in range(len(group))]


def validate_template(
    g1: FiniteGroup, g2: FiniteGroup, phi: Homomorphism, name: str = "template"
) -> Template:
    """Check that ``phi`` extends to a full homomorphism g1 -> g2.

    Searches images of a small generating set of g1 (pruned by element-order
    divisibility) in lexicographic order and returns the first witness found.
    Raises NoExtension when no extension exists.
    """
    if phi.source.parent is not g1 and phi.source.parent != g1:
        raise InvalidParams("phi's domain must be a subgroup of g1")
    if phi.target is not g2 and phi.target != g2:
        raise InvalidParams("phi must map into g2")
    phi_map = dict(phi.mapping)

    gens = _generating_set(g1)
    words = _words(g1, gens)
    orders1 = [g1.element_order(g) for g in gens]
    candidates = [
        [y for y in range(len(g2)) if g1order % g2.element_order(y) == 0]
        for g1order in orders1
    ]

    for images in itertools.product(*candidates):
        psi = []
        for w in words:
            x = g2.identity
            for k in w:
                x = g2.mul(x, images[k])
            psi.append(x)
        if any(psi[h] != phi_map[h] for h in phi.source.members):
            continue
        ok = all(
            psi[g1.mul(a, b)] == g2.mul(psi[a], psi[b])
            for a in range(len(g1))
            for b in range(len(g1))
        )
        if ok:
            return Template(
                name=name,
                g1=g1,
                g2=g2,
                phi=phi,
                h1=phi.source,
                h2=phi.image,
                witness=tuple(psi),
            )
    raise NoExtension(f"{name}: no full homomorphism extends phi")


class GroupPower:
    """The direct power ``G^D`` for an ordered index set ``D``.

    Tuples are flat-encoded in row-major order (first index most
    significant), so ordering flat indices is ordering tuples
    lexicographically under element-index order.
    """

    def __init__(self, group: FiniteGroup, labels):
        self.group = group
        self.labels = tuple(str(x) for x in labels)
        self.m = len(self.labels)
        if self.m == 0:
            raise InvalidParams("index set must be non-empty")
        self.n = len(group) ** self.m
        self.check_cap()
        base = len(group)
        self._weights = [base ** (self.m - 1 - k) for k in range(self.m)]
        idx = np.arange(self.n)
        self._coords = np.stack([(idx // w) % base for w in self._weights], axis=1)
        self._coords.flags.writeable = False  # coords_matrix() hands it to every caller
        self._table = np.asarray(group.table)

    def check_cap(self, limit: int | None = None) -> None:
        """Refuse the power when |G|^|D| exceeds the table cap (``limit``,
        read when not given). It runs on construction, and again wherever a
        kept power is reused, since the cap can change in between."""
        limit = table_cap() if limit is None else limit
        if self.n > limit:
            raise CapExceeded(
                f"|G|^|D| = {self.n} exceeds the table cap {limit}"
            )

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for w in self._weights:
            out.append(idx // w)
            idx %= w
        return tuple(out)

    def coords_matrix(self) -> np.ndarray:
        return self._coords

    def inv_array(self) -> np.ndarray:
        inv = np.asarray(self.group.inverses)
        return self.encode(inv[self.coords_matrix()])

    def mul_all_right(self, j: int) -> np.ndarray:
        """Flat indices of ``tuple(i) * tuple(j)`` for every i in order."""
        b = np.asarray(self.coords(j))
        return self.encode(self._table[self.coords_matrix(), b[None, :]])

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat indices of ``tuple(x) * tuple(y)``, elementwise over the
        broadcast of two arrays of flat indices."""
        return self.encode(self._table[self._coords[x], self._coords[y]])

    def encode(self, coords: np.ndarray) -> np.ndarray:
        w = np.asarray(self._weights)
        return coords @ w

    def compose_positions(self, pi: dict[str, str], e_labels) -> list[int]:
        """For each of our labels d, the position of pi(d) in ``e_labels``."""
        epos = {str(l): k for k, l in enumerate(e_labels)}
        out = []
        for d in self.labels:
            if d not in pi:
                raise InvalidParams(f"projection map misses label {d}")
            out.append(epos[str(pi[d])])
        return out


def coset_arrays(
    sub: Subgroup, power: GroupPower, index: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Right-coset data of the tuples ``index`` of ``power`` (all of them
    by default) under ``sub`` acting diagonally: ``rep[i]`` is the
    lexicographically least tuple of ``H*g`` for ``g = index[i]`` and
    ``witness[i]`` the h in H with ``rep[i] = h * g``.

    One vectorised pass over the |H| translates of the queried tuples; the
    witness is unique because h -> h*g is injective.
    """
    if sub.parent != power.group:
        raise InvalidParams("subgroup and power must share a group")
    index = np.arange(power.n) if index is None else np.asarray(index)
    members = np.asarray(sub.members)
    diagonal = power.encode(np.repeat(members[:, None], power.m, axis=1))
    translates = power.mul_array(diagonal[:, None], index[None, :])
    best = translates.argmin(axis=0)
    return translates[best, np.arange(len(index))], members[best]


def fold(values, power: GroupPower, phi: Homomorphism, cosets=None) -> np.ndarray:
    """Fold a table ``G1^N -> G2`` over ``phi``.

    The result f' satisfies f'(h*g) = phi(h) * f'(g) for every h in the
    domain subgroup. Folding is idempotent. ``cosets``, if given, is
    ``coset_arrays(phi.source, power)``, so that one coset pass serves
    several tables.
    """
    g2 = phi.target
    vals = np.asarray(values, dtype=np.int64)
    if vals.shape != (power.n,):
        raise InvalidParams(f"table must have {power.n} entries")
    rep, witness = coset_arrays(phi.source, power) if cosets is None else cosets
    phi_inv = np.zeros(len(power.group), dtype=np.int64)
    for h, image in phi.mapping:
        phi_inv[h] = g2.inv(image)
    return np.asarray(g2.table, dtype=np.int64)[phi_inv[witness], vals[rep]]


def cube_image(group: FiniteGroup) -> frozenset[int]:
    return frozenset(group.cube(g) for g in range(len(group)))

