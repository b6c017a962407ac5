"""Label Cover instances, the gadget reduction to weighted 3-variable group
equations, and exact payoff evaluation on either side of a template."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import CapExceeded, InvalidParams, MissingVariable, enum_cap, read_caps
from .groups import (
    FiniteGroup,
    GroupPower,
    Subgroup,
    Template,
    coset_arrays,
    identity_hom,
    fold,
)


# Equations per block in the kernels that run over a system's encoding: their
# scratch memory (under 1 MB a block) stays small next to the system itself.
EQUATION_BLOCK = 16384

# Supports kept at once (``support``): the last (instance, template) pair, as
# an eps sweep solves one pair again and again. A kept support holds its exact
# encoding with both side views, their incidence and the solvers' hit counts,
# about 60 bytes per equation on s3_a3_incl/lc2 after both solvers ran on both
# sides (22 MB for 373,248 equations), so at most 120 MB at the 2M tuple cap.
SUPPORT_CACHE = 1


@dataclass(frozen=True)
class LabelCoverInstance:
    """A bipartite constraint graph with one projection D -> E per edge."""

    d_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
    edges: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]

    def __post_init__(self):
        if not self.edges:
            raise InvalidParams("instance needs at least one edge")
        for key, names in (("D", self.d_labels), ("E", self.e_labels), ("U", self.u_names), ("V", self.v_names)):
            if len(set(names)) != len(names):
                repeated = next(x for x in names if names.count(x) > 1)
                raise InvalidParams(f"{repeated} appears more than once in {key}")
        if set(self.d_labels) & set(self.e_labels):
            raise InvalidParams("label sets must be disjoint")
        if set(self.u_names) & set(self.v_names):
            raise InvalidParams("vertex names must be disjoint across sides")
        for u, v, pi in self.edges:
            if u not in self.u_names or v not in self.v_names:
                raise InvalidParams(f"edge ({u},{v}) has an unknown endpoint")
            pid = dict(pi)
            if set(pid) != set(self.d_labels):
                raise InvalidParams(f"edge ({u},{v}): projection not total on D")
            if not set(pid.values()) <= set(self.e_labels):
                raise InvalidParams(f"edge ({u},{v}): projection maps outside E")

    def edge_maps(self) -> list[tuple[str, str, dict[str, str]]]:
        return [(u, v, dict(pi)) for u, v, pi in self.edges]


def make_label_cover(d_labels, e_labels, u_names, v_names, edges) -> LabelCoverInstance:
    return LabelCoverInstance(
        tuple(str(x) for x in d_labels),
        tuple(str(x) for x in e_labels),
        tuple(str(x) for x in u_names),
        tuple(str(x) for x in v_names),
        tuple(
            (str(u), str(v), tuple(sorted((str(k), str(w)) for k, w in dict(pi).items())))
            for u, v, pi in edges
        ),
    )


@dataclass(frozen=True)
class LinEquation:
    """Three signed variable occurrences equal to a constant in Dom(phi)."""

    terms: tuple[tuple[str, int], ...]
    rhs: int
    weight: Fraction

    def __post_init__(self):
        if len(self.terms) != 3:
            raise InvalidParams("an equation has exactly three terms")
        for _, s in self.terms:
            if s not in (-1, 1):
                raise InvalidParams(f"exponent must be +-1, got {s}")
        if self.weight < 0:
            raise InvalidParams("weights must be non-negative")


class LinSystem:
    """A weighted equation system over a template; weights sum to one.

    The system is its integer encoding ``arrays``, which the solvers and
    ``evaluate`` run on; ``equations`` decodes it on first use.
    ``LinSystem(template, variables, equations)`` encodes hand-built
    equations and ``LinSystem.from_arrays`` takes an encoding as it is; both
    validate it in full and count ``class_totals``, the equations per weight
    class; ``reweighed`` checks only its new weights. ``side_view`` memoizes
    each side's grouping in ``_side_views``, which a reweighed system shares.
    """

    def __init__(self, template: Template, variables, equations):
        variables, equations = tuple(variables), tuple(equations)
        self._set(template, variables, _encode(variables, equations))
        self.__dict__["equations"] = equations

    @classmethod
    def from_arrays(cls, template: Template, variables, arrays: SystemArrays) -> LinSystem:
        system = cls.__new__(cls)
        system._set(template, tuple(variables), arrays)
        return system

    def _set(self, template, variables, arrays):
        """Take the encoding as the system's, once its variables, rows,
        weight classes and weights pass their checks."""
        _validate_rows(template, variables, arrays)
        self.class_totals = _read_only(_class_totals(arrays))
        _validate_weights(arrays, self.class_totals)
        self.template = template
        self.variables = variables
        self.arrays = SystemArrays(
            arrays.var_ids.astype(np.int32, copy=False),
            arrays.signs.astype(np.int8, copy=False),
            arrays.rhs.astype(np.int16, copy=False),
            arrays.weight_class.astype(np.int32, copy=False),
            tuple(arrays.weights),
        )
        self.arrays.__dict__["numerators"] = arrays.numerators  # as checked
        self._side_views: dict[int, SideView] = {}

    def reweighed(self, nums, denom: int) -> LinSystem:
        """The same equations, variables and weight classes, class k
        weighing ``nums[k] / denom``. Only the weights are checked, over the
        class totals counted when this system was validated; the new system
        shares this one's side views, and so the solvers' kept counts."""
        if denom <= 0:
            raise InvalidParams(f"the weights' denominator must be positive, got {denom}")
        enc = self.arrays
        arrays = SystemArrays(enc.var_ids, enc.signs, enc.rhs, enc.weight_class, tuple(Fraction(n, denom) for n in nums))
        arrays.__dict__["numerators"] = list(nums), denom
        _validate_weights(arrays, self.class_totals)
        system = LinSystem.__new__(LinSystem)
        system.template, system.variables, system.arrays = self.template, self.variables, arrays
        system.class_totals, system._side_views = self.class_totals, self._side_views
        return system

    @functools.cached_property
    def equations(self) -> tuple[LinEquation, ...]:
        enc, names = self.arrays, self.variables
        return tuple(
            LinEquation(
                ((names[x], s), (names[y], t), (names[z], r)), h, enc.weights[c]
            )
            for (x, y, z), (s, t, r), h, c in zip(
                enc.var_ids.tolist(),
                enc.signs.tolist(),
                enc.rhs.tolist(),
                enc.weight_class.tolist(),
            )
        )


def _encode(variables: tuple[str, ...], equations: tuple[LinEquation, ...]) -> SystemArrays:
    """The encoding of hand-built equations; weight classes in order of
    first occurrence."""
    index = {v: k for k, v in enumerate(variables)}
    m = len(equations)
    names = [v for eq in equations for v, _ in eq.terms]
    for v in names:
        if v not in index:
            raise InvalidParams(f"equation uses unknown variable {v}")
    # weight classes are keyed on (num, den): hashing Fractions is slower
    classes: dict[tuple[int, int], int] = {}
    wcls = (
        classes.setdefault((eq.weight.numerator, eq.weight.denominator), len(classes))
        for eq in equations
    )
    return SystemArrays(
        var_ids=np.fromiter((index[v] for v in names), np.int64, 3 * m).reshape(m, 3),
        signs=np.fromiter((s for eq in equations for _, s in eq.terms), np.int64, 3 * m).reshape(m, 3),
        rhs=np.fromiter((eq.rhs for eq in equations), np.int64, m),
        weight_class=np.fromiter(wcls, np.int64, m),
        weights=tuple(Fraction(*key) for key in classes),
    )


def _validate_rows(template: Template, variables: tuple[str, ...], rows) -> None:
    """The checks on a system's variables and on the terms and constants of
    its rows, vectorised over the rows."""
    if len(set(variables)) != len(variables):
        raise InvalidParams("variable names must be distinct")
    m, n_vars = len(rows.rhs), len(variables)
    if rows.var_ids.shape != (m, 3) or rows.signs.shape != (m, 3):
        raise InvalidParams("an equation has exactly three terms")
    if m and not 0 <= rows.var_ids.min() <= rows.var_ids.max() < n_vars:
        raise InvalidParams(f"variable ids must lie in 0..{n_vars - 1}")
    bad_sign = (rows.signs != 1) & (rows.signs != -1)
    if bad_sign.any():
        raise InvalidParams(f"exponent must be +-1, got {rows.signs[bad_sign][0]}")
    in_dom = np.zeros(len(template.g1), dtype=bool)
    in_dom[list(template.h1.members)] = True
    inside = (rows.rhs >= 0) & (rows.rhs < len(in_dom))
    inside[inside] = in_dom[rows.rhs[inside]]
    if not inside.all():
        raise InvalidParams(f"rhs {rows.rhs[~inside][0]} outside Dom(phi)")


def _class_totals(enc: SystemArrays) -> np.ndarray:
    """The equations per weight class, after the checks on the classes: one
    per equation, in range."""
    m = len(enc.rhs)
    if enc.weight_class.shape != (m,):
        raise InvalidParams("one weight class per equation")
    if m and not 0 <= enc.weight_class.min() <= enc.weight_class.max() < len(enc.weights):
        raise InvalidParams("weight class out of range")
    return np.bincount(enc.weight_class, minlength=len(enc.weights))


def _validate_weights(enc: SystemArrays, class_totals) -> None:
    """The checks on a system's weights, on their integer numerators:
    non-negative, and summing to exactly 1 over ``class_totals``, the
    equations per weight class."""
    nums, denom = enc.numerators
    if len(nums) != len(class_totals):
        raise InvalidParams(f"{len(nums)} weights for {len(class_totals)} weight classes")
    if any(n < 0 for n in nums):
        raise InvalidParams("weights must be non-negative")
    if sum(map(operator.mul, nums, class_totals.tolist())) != denom:
        raise InvalidParams(f"weights sum to {enc.weigh(class_totals)}, not 1")


@dataclass(frozen=True, eq=False)
class SystemArrays:
    """A side-independent integer view of a system: equation ``e`` reads
    ``prod_j var_ids[e, j] ** signs[e, j] = rhs[e]`` (``rhs`` in G1) with
    weight ``weights[weight_class[e]]``. Weights stay exact ``Fraction``s;
    kernels count hits per weight class and weigh the counts at the end."""

    var_ids: np.ndarray       # int32 [m, 3], positions in LinSystem.variables
    signs: np.ndarray         # int8 [m, 3], +1 or -1
    rhs: np.ndarray           # int16 [m], an element of Dom(phi) in G1
    weight_class: np.ndarray  # int32 [m], index into ``weights``
    weights: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.rhs)

    def weigh(self, counts) -> Fraction:
        """Sum over weight classes of weight times count, exactly."""
        nums, denom = self.numerators
        return Fraction(sum(n * int(c) for n, c in zip(nums, counts)), denom)

    @functools.cached_property
    def numerators(self) -> tuple[list[int], int]:
        """The weights times their common denominator, and that denominator."""
        denom = math.lcm(*(w.denominator for w in self.weights))
        return [w.numerator * (denom // w.denominator) for w in self.weights], denom


@dataclass(frozen=True, eq=False)
class SideTables:
    """One side of a template as int arrays: the group's Cayley table and
    inverses, and the map of G1 right-hand sides into it (identity on side
    1, phi on side 2)."""

    group: FiniteGroup
    table: np.ndarray     # [n, n]
    inverses: np.ndarray  # [n]
    rhs_map: np.ndarray   # [|G1|], -1 outside Dom(phi)

    def term_values(self, values: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """``values ** signs`` elementwise, for signs in {+1, -1}."""
        return np.where(signs < 0, self.inverses[values], values)

    def products(self, t0, t1, t2) -> np.ndarray:
        """``t0 * t1 * t2`` elementwise, through the Cayley table."""
        return self.table[self.table[t0, t1], t2]


@functools.lru_cache(maxsize=16)  # per (template, side); the arrays are read-only
def side_tables(template: Template, side: int) -> SideTables:
    if side not in (1, 2):
        raise InvalidParams("side must be 1 or 2")
    group = template.g1 if side == 1 else template.g2
    rhs_map = np.full(len(template.g1), -1, dtype=np.int16)
    for a, b in template.phi.mapping:
        rhs_map[a] = a if side == 1 else b
    return SideTables(
        group,
        _read_only(np.array(group.table, dtype=np.int16)),
        _read_only(np.array(group.inverses, dtype=np.int16)),
        _read_only(rhs_map),
    )


@dataclass(frozen=True, eq=False)
class SideView:
    """A system's equations as one side sees them. Equations whose variable
    ids, signs and side constant (``rhs_map[rhs]``) agree are one constraint
    there: they form a group, scored once. Groups ascend in their ``_codes``;
    ``rep`` holds one equation of each group, ``group`` each equation's, and
    ``order`` the equations group by group. All three are None when the
    view is the system as it is. ``memo`` keeps what the solvers derive
    from the view's rows, such as their incidence and their hit counts per
    weight class, for as long as the view lives."""

    rep: np.ndarray | None    # int32 [g]
    group: np.ndarray | None  # int32 [m]
    order: np.ndarray | None  # int32 [m]
    memo: dict = field(default_factory=dict, repr=False)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """Per-equation ``values`` at each group's equation ``rep``."""
        return values if self.rep is None else values.take(self.rep, axis=0)


def side_view(system: LinSystem, side: int) -> SideView:
    """The side's view of the system, computed once per (system, side) and
    shared by the systems reweighed from it (``LinSystem.reweighed``)."""
    views = system._side_views
    if side not in views:
        views[side] = _side_view(system, side)
    return views[side]


def _side_view(system: LinSystem, side: int) -> SideView:
    """Equations with equal (variable ids, signs, side constant) grouped,
    through the rows' ``_codes``. Nothing can merge where phi is injective
    on Dom(phi), so the system is its own view there (always on side 1)."""
    tables = side_tables(system.template, side)
    dom = list(system.template.h1.members)
    if len(set(tables.rhs_map[dom].tolist())) == len(dom):
        return SideView(None, None, None)
    enc = system.arrays
    columns, sizes = _row_columns(enc, tables.rhs_map[enc.rhs], len(system.variables), len(tables.group))
    return _groups(_codes(columns, sizes))


def _row_columns(rows, rhs: np.ndarray, n_vars: int, order: int):
    """An equation row's columns for ``_codes``: variables, negative signs, constant."""
    return [*rows.var_ids.T, *(rows.signs.T < 0), rhs], [n_vars] * 3 + [2] * 3 + [order]


def _codes(columns, sizes) -> np.ndarray:
    """One int64 per row of the non-negative int ``columns``, column j below
    ``sizes[j]``: codes are equal exactly where rows are equal, and ascend
    in the rows' lexicographic order. The columns are mixed-radix digits,
    the first the most significant; where the next digit would pass int64,
    the code so far is first replaced by its rank among the distinct codes,
    which keeps both properties. The number of rows times any size must
    stay within int64."""
    code = np.asarray(columns[0]).astype(np.int64)
    bound = int(sizes[0])  # every code is below it
    for column, size in zip(columns[1:], sizes[1:]):
        size = int(size)
        if bound * size > 2**63:
            distinct, code = np.unique(code, return_inverse=True)
            bound = len(distinct)
        code *= size
        code += column
        bound *= size
    return code


def _firsts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal ``values`` starts."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def _groups(key: np.ndarray) -> SideView:
    """The groups of equal keys; the system is its own view when all keys
    differ. Any equation of a group serves as its ``rep``, so the sort
    need not be stable."""
    order = np.argsort(key)
    first = _firsts(key[order])
    del key
    if len(first) == len(order):
        return SideView(None, None, None)
    order = order.astype(np.int32)
    group = np.empty(len(order), dtype=np.int32)
    group[order] = np.repeat(np.arange(len(first), dtype=np.int32), np.diff(first, append=len(order)))
    return SideView(order[first], group, order)


@dataclass(frozen=True, eq=False)
class AssignmentFamily:
    """Long-code tables: one table over G1^E per right vertex and one over
    G1^D per left vertex, valued in G1 (side 1) or G2 (side 2).

    A family is a fixed value: the constructor copies each table into a
    read-only int64 array, held in a read-only mapping, so a support can
    keep what it derives from a family by the family's identity. A table
    of floats, bools or objects is refused rather than truncated."""

    side: int
    a_tables: Mapping  # v -> int64 [|G1|^|E|] of element indices
    b_tables: Mapping  # u -> int64 [|G1|^|D|]

    def __post_init__(self):
        if self.side not in (1, 2):
            raise InvalidParams("side must be 1 or 2")
        for name in ("a_tables", "b_tables"):
            tables = {x: _read_only(_integer_table(x, table)) for x, table in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(tables))


def _integer_table(name: str, table) -> np.ndarray:
    """An int64 copy of a family table whose values are integers. An empty
    table holds no value to truncate; the shape check refuses it."""
    values = np.asarray(table)
    if values.size and values.dtype.kind not in "iu":
        raise InvalidParams(f"the family table for {name} holds {values.dtype} values, not integers")
    return values.astype(np.int64)


@dataclass(frozen=True)
class ReductionParams:
    eps: Fraction
    mode: str = "exact"
    sample_count: int | None = None
    seed: int = 0
    cap: int | None = None
    # (enumeration cap, table cap) that every call on these params checks
    # against: read once, when they are made, with ``cap`` in place of the first
    caps: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps < 1:
            raise InvalidParams(f"eps must be in (0,1), got {self.eps}")
        if self.mode not in ("exact", "sampled"):
            raise InvalidParams(f"unknown mode {self.mode}")
        count = self.sample_count
        if not (type(count) is int and count > 0):
            if self.mode == "sampled":
                raise InvalidParams(f"sampled mode needs a positive integer sample_count, got {count}")
            if count is not None:
                # exact mode draws nothing, but a count it is given must still be one
                raise InvalidParams(f"exact mode takes only a positive integer sample_count, got {count}")
        if self.cap is not None:
            enum_cap(self.cap)  # refuses a cap below one, before the environment is read
        enum, table = read_caps()
        object.__setattr__(self, "caps", (self.cap or enum, table))


def var_u(u: str, b_flat: int) -> str:
    return f"{u}[{b_flat}]"


def var_v(v: str, a_flat: int) -> str:
    return f"{v}[{a_flat}]"


def _check_exact_cap(lc, pe, pd, cap: int):
    raw = len(lc.edges) * pe.n * pd.n * pd.n * 4
    if raw > cap:
        raise CapExceeded(f"exact mode needs {raw} tuples, cap is {cap}")


def _check_draw_cap(count, cap: int):
    """Sampled mode draws one tuple per sample, in a Python loop, into
    arrays allocated up front: the draws are held to the enumeration cap."""
    if count > cap:
        raise CapExceeded(f"sampled mode draws {count} tuples, cap is {cap}")


def _check_payoff_cap(lc, pe, pd, cap: int):
    """The factored count's work, held to the enumeration cap: one cell per
    (edge, a, b, s1) of the grid it counts over, plus, per left vertex with
    an edge, |D| noise passes and one contraction over the |G1|^|D| points
    of its h table. Every count is at most the number of tuples, which must
    fit in int64."""
    n_left = len({u for u, _, _ in lc.edges})
    cells = len(lc.edges) * 2 * pe.n * pd.n + n_left * (pd.m + 1) * pd.n
    if cells > cap:
        raise CapExceeded(f"the payoff distribution needs {cells} cells, cap is {cap}")
    tuples = len(lc.edges) * pe.n * pd.n * pd.n * 4
    if tuples >= 2**63:
        raise CapExceeded(f"{tuples} tuples overflow the int64 counts")


def _check_family_shape(lc, template, pe, pd, family):
    """Every vertex has a flat table with one entry per tuple, valued in
    0..|G|-1 for the group G of the family's side, and no other name has
    one."""
    order = len(template.g1 if family.side == 1 else template.g2)
    sides = (("A", "V", lc.v_names, family.a_tables, pe.n), ("B", "U", lc.u_names, family.b_tables, pd.n))
    for key, side, names, tables, n in sides:
        for x in tables:
            if x not in names:
                raise InvalidParams(f"family {key} table for {x}, which is not a vertex in {side}")
        for x in names:
            if x not in tables or tables[x].shape != (n,):
                raise InvalidParams(f"family table for {x} must have {n} entries")
            values = tables[x]
            bad = values[(values < 0) | (values >= order)]
            if len(bad):
                raise InvalidParams(
                    f"value {bad[0]} in the family table for {x} outside 0..{order - 1}"
                )


_SIGNS = np.array([1, -1])


def composed_inverse(pe: GroupPower, pd: GroupPower, pi: dict, e_labels, a=None) -> np.ndarray:
    """Flat index in G1^D of (a o pi)^-1 for the flat indices ``a`` of G1^E
    (every a, in order, by default)."""
    positions = pd.compose_positions(pi, e_labels)
    coords = pe.coords_matrix() if a is None else pe.coords_matrix()[a]
    return pd.inv_array()[pd.encode(coords[:, positions])]


@dataclass(frozen=True, eq=False)
class Tuples:
    """Tuples (edge, a, b, nu, s1, s2) of the sampling procedure as int
    arrays that broadcast to one shape; raveled in C order they list the
    tuples in the procedure's order. ``b`` and ``c`` are the flat indices of
    b^s1 and c^s2, where c = b^-1 (a o pi)^-1 nu; ``k`` is nu's noise class.
    The tuple's equation is

        v[a_rep] * u[b^s1]^s1 * u[c^s2]^s2 = h_a.
    """

    a_rep: np.ndarray
    h_a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    k: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(
            self.a_rep.shape, self.b.shape, self.c.shape, self.s1.shape, self.s2.shape, self.k.shape
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # kept with a support, shared by every caller
    return array


class Geometry:
    """The tuple geometry of the reduction for one instance and template:
    coset data of G1^E under Dom(phi), inverses in G1^D and noise classes,
    shared by every edge. The coset data of all of G1^E is computed on first
    use by an exact enumeration or a payoff count, and kept with the
    ``Support``; sampled tuples look up only the drawn a."""

    def __init__(self, lc: LabelCoverInstance, h1: Subgroup, pe: GroupPower, pd: GroupPower):
        self.lc = lc
        self.h1 = h1
        self.pe, self.pd = pe, pd
        self.inv_d = _read_only(pd.inv_array())
        self.noise_class = _read_only(pd.noise_classes())

    @functools.cached_property
    def cosets(self) -> tuple[np.ndarray, np.ndarray]:
        """``coset_arrays(h1, pe)``: a_rep and h_a for every a in G1^E."""
        a_rep, h_a = coset_arrays(self.h1, self.pe)
        return _read_only(a_rep), _read_only(h_a)

    def mid(self, pi: dict) -> np.ndarray:
        """b^-1 (a o pi)^-1 on the grid [a, b] of one edge."""
        ap_inv = composed_inverse(self.pe, self.pd, pi, self.lc.e_labels)
        return self.pd.mul_array(self.inv_d[None, :], ap_inv[:, None])

    def edge_tuples(self, pi: dict) -> Tuples:
        """Every tuple of one edge, on the grid [a, b, nu, s1, s2]."""
        d = np.arange(self.pd.n)
        c = self.pd.mul_array(self.mid(pi)[:, :, None], d[None, None, :])
        a_rep, h_a = self.cosets
        return self._tuples(
            a_rep[:, None, None, None, None],
            h_a[:, None, None, None, None],
            d[None, :, None, None, None],
            c[:, :, :, None, None],
            d[None, None, :, None, None],
            _SIGNS[:, None],
            _SIGNS[None, :],
        )

    def sampled_tuples(self, edge, a, b, nu, s1, s2) -> Tuples:
        """The tuples of drawn (edge, a, b, nu, s1, s2), one per draw."""
        ap_inv = np.empty(len(a), dtype=np.int64)
        for e, (_, _, pi) in enumerate(self.lc.edge_maps()):
            drawn = edge == e
            ap_inv[drawn] = composed_inverse(self.pe, self.pd, pi, self.lc.e_labels, a[drawn])
        mid = self.pd.mul_array(self.inv_d[b], ap_inv)
        a_rep, h_a = coset_arrays(self.h1, self.pe, a)
        return self._tuples(a_rep, h_a, b, self.pd.mul_array(mid, nu), nu, s1, s2)

    def _tuples(self, a_rep, h_a, b, c, nu, s1, s2) -> Tuples:
        return Tuples(
            a_rep=a_rep,
            h_a=h_a,
            b=np.where(s1 > 0, b, self.inv_d[b]),
            c=np.where(s2 > 0, c, self.inv_d[c]),
            s1=s1,
            s2=s2,
            k=self.noise_class[nu],
        )


def _class_numerators(lc, pe, pd, eps: Fraction) -> tuple[list[int], int]:
    """The weight of a tuple of noise class k = 0..|D| as integer numerators
    over one denominator. At eps = p/q a noise coordinate is e with
    probability (q|G1| - p|G1| + p) / q|G1|, each other element p / q|G1|."""
    p, q, size = eps.numerator, eps.denominator, len(pd.group)
    stay = q * size - p * (size - 1)
    nums = [stay ** (pd.m - k) * p**k for k in range(pd.m + 1)]
    return nums, (q * size) ** pd.m * len(lc.edges) * pe.n * pd.n * 4


def _sampled_draws(lc, pe, pd, params):
    """(edge, a, b, nu, s1, s2) for every sample, drawn in the order the
    seed fixes: edge, a, b, then nu coordinate by coordinate, then signs."""
    rng = np.random.default_rng(params.seed)
    g1, eps = pd.group, float(params.eps)
    draws = np.empty((params.sample_count, 5), dtype=np.int64)
    nu_coords = np.empty((params.sample_count, pd.m), dtype=np.int64)
    for i in range(params.sample_count):
        draws[i, 0] = rng.integers(len(lc.edges))
        draws[i, 1] = rng.integers(pe.n)
        draws[i, 2] = rng.integers(pd.n)
        for j in range(pd.m):
            nu_coords[i, j] = (
                g1.identity if rng.random() >= eps else int(rng.integers(len(g1)))
            )
        draws[i, 3] = 1 if rng.integers(2) == 0 else -1
        draws[i, 4] = 1 if rng.integers(2) == 0 else -1
    edge, a, b, s1, s2 = draws.T
    return edge, a, b, pd.encode(nu_coords), s1, s2


@dataclass(frozen=True, eq=False)
class Rows:
    """An encoding before its weights are known: row ``e`` has the terms and
    rhs of ``SystemArrays`` and stands for ``class_counts[row_class[e], k]``
    tuples of class ``k``. With one tuple per row, ``class_counts`` is the
    identity and ``row_class`` each tuple's class."""

    var_ids: np.ndarray       # int32 [m, 3]
    signs: np.ndarray         # int8 [m, 3]
    rhs: np.ndarray           # int16 [m]
    row_class: np.ndarray     # int32 [m]
    class_counts: np.ndarray  # int64 [c, classes]

    def numerators(self, nums) -> list[int]:
        """Each row class's numerator at ``nums[k]`` per tuple of class ``k``."""
        return [sum(map(operator.mul, nums, row)) for row in self.class_counts.tolist()]

    def weighed(self, nums, denom) -> SystemArrays:
        """The encoding with weight ``nums[k] / denom`` per tuple of class
        ``k``, with its numerators: the row classes are its weight classes,
        also where two row classes weigh the same."""
        nums = self.numerators(nums)
        weights = tuple(Fraction(n, denom) for n in nums)
        arrays = SystemArrays(self.var_ids, self.signs, self.rhs, self.row_class, weights)
        arrays.__dict__["numerators"] = nums, denom
        return arrays


def _tuple_rows(blocks, n_cls: int) -> Rows:
    """One row per tuple of the blocks (tuples, u offset, v offset, class),
    in order."""
    m = sum(int(np.prod(t.shape)) for t, _, _, _ in blocks)
    var_ids = np.empty((m, 3), dtype=np.int32)
    signs = np.empty((m, 3), dtype=np.int8)
    rhs = np.empty(m, dtype=np.int16)
    cls = np.empty(m, dtype=np.int32)
    lo = 0
    for t, u0, v0, k in blocks:
        shape = t.shape
        hi = lo + int(np.prod(shape))
        ids, sg = var_ids[lo:hi].reshape(*shape, 3), signs[lo:hi].reshape(*shape, 3)
        ids[..., 0] = v0 + t.a_rep
        ids[..., 1] = u0 + t.b
        ids[..., 2] = u0 + t.c
        sg[..., 0] = 1
        sg[..., 1] = t.s1
        sg[..., 2] = t.s2
        rhs[lo:hi].reshape(shape)[...] = t.h_a
        cls[lo:hi].reshape(shape)[...] = k
        lo = hi
    return Rows(var_ids, signs, rhs, cls, np.eye(n_cls, dtype=np.int64))


def _merge(rows: Rows) -> Rows:
    """Identical (terms, rhs) merged into one row at the position of the
    first, with its tuples counted per class; ``rows`` has one tuple per
    row. Row classes are the distinct count vectors, in lexicographic
    order. Rows and vectors are told apart by their ``_codes``."""
    code = _codes(*_row_columns(rows, rows.rhs, int(rows.var_ids.max()) + 1, int(rows.rhs.max()) + 1))
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    keep = np.sort(first)
    group = np.searchsorted(keep, first)[inverse]  # groups in order of first occurrence
    n_cls = len(rows.class_counts)
    counts = np.bincount(group * n_cls + rows.row_class, minlength=len(keep) * n_cls).reshape(len(keep), n_cls)
    _, at, vector_of = np.unique(_codes(counts.T, counts.max(axis=0) + 1), return_index=True, return_inverse=True)
    return Rows(
        rows.var_ids[keep],
        rows.signs[keep],
        rows.rhs[keep],
        vector_of.astype(np.int32),
        counts[at],
    )


@dataclass(eq=False)
class KeptFamily:
    """The eps-free work on one family, which its support keeps for the
    last family of each side: the counts of ``payoff_distribution`` and the
    decoder's outcomes (``decoder.decode``). The family is the key: it is
    immutable, so one family object has one content."""

    family: AssignmentFamily
    counts: np.ndarray | None = None  # int64 [|G|, |D|+1], read-only
    decodes: dict = field(default_factory=dict)


class Support:
    """The eps-free part of the reduction of one instance and template.

    For every eps the exact system has the same equations and variables;
    eps sets only the |D|+1 noise-class weights. A support holds the powers
    G1^E and G1^D, the tuple ``Geometry``, the variable names and, from the
    first exact build that passes the cap, the exact encoding as ``Rows``
    and the system on it that every exact build reweighs (``first``). So
    exact systems of one support share its read-only arrays, class totals
    and side views: the solvers group, index and score each side once, and
    a build checks only its weights. Sampled systems are drawn on every build.

    What no weight enters is kept too, so an eps sweep only weighs counts:
    per side, for the last family (the same object), its payoff counts and
    the decoder's outcomes (``family``); and the instance's optimum with
    its planted families (``planted``). All of it goes with the support,
    as do the noise classes' weights at the last eps (``class_numerators``),
    which every call of one op weighs.
    """

    def __init__(self, lc: LabelCoverInstance, template: Template):
        self.lc = lc
        self.template = template
        self.pe = GroupPower(template.g1, lc.e_labels)
        self.pd = GroupPower(template.g1, lc.d_labels)
        self.geo = Geometry(lc, template.h1, self.pe, self.pd)
        # (terms, rhs) determines the tuple within an edge, and the variables
        # name the edge's endpoints, so only parallel u-v edges can repeat an
        # exact equation; sampled draws can repeat one anyway
        self.mergeable = len({(u, v) for u, v, _ in lc.edges}) < len(lc.edges)
        self.families: dict[int, KeptFamily] = {}  # per side
        self.first: LinSystem | None = None  # the first exact system built
        self._weighed: tuple | None = None  # (eps, its class numerators) for the last eps
        # the first variable of each left and of each right vertex
        self.u_off = {u: k * self.pd.n for k, u in enumerate(lc.u_names)}
        self.v_off = {v: len(lc.u_names) * self.pd.n + k * self.pe.n for k, v in enumerate(lc.v_names)}

    @functools.cached_property
    def variables(self) -> tuple[str, ...]:
        lc, pe, pd = self.lc, self.pe, self.pd
        names = [var_u(u, b) for u in lc.u_names for b in range(pd.n)]
        return tuple(names + [var_v(v, a) for v in lc.v_names for a in range(pe.n)])

    @functools.cached_property
    def exact(self) -> Rows:
        """The exact encoding, merged where parallel edges repeat equations.
        Callers check the enumeration cap first."""
        rows = _merge(self.tuple_rows()) if self.mergeable else self.tuple_rows()
        for array in (rows.var_ids, rows.signs, rows.rhs, rows.row_class, rows.class_counts):
            _read_only(array)
        return rows

    def family(self, family: AssignmentFamily) -> KeptFamily:
        """The kept entry of the family's side for this family object.
        Another family has its shape checked (``_check_family_shape``) and
        replaces it; the kept one passed that check when it was kept."""
        kept = self.families.get(family.side)
        if kept is None or kept.family is not family:
            _check_family_shape(self.lc, self.template, self.pe, self.pd, family)
            kept = self.families[family.side] = KeptFamily(family)
        return kept

    @functools.cached_property
    def planted(self) -> tuple[Fraction, AssignmentFamily, AssignmentFamily]:
        """``reduction.planted``: the optimum of the instance and the
        projection families of its labeling on sides 1 and 2. Callers check
        the search's cap first."""
        value, h_d, h_e = _labeling_search(self.lc)
        return value, *(projection_family(self.lc, self.template, h_d, h_e, side) for side in (1, 2))

    def class_numerators(self, eps: Fraction) -> tuple[list[int], int]:
        """``_class_numerators`` at eps, kept for the last eps."""
        if self._weighed is None or self._weighed[0] != eps:
            self._weighed = eps, _class_numerators(self.lc, self.pe, self.pd, eps)
        return self._weighed[1]

    def tuple_rows(self) -> Rows:
        """One row per tuple (edge, a, b, nu, s1, s2), one block per edge;
        the row class is the noise class."""
        blocks = []
        for u, v, pi in self.lc.edge_maps():
            t = self.geo.edge_tuples(pi)
            blocks.append((t, self.u_off[u], self.v_off[v], t.k))
        return _tuple_rows(blocks, self.pd.m + 1)

    def sampled_rows(self, params: ReductionParams) -> Rows:
        """One row per draw, in one block of class 0."""
        lc = self.lc
        edge, a, b, nu, s1, s2 = _sampled_draws(lc, self.pe, self.pd, params)
        u0 = np.array([self.u_off[u] for u, _, _ in lc.edges])[edge]
        v0 = np.array([self.v_off[v] for _, v, _ in lc.edges])[edge]
        block = (self.geo.sampled_tuples(edge, a, b, nu, s1, s2), u0, v0, 0)
        return _tuple_rows([block], 1)


@functools.lru_cache(maxsize=SUPPORT_CACHE)
def _support(lc: LabelCoverInstance, template: Template) -> Support:
    return Support(lc, template)


def support(lc: LabelCoverInstance, template: Template, limit: int | None = None) -> Support:
    """The support of (lc, template), kept for the last ``SUPPORT_CACHE``
    pairs. The table cap (``limit``, read when not given) is checked every
    call, as building the powers checks it; callers check the enumeration
    caps, on every call too."""
    sup = _support(lc, template)
    limit = read_caps()[1] if limit is None else limit
    sup.pe.check_cap(limit)
    sup.pd.check_cap(limit)
    return sup


def _resolve(lc, template, params: ReductionParams):
    """What a call on (lc, template) with params works from: the support,
    its table cap checked against the params' caps, their enumeration cap,
    and eps's class numerators."""
    sup = support(lc, template, params.caps[1])
    return sup, params.caps[0], sup.class_numerators(params.eps)


def build_system(lc: LabelCoverInstance, template: Template, params: ReductionParams) -> LinSystem:
    """The weighted equation system of the reduction, with exact weights.

    The tuple (edge, a, b, nu, s1, s2) of the sampling procedure (or each
    draw, in sampled mode) gives the equation

        v[a_rep] * u[b^s1]^s1 * u[c^s2]^s2 = h_a,   c = b^-1 (a o pi)^-1 nu

    with weight the product of the edge, a, b, nu, and sign probabilities.
    Equations with identical (terms, rhs) are merged by summing weights; the
    term order of the construction is preserved, not sorted, and equations
    keep the order of the tuples. In exact mode a call reweighs the support's
    first exact system: only the weights are computed, and checked, per call.
    """
    sup, cap, nums = _resolve(lc, template, params)
    if params.mode == "sampled":
        _check_draw_cap(params.sample_count, cap)
        rows = _merge(sup.sampled_rows(params))
        return LinSystem.from_arrays(template, sup.variables, rows.weighed([1], params.sample_count))
    _check_exact_cap(lc, sup.pe, sup.pd, cap)
    if sup.first is None:
        sup.first = LinSystem.from_arrays(template, sup.variables, sup.exact.weighed(*nums))
    return sup.first.reweighed(sup.exact.numerators(nums[0]), nums[1])


def _assignment_values(system: LinSystem, assignment: dict, order: int) -> np.ndarray:
    """The assignment as an array in variable order; every variable must be
    present with a value in ``0..order-1``, and no other name."""
    for x in system.variables:
        if x not in assignment:
            raise MissingVariable(x)
    if len(assignment) > len(system.variables):
        names = set(system.variables)
        extra = next(x for x in assignment if x not in names)
        raise InvalidParams(f"the assignment names {extra}, which is not a variable of the system")
    values = [int(assignment[x]) for x in system.variables]
    for x, val in zip(system.variables, values):
        if not 0 <= val < order:
            raise InvalidParams(f"value {val} of {x} outside 0..{order - 1}")
    return np.array(values, dtype=np.int16)


def evaluate(system: LinSystem, assignment: dict, side: int) -> Fraction:
    """Total weight of satisfied equations under ``assignment``.

    On side 2 the constants are interpreted through phi.
    """
    return system.arrays.weigh(class_hits(system, assignment, side))


def class_hits(system: LinSystem, assignment: dict, side: int) -> np.ndarray:
    """The equations ``assignment`` satisfies, per weight class: what
    ``evaluate`` weighs. They depend on the weights only through which
    equations share a class."""
    tables = side_tables(system.template, side)
    values = _assignment_values(system, assignment, len(tables.group))
    enc = system.arrays
    counts = np.zeros(len(enc.weights), dtype=np.int64)
    for lo in range(0, len(enc.rhs), EQUATION_BLOCK):
        sl = slice(lo, lo + EQUATION_BLOCK)
        t = tables.term_values(values[enc.var_ids[sl]], enc.signs[sl])
        hit = tables.products(t[:, 0], t[:, 1], t[:, 2]) == tables.rhs_map[enc.rhs[sl]]
        counts += np.bincount(enc.weight_class[sl][hit], minlength=len(enc.weights))
    return counts


def _noise_counts(tables, pd: GroupPower, order: int) -> np.ndarray:
    """h[g, k, y] = #{nu of noise class k : f(y nu) = g}, summed over the
    functions f: G1^D -> 0..order-1 given by their flat ``tables``.

    One pass per axis j: nu_j = e keeps the class, and the other elements
    raise it by one and together reach every value of y_j but y_j itself.
    """
    m, size = pd.m, len(pd.group)
    h = np.zeros((order, m + 1, pd.n), dtype=np.int64)
    for f in tables:
        h[f, 0, np.arange(pd.n)] += 1
    h = h.reshape((order, m + 1) + (size,) * m)
    for j in range(m):
        h[:, 1:] += (h.sum(axis=2 + j, keepdims=True) - h)[:, :-1]
    return h.reshape(order, m + 1, pd.n)


def payoff_distribution(
    lc: LabelCoverInstance, template: Template, params: ReductionParams, family: AssignmentFamily, side: int
) -> dict[int, Fraction]:
    """Exact distribution of the folded three-query product: the mass of
    each element z = A'_v(a) * B_u(b^s1)^s1 * B_u(c^s2)^s2, where A' is A_v
    folded over the identity (side 1) or over phi (side 2) and c = b^-1 x_a
    nu with x_a = (a o pi)^-1, listed in element order where non-zero. The
    mass at the identity is the payoff of the family. A call weighs the
    counts per (z, noise class) kept for the family (``_kept_counts``)."""
    counts, (nums, denom) = _kept_counts(lc, template, params, family, side)
    return {z: Fraction(sum(map(operator.mul, nums, row)), denom) for z, row in enumerate(counts.tolist()) if any(row)}


def _kept_counts(lc, template, params: ReductionParams, family: AssignmentFamily, side: int):
    """The family's payoff counts, kept with its support (``Support.family``),
    and eps's class numerators. The side and the caps are checked on every
    call, and the family's shape whenever it is not the kept family."""
    if side != family.side:
        raise InvalidParams("family built for the other side")
    sup, cap, nums = _resolve(lc, template, params)
    _check_payoff_cap(lc, sup.pe, sup.pd, cap)
    kept = sup.family(family)
    if kept.counts is None:
        kept.counts = _read_only(_payoff_counts(sup, family))
    return kept.counts, nums


def _payoff_counts(sup: Support, family: AssignmentFamily) -> np.ndarray:
    """counts[z, k]: the tuples of noise class k whose folded product is z.

    Write B^(s)(y) = B(y^s)^s. Per left vertex, h[g, k, y] counts the
    (nu, s2) with nu of class k and B^(s2)(y nu) = g (``_noise_counts``),
    and C[beta, y] counts the (edge, a, b, s1) with
    A'(a) * B^(s1)(b) = beta and b^-1 x_a = y. Then z = beta * g, and
    contracting C with h over y gives the counts. They stay in int64.
    """
    lc, template, pe, pd, geo = sup.lc, sup.template, sup.pe, sup.pd, sup.geo
    group = template.g1 if family.side == 1 else template.g2
    hom = identity_hom(template.h1) if family.side == 1 else template.phi
    table = np.asarray(group.table, dtype=np.int64)
    inverses = np.asarray(group.inverses, dtype=np.int64)
    n, n_cls = len(group), pd.m + 1
    counts = np.zeros((n, n_cls), dtype=np.int64)
    folded = {v: fold(family.a_tables[v], pe, hom, geo.cosets) for v in lc.v_names}
    edges_at: dict[str, list] = {}
    for u, v, pi in lc.edge_maps():
        edges_at.setdefault(u, []).append((v, pi))
    for u, edges in edges_at.items():
        b_table = family.b_tables[u]
        signed = (b_table, inverses[b_table[geo.inv_d]])  # B^(+1), B^(-1)
        by_beta_y = np.zeros(n * pd.n, dtype=np.int64)
        for v, pi in edges:
            mid = geo.mid(pi)
            for f in signed:
                beta = table[folded[v][:, None], f[None, :]]
                by_beta_y += np.bincount((beta * pd.n + mid).reshape(-1), minlength=n * pd.n)
        h = _noise_counts(signed, pd, n).reshape(n * n_cls, pd.n)
        by_beta_g = by_beta_y.reshape(n, pd.n) @ h.T
        np.add.at(counts, table, by_beta_g.reshape(n, n, n_cls))
    return counts


def evaluate_family(
    lc: LabelCoverInstance, template: Template, params: ReductionParams, family: AssignmentFamily, side: int
) -> Fraction:
    """Payoff of a family: the identity mass of ``payoff_distribution``,
    counted exactly over the sampling procedure without building the
    system, weighed from the identity's row of the kept counts alone."""
    counts, (nums, denom) = _kept_counts(lc, template, params, family, side)
    row = counts[(template.g1 if side == 1 else template.g2).identity].tolist()
    return Fraction(sum(map(operator.mul, nums, row)), denom)


def family_assignment(
    lc: LabelCoverInstance, template: Template, family: AssignmentFamily
) -> dict[str, int]:
    """The variable assignment encoded by a family of tables."""
    sup = support(lc, template)
    _check_family_shape(lc, template, sup.pe, sup.pd, family)
    tables = [family.b_tables[u] for u in lc.u_names] + [family.a_tables[v] for v in lc.v_names]
    return dict(zip(sup.variables, np.concatenate(tables).tolist()))


def projection_family(
    lc: LabelCoverInstance, template: Template, h_d: dict[str, str], h_e: dict[str, str], side: int
) -> AssignmentFamily:
    """Long-code projections for a labeling; side 2 goes through the witness."""
    sup = support(lc, template)
    pe, pd = sup.pe, sup.pd
    epos = {l: k for k, l in enumerate(lc.e_labels)}
    dpos = {l: k for k, l in enumerate(lc.d_labels)}
    psi = np.array(template.witness if side == 2 else range(len(template.g1)))
    a_tables = {v: psi[pe.coords_matrix()[:, epos[str(h_e[v])]]] for v in lc.v_names}
    b_tables = {u: psi[pd.coords_matrix()[:, dpos[str(h_d[u])]]] for u in lc.u_names}
    return AssignmentFamily(side, a_tables, b_tables)


def lc_value(lc: LabelCoverInstance, h_d: dict[str, str], h_e: dict[str, str]) -> Fraction:
    """Fraction of edges whose projection maps the left label to the right one."""
    hits = sum(
        1 for u, v, pi in lc.edge_maps() if str(pi[str(h_d[u])]) == str(h_e[v])
    )
    return Fraction(hits, len(lc.edges))


def planted(
    lc: LabelCoverInstance, template: Template, params: ReductionParams | None = None
) -> tuple[Fraction, AssignmentFamily, AssignmentFamily]:
    """The optimum of the instance (``_labeling_search``) and the side-1
    and side-2 projection families of its labeling, kept with the support
    of (lc, template) as none of them depends on eps. The families are
    immutable and shared. The search's enumeration cap is checked on
    every call, before the support's table cap, against the caps of
    ``params`` (read when not given)."""
    cap, limit = read_caps() if params is None else params.caps
    _check_labeling_cap(lc, cap)
    return support(lc, template, limit).planted


def _check_labeling_cap(lc: LabelCoverInstance, cap: int) -> None:
    n_labelings = len(lc.d_labels) ** len(lc.u_names) * len(lc.e_labels) ** len(lc.v_names)
    if n_labelings * len(lc.edges) > cap:
        raise CapExceeded(
            f"{n_labelings} labelings x {len(lc.edges)} edges ="
            f" {n_labelings * len(lc.edges)} edge checks exceed the cap {cap}"
        )


def _labeling_search(lc: LabelCoverInstance):
    """An optimal labeling, by exhaustive search: (value, h_d, h_e).

    Labelings are tried with U then V in order and labels in order; the
    first optimum wins. The search evaluates |D|^|U| * |E|^|V| labelings on
    every edge; callers hold that count to the enumeration cap
    (``_check_labeling_cap``) first."""
    best = None
    for d_combo in itertools.product(lc.d_labels, repeat=len(lc.u_names)):
        for e_combo in itertools.product(lc.e_labels, repeat=len(lc.v_names)):
            h_d = dict(zip(lc.u_names, d_combo))
            h_e = dict(zip(lc.v_names, e_combo))
            val = lc_value(lc, h_d, h_e)
            if best is None or val > best[0]:
                best = (val, h_d, h_e)
    return best
