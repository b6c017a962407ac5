"""Baseline algorithms for weighted 3-variable equation systems over a
template: exhaustive optimum, the exact expectation of the random subgroup
assignment, its derandomization, and the accept/reject routine that handles
unsatisfiable cube equations.

The first three run on the system's integer encoding (``LinSystem.arrays``)
and stay exact. ``random_expectation`` and ``derandomize`` run on the side's
view (``side_view``), where equations equal on that side are one row, and
score each distinct equation pattern once per pass. What they score is hits
per weight class: the equations of one row share its key and so its hits,
and each is counted under its own weight class. No weight enters the hits,
and a system's weight classes stay the same for its lifetime (the exact
systems of one support share theirs), so the view's memo keeps them:
``random_expectation``'s totals, and ``derandomize``'s walk with the hits
of the assignment it ends in. A call weighs them with the weights' integer
numerators. A step where every value has the same hits in every weight
class ties under any weights, so the walk keeps only its untied steps: where
each still picks its choice, the kept walk is reused whole, else redone.
Every step ties on the catalog's 30 pair x side cases and on the doubled
instance, so there a warm call scores no step.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InvalidParams, enum_cap
from .groups import Template, cube_image
from .reduction import LinSystem, SideTables, _codes, _firsts, side_tables, side_view

# Cells of (assignment or pattern) x (equation or grid point) per kernel
# block, which bounds the kernels' scratch memory.
_BLOCK_CELLS = 1 << 18

# Rows (equations, or equations touching one variable) looked up at once,
# which bounds the solvers' scratch memory.
_KEY_BLOCK = 1 << 14

# Codes, such as a block's (weight class, key) pairs, are counted on a dense
# grid when it has at most this many cells per code, and by sorting
# otherwise.
_DENSE_PER_ROW = 4

# A slot of an equation is coded as one int. Codes 0..n-1 are known term
# values (the sign already applied); code n + 2*k + s is unknown k (k = 0, 1,
# 2) raised to +1 (s = 0) or -1 (s = 1). The three slot codes and the rhs make
# up the equation's pattern key: its hits over the unknowns depend on nothing
# else. A key is split into a shape, the unknown slots' part, which never
# changes, and the rhs plus the term values of fixed slots.
_UNKNOWN_CODES = 6


def _side(system: LinSystem, template: Template, side: int):
    """The side's tables and constants subgroup, ascending: Dom(phi) on side
    1, Im(phi) on side 2. ``template`` must have the system's G1, G2 and phi,
    since the tables come from the system and the constants from it."""
    if side not in (1, 2):
        raise InvalidParams("side must be 1 or 2")
    _check_template(system, template)
    h = template.h1 if side == 1 else template.h2
    return side_tables(system.template, side), np.array(h.members, dtype=np.int16)


def _check_template(system: LinSystem, template: Template) -> None:
    own = system.template
    same = template is own or (template.g1.table, template.g2.table, template.phi.mapping) == (
        own.g1.table,
        own.g2.table,
        own.phi.mapping,
    )
    if not same:
        raise InvalidParams(
            f"template {template.name!r} differs from the system's template {own.name!r}"
            " in G1, G2 or phi"
        )


def _small(values: np.ndarray, bound: int) -> np.ndarray:
    """``values``, all in 0..bound, in the smallest unsigned dtype that holds
    them."""
    return values.astype(np.min_scalar_type(bound))


class _Counts:
    """A side view's rows with their equations' weight classes, which stay
    the same for the system's lifetime (the exact systems of one support
    share theirs), and the hit counts per weight class the solvers derive
    from them, which no weight enters. The view's row r holds equations of
    the weight classes ``cls[start[r]:start[r] + size[r]]``, taken in the
    view's ``order`` and kept in the smallest unsigned dtypes; where
    nothing merges, ``start`` and ``size`` are None and ``cls`` is the
    system's own ``weight_class``, one equation per row. So everything here
    takes space linear in the equations, whatever the number of weight
    classes.

    ``totals`` holds ``random_expectation``'s hits over the whole grid, as
    (weight class, hits) pairs. ``derandomize`` walks the variables that
    rows touch, in order; a step scores one variable by the hits, per weight
    class of its rows' equations and value, given the values chosen before
    it. ``choice`` holds each variable's choice, an index into the
    constants subgroup (0 where no row touches it). ``untied`` holds the
    walk's steps that are not weight-free ties, as the variable, the weight
    classes, ascending, and their int64 hit counts, [classes x |h|]; a tied
    step, where every value has the same hits in every weight class, keeps
    index 0 under any weights. ``assigned`` holds the hits of the assignment
    the walk ends in, times |h|^2, as (weight class, hits) pairs; it is None
    until ``_path`` has walked to the end."""

    def __init__(self, system: LinSystem, side: int):
        enc, view = system.arrays, side_view(system, side)
        self.weight_class, self.n_cls = enc.weight_class, len(enc.weights)
        self.cls, self.start, self.size = enc.weight_class, None, None
        if view.group is not None:
            size = np.bincount(view.group, minlength=len(view.rep))
            self.cls = _small(enc.weight_class[view.order], self.n_cls)
            self.start, self.size = _small(np.cumsum(size) - size, len(enc)), _small(size, int(size.max()))
        self.totals, self.assigned = None, None
        self.untied: list = []
        self.choice = np.zeros(len(system.variables), dtype=np.int64)

    def count(self, rows: np.ndarray, pos: np.ndarray, hits: np.ndarray):
        """The hits of view rows whose keys sit at ``pos`` in the ``hits``
        table, summed per weight class of their equations: the classes,
        ascending, and their sums. The equations of one row share its key,
        and they are counted per (weight class, key) pair."""
        if self.size is not None:
            size = self.size[rows]
            end = np.cumsum(size, dtype=np.int64)
            pos = pos.repeat(size)
            rows = (self.start[rows] - end + size).repeat(size) + np.arange(len(pos))
        n_keys = len(hits)
        pair, n = _pairs(self.cls[rows] * np.int64(n_keys) + pos, self.n_cls * n_keys)
        cls, key = np.divmod(pair, n_keys)
        first = _firsts(cls)
        return cls[first], np.add.reduceat(hits[key] * n[:, None], first, axis=0)


def _weigh(system: LinSystem, hits, scale: int) -> Fraction:
    """(weight class, hits) pairs weighed exactly in the system's weights,
    over ``scale``."""
    nums, denom = system.arrays.numerators
    return Fraction(sum(nums[c] * n for c, n in hits), denom * scale)


def _pairs(pair: np.ndarray, size: int):
    """The distinct codes in ``pair``, all below ``size``, ascending, and
    how often each occurs: counted on a dense grid where it has at most
    ``_DENSE_PER_ROW`` cells per code, by sorting otherwise."""
    if size <= _DENSE_PER_ROW * len(pair):
        n = np.bincount(pair, minlength=size)
        pair = np.flatnonzero(n)
        return pair, n[pair]
    return np.unique(pair, return_counts=True)


def _counts(system: LinSystem, side: int) -> _Counts:
    """The view's ``_Counts``, kept in the view's memo and shared by the
    exact systems of one support, which share one weight class array. A
    system with another array replaces it."""
    memo = side_view(system, side).memo
    kept = memo.get("counts")
    if kept is None or kept.weight_class is not system.arrays.weight_class:
        kept = memo["counts"] = _Counts(system, side)
    return kept


def _best(nums: list[int], counts: np.ndarray) -> int:
    """The index i with the largest sum of ``nums[j] * counts[j, i]``, the
    smallest on ties, in Python ints."""
    scores = [sum(map(operator.mul, nums, col)) for col in counts.T.tolist()]
    return scores.index(max(scores))


def _holds(kept: _Counts, nums: list[int]) -> bool:
    """Whether every untied step of the kept walk still picks its choice as
    ``_best`` under the numerators ``nums``, so that the walk holds for
    them: a tied step keeps its choice under any numerators."""
    return all(_best([nums[c] for c in cls.tolist()], counts) == kept.choice[x] for x, cls, counts in kept.untied)


class _Patterns:
    """Hit counts of pattern keys as the unknowns range over h^3. Each key is
    scored once per instance: the keys seen so far stay sorted, with their
    hit rows, and only keys missing from them are scored."""

    def __init__(self, tables: SideTables, h: np.ndarray):
        n, k = len(tables.group), len(h)
        self.tables, self.n, self.k = tables, n, k
        self.radix = radix = n + _UNKNOWN_CODES
        # key = ((c0 * radix + c1) * radix + c2) * n + rhs for slot codes c
        place = np.array([radix * radix * n, radix * n, n], dtype=np.int64)
        # shape s has slot states s // 49, s // 7 % 7, s % 7: 0 is a fixed
        # slot, 1 + c a slot with unknown code n + c
        states = np.indices((7, 7, 7)).reshape(3, -1)
        self.shape_keys = place @ np.where(states > 0, n - 1 + states, 0)
        self.shape_pos = place @ (states == 1)  # slots of unknown 0 ...
        self.shape_neg = place @ (states == 2)  # ... and of its inverse
        unknowns = h[np.indices((k, k, k)).reshape(3, -1)]  # [3, k^3]
        # row c: the value of a slot with code c at every grid point
        self.slot_values = np.empty((radix, k**3), dtype=np.int16)
        self.slot_values[:n] = np.arange(n, dtype=np.int16)[:, None]
        self.slot_values[n::2] = unknowns
        self.slot_values[n + 1 :: 2] = tables.inverses[unknowns]
        # the last key is a sentinel above every real key
        self.keys = np.array([np.iinfo(np.int64).max])
        self.hits = np.zeros((1, k), dtype=np.int64)

    def fixed_keys(self, value: int) -> np.ndarray:
        """Per shape, the key part its unknown-0 slots take once unknown 0
        is fixed to ``value``."""
        return self.shape_pos * value + self.shape_neg * int(self.tables.inverses[value])

    def lookup(self, shape: np.ndarray, known: np.ndarray) -> np.ndarray:
        """The positions in ``hits`` of the keys (shapes plus known parts),
        valid until the next lookup. Row ``hits[p]`` is the key's hits
        summed over unknowns 1 and 2, one entry per value of unknown 0; an
        unknown the equation does not use multiplies its hits by |h|."""
        key = self.shape_keys[shape] + known
        pos = np.searchsorted(self.keys, key)
        miss = self.keys[pos] != key
        if miss.any():
            new = np.unique(key[miss])
            at = np.searchsorted(self.keys, new)
            rest, radix = new // self.n, self.radix
            slots = np.stack([rest // (radix * radix), rest // radix % radix, rest % radix], axis=1)
            self.hits = np.insert(self.hits, at, self._hits(slots, new % self.n), axis=0)
            self.keys = np.insert(self.keys, at, new)
            pos = np.searchsorted(self.keys, key)
        return pos

    def _hits(self, slots: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        k, vals = self.k, self.slot_values
        out = np.empty((len(rhs), k), dtype=np.int64)
        step = max(1, _BLOCK_CELLS // k**3)
        for lo in range(0, len(rhs), step):
            s = slots[lo : lo + step]
            prod = self.tables.products(vals[s[:, 0]], vals[s[:, 1]], vals[s[:, 2]])
            hit = prod == rhs[lo : lo + step, None]
            out[lo : lo + step] = hit.reshape(len(s), k, k * k).sum(axis=2)
        return out


def brute_force_opt(system: LinSystem, side: int, cap: int | None = None):
    """Exact optimum over all assignments into the side's full group.

    Returns (value, assignment); among optima the lexicographically first
    assignment (variables in system order, values ascending) wins.
    """
    tables = side_tables(system.template, side)
    enc = system.arrays
    n, n_vars = len(tables.group), len(system.variables)
    n_assign = n**n_vars
    limit = enum_cap(cap)
    if n_assign * len(enc) > limit:
        raise CapExceeded(
            f"{n_assign} assignments x {len(enc)} equations = {n_assign * len(enc)}"
            f" evaluations exceed the cap {limit}"
        )
    rhs = tables.rhs_map[enc.rhs]
    one_hot = np.zeros((len(rhs), len(enc.weights)), dtype=np.int64)
    one_hot[np.arange(len(rhs)), enc.weight_class] = 1
    sizes = one_hot.sum(axis=0) + 1
    # the first variable is the most significant digit: lexicographic order
    place = n ** np.arange(n_vars - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // len(rhs))
    best_val = None
    best = None
    for lo in range(0, n_assign, step):
        idx = np.arange(lo, min(lo + step, n_assign), dtype=np.int64)
        values = (idx[:, None] // place % n).astype(np.int16)
        t = tables.term_values(values[:, enc.var_ids], enc.signs)
        hit = tables.products(t[..., 0], t[..., 1], t[..., 2]) == rhs
        counts = hit @ one_hot
        _, first = np.unique(_codes(counts.T, sizes), return_index=True)
        row_vals = [enc.weigh(r) for r in counts[first]]
        top = max(row_vals)
        if best_val is None or top > best_val:
            pick = min(int(f) for f, v in zip(first, row_vals) if v == top)
            best_val, best = top, values[pick]
    return best_val, {x: int(v) for x, v in zip(system.variables, best)}


def _ranks(v: np.ndarray) -> np.ndarray:
    """int8 [3, m]: the rank of each slot's variable (``v``, [3, m]) among
    the distinct variables of its equation, 0 for the smallest."""
    a, b, c = v
    lo = np.minimum(np.minimum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return (v > lo).astype(np.int8) + ((v > mid) & (mid > lo))


def _shapes(ranks: np.ndarray, neg: np.ndarray, rank: np.ndarray | int) -> np.ndarray:
    """The shapes of equations (columns of ``ranks`` and of ``neg``, the
    negative signs) seen from their variable of the given rank: that
    variable is unknown 0, larger ones follow in order, smaller ones are
    fixed."""
    d = ranks - np.int8(rank)
    state = np.where(d >= 0, 1 + 2 * d + neg, 0).astype(np.int16)
    return state[0] * 49 + state[1] * 7 + state[2]


def random_expectation(system: LinSystem, template: Template, side: int) -> Fraction:
    """Exact expected weight satisfied by independent uniform values from the
    constants subgroup (Dom(phi) on side 1, Im(phi) on side 2).

    An equation's hit probability depends only on its pattern key
    (repetitions, signs, rhs), so it is computed once per key. The hits per
    weight class are counted once and kept with the view; a call only
    weighs them.
    """
    tables, h = _side(system, template, side)
    kept = _counts(system, side)
    if kept.totals is None:
        enc, view = system.arrays, side_view(system, side)
        shape = _shapes(_ranks(view.rows(enc.var_ids).T), view.rows(enc.signs).T < 0, 0)
        rhs = tables.rhs_map[view.rows(enc.rhs)]
        cls, hits = _class_hits(kept, _Patterns(tables, h), np.arange(len(rhs)), shape, rhs)
        kept.totals = list(zip(cls.tolist(), hits.sum(axis=1).tolist()))
    return _weigh(system, kept.totals, len(h) ** 3)


def _class_hits(kept: _Counts, patterns: _Patterns, rows: np.ndarray, shape: np.ndarray, known: np.ndarray):
    """The hits of the view's ``rows``, whose keys are ``shape`` plus
    ``known``, summed per weight class: the classes, ascending, and their
    sums, one column per value of unknown 0."""
    parts = []
    for lo in range(0, len(rows), _KEY_BLOCK):
        sl = slice(lo, lo + _KEY_BLOCK)
        parts.append(kept.count(rows[sl], patterns.lookup(shape[sl], known[sl]), patterns.hits))
    if len(parts) == 1:
        return parts[0]
    cls = np.concatenate([c for c, _ in parts])
    order = np.argsort(cls, kind="stable")
    first = _firsts(cls[order])
    return cls[order][first], np.add.reduceat(np.concatenate([n for _, n in parts])[order], first, axis=0)


def _incidence(var_ids: np.ndarray, signs: np.ndarray, n_vars: int):
    """The equations touching each variable, each listed once, as rows
    grouped by variable: variable x owns rows ``indptr[x]:indptr[x + 1]``,
    and row r is equation ``eqs[r]`` with its shape seen from x,
    ``shape[r]``."""
    v = var_ids.T
    first = np.ones(v.shape, dtype=bool)
    first[1] = v[1] != v[0]
    first[2] = (v[2] != v[0]) & (v[2] != v[1])
    var = v[first]
    indptr = np.zeros(n_vars + 1, dtype=np.int64)
    np.cumsum(np.bincount(var, minlength=n_vars), out=indptr[1:])
    order = np.argsort(var)
    del var  # freed before the gathers below, which set the peak memory
    eqs = np.broadcast_to(np.arange(len(var_ids), dtype=np.int32), v.shape)[first][order]
    ranks, neg = _ranks(v), signs.T < 0
    # the shape of each equation seen from the variable in each slot
    seen = np.stack([_shapes(ranks, neg, ranks[j]) for j in range(3)])
    out = eqs, seen[first][order], indptr
    for array in out:
        array.flags.writeable = False  # kept in the view's memo
    return out


def derandomize(system: LinSystem, template: Template, side: int) -> dict[str, int]:
    """Fix variables one at a time, keeping the conditional expectation of the
    satisfied weight maximal; ties go to the smallest element index.

    Variable x is scored on the equations that touch it: earlier variables
    are fixed, x is unknown 0, and later ones are unknowns 1 and 2, uniform
    on the constants subgroup. Scores are weight numerators over the
    weights' common denominator times hits, so they compare exactly. The
    walk's untied steps are kept with the view: a call reuses the walk
    where they hold, and walks again from the first variable otherwise.
    """
    kept, h = _path(system, template, side)
    return {x: int(val) for x, val in zip(system.variables, h[kept.choice])}


def derandomized_value(system: LinSystem, template: Template, side: int) -> Fraction:
    """The exact weight that ``derandomize``'s assignment satisfies, weighed
    from the hits per weight class kept with its path."""
    kept, h = _path(system, template, side)
    return _weigh(system, kept.assigned, len(h) ** 2)


def _path(system: LinSystem, template: Template, side: int):
    """The view's ``_Counts`` with ``derandomize``'s walk for the system's
    weights, and the constants subgroup. Where the kept walk does not hold
    for them, the whole walk is redone and its end counted."""
    tables, h = _side(system, template, side)
    kept = _counts(system, side)
    nums = system.arrays.numerators[0]
    if kept.assigned is not None and _holds(kept, nums):
        return kept, h
    patterns = _Patterns(tables, h)
    enc, view = system.arrays, side_view(system, side)
    # the incidence depends on the view's rows alone, so it is kept with the view
    if "incidence" not in view.memo:
        var_ids, signs = view.rows(enc.var_ids), view.rows(enc.signs)
        view.memo["incidence"] = _incidence(var_ids, signs, len(system.variables))
    eqs, shape, indptr = view.memo["incidence"]
    # the rhs plus the key parts of the slots already fixed, per row
    known = tables.rhs_map[view.rows(enc.rhs)].astype(np.int64)
    kept.assigned, kept.untied = None, []
    for x in np.flatnonzero(indptr[1:] > indptr[:-1]).tolist():
        own = slice(indptr[x], indptr[x + 1])
        rows = eqs[own]
        cls, counts = _class_hits(kept, patterns, rows, shape[own], known[rows])
        kept.choice[x] = _best([nums[c] for c in cls.tolist()], counts)
        if not (counts == counts[:, :1]).all():
            kept.untied.append((x, cls, counts))
        known[rows] += patterns.fixed_keys(h[kept.choice[x]])[shape[own]]
    # every slot is fixed now: shape 0, |h|^2 per hit at every value
    rows = np.arange(len(known))
    cls, hits = _class_hits(kept, patterns, rows, np.zeros(len(rows), dtype=np.int16), known)
    kept.assigned = list(zip(cls.tolist(), hits[:, 0].tolist()))
    return kept, h


def unsatisfiable_mask(system: LinSystem, template: Template) -> np.ndarray:
    """Which equations are x^3 = h or x^-3 = h with phi(h)^{+-1} not a cube
    in G2 (the per-equation test in ``tests/reference_groups.py``), as a bool
    array over the system's encoding."""
    _check_template(system, template)
    enc = system.arrays
    g2 = side_tables(template, 2)
    cubes = np.zeros(len(g2.group), dtype=bool)
    cubes[list(cube_image(template.g2))] = True
    v, s = enc.var_ids, enc.signs
    cubic = (v[:, 0] == v[:, 1]) & (v[:, 1] == v[:, 2]) & (s[:, 0] == s[:, 1]) & (s[:, 1] == s[:, 2])
    target = g2.term_values(g2.rhs_map[enc.rhs], s[:, 0])
    return cubic & ~cubes[target]


def non_cubic_solve(system: LinSystem, template: Template, c: Fraction) -> dict:
    """Reject when unsatisfiable equations outweigh 1-c; otherwise return the
    derandomized subgroup assignment on side 2 with its exact value."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise InvalidParams(f"c must be in (0,1], got {c}")
    enc = system.arrays
    unsat = enc.weigh(
        np.bincount(enc.weight_class[unsatisfiable_mask(system, template)], minlength=len(enc.weights))
    )
    if unsat > 1 - c:
        return {"status": "reject", "unsat_weight": unsat}
    return {
        "status": "accept",
        "unsat_weight": unsat,
        "assignment": derandomize(system, template, 2),
        "value": derandomized_value(system, template, 2),
    }
