"""Baseline algorithms for weighted 3-variable equation systems over a
template: exhaustive optimum, the exact expectation of the random subgroup
assignment, its derandomization, and the accept/reject routine that handles
unsatisfiable cube equations.

The first three run on the system's integer encoding (``LinSystem.arrays``)
and stay exact. ``brute_force_opt`` counts hits per weight class in int64
and weighs the counts as ``Fraction``s. ``random_expectation`` and
``derandomize`` run on the side's view of the system (``side_view``), where
equations equal on that side are one row; they score each distinct equation
pattern once per call and sum integer weight numerators over the weights'
common denominator. The view, and the incidence ``derandomize`` builds on it,
depend on no weight, so they are kept with the system (with its support, for
an exact reduction) and serve every call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InvalidParams, enum_cap
from .groups import Template, cube_image
from .reduction import LinSystem, SideTables, evaluate, side_tables, side_view

# Cells of (assignment or pattern) x (equation or grid point) per kernel
# block, which bounds the kernels' scratch memory.
_BLOCK_CELLS = 1 << 18

# Rows (equations, or equations touching one variable) looked up at once,
# which bounds the solvers' scratch memory.
_KEY_BLOCK = 1 << 14

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


def _numerators(enc, max_hits: int):
    """Each equation's weight times the weights' common denominator, and
    that denominator. The numerators are int64 when every score (weight
    times at most ``max_hits`` hits, summed) fits, Python ints otherwise."""
    denom = math.lcm(*(w.denominator for w in enc.weights))
    used = np.bincount(enc.weight_class, minlength=len(enc.weights))
    nums = [w.numerator * (denom // w.denominator) if c else 0 for w, c in zip(enc.weights, used)]
    fits = max_hits * sum(num * int(c) for num, c in zip(nums, used)) < 2**63
    return np.array(nums, dtype=np.int64 if fits else object)[enc.weight_class], denom


def _view_rows(system: LinSystem, side: int, tables: SideTables, max_hits: int):
    """The rows the side scores, one per group of its ``side_view``: the
    variable ids, signs and side constant shared by the group's equations,
    and the group's summed weight numerator; then the weights' common
    denominator."""
    enc, view = system.arrays, side_view(system, side)
    weight, denom = _numerators(enc, max_hits)
    rhs = tables.rhs_map[view.rows(enc.rhs)]
    return view.rows(enc.var_ids), view.rows(enc.signs), rhs, view.sums(weight), denom


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

    def score(self, shape: np.ndarray, known: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Weighted hits of the keys (shapes plus known parts), summed over
        the rows and over unknowns 1 and 2: one entry per value of unknown
        0. An unknown the equation does not use multiplies its hits by |h|,
        so each entry is |h|^2 times the expected weighted hits."""
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
        per_key = np.zeros(len(self.keys), dtype=weight.dtype)
        np.add.at(per_key, pos, weight)
        return per_key @ self.hits

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
        rows, first = np.unique(hit @ one_hot, axis=0, return_index=True)
        row_vals = [enc.weigh(r) for r in rows]
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
    (repetitions, signs, rhs), so it is computed once per key.
    """
    tables, h = _side(system, template, side)
    patterns = _Patterns(tables, h)
    var_ids, signs, rhs, weight, denom = _view_rows(system, side, tables, len(h) ** 3)
    total = 0
    for lo in range(0, len(rhs), _KEY_BLOCK):
        sl = slice(lo, lo + _KEY_BLOCK)
        shape = _shapes(_ranks(var_ids[sl].T), signs[sl].T < 0, 0)
        total += int(patterns.score(shape, rhs[sl], weight[sl]).sum())
    return Fraction(total, denom * len(h) ** 3)


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
    weights' common denominator times hits, so they compare exactly.
    """
    tables, h = _side(system, template, side)
    patterns = _Patterns(tables, h)
    var_ids, signs, rhs, weight, _ = _view_rows(system, side, tables, len(h) ** 2)
    # the incidence depends on the view's rows alone, so it is kept with the view
    memo = side_view(system, side).memo
    if "incidence" not in memo:
        memo["incidence"] = _incidence(var_ids, signs, len(system.variables))
    eqs, shape, indptr = memo["incidence"]
    # the rhs plus the key parts of the slots already fixed, per row
    known = rhs.astype(np.int64)
    values = np.empty(len(system.variables), dtype=np.int16)
    for x in range(len(system.variables)):
        end = indptr[x + 1]
        blocks = [slice(lo, min(lo + _KEY_BLOCK, end)) for lo in range(indptr[x], end, _KEY_BLOCK)]
        score = np.zeros(len(h), dtype=weight.dtype)
        for b in blocks:
            score += patterns.score(shape[b], known[eqs[b]], weight[eqs[b]])
        values[x] = h[np.argmax(score)]
        fixed = patterns.fixed_keys(values[x])
        for b in blocks:
            known[eqs[b]] += fixed[shape[b]]
    return {x: int(val) for x, val in zip(system.variables, values)}


def unsatisfiable_mask(system: LinSystem, template: Template) -> np.ndarray:
    """Which equations are x^3 = h or x^-3 = h with phi(h)^{+-1} not a cube
    in G2 (the test of ``groups.is_unsatisfiable_equation``), as a bool
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
    assignment = derandomize(system, template, 2)
    value = evaluate(system, assignment, 2)
    return {
        "status": "accept",
        "unsat_weight": unsat,
        "assignment": assignment,
        "value": value,
    }
