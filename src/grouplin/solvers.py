"""Baseline algorithms for weighted 3-variable equation systems over a
template: exhaustive optimum, the exact expectation of the random subgroup
assignment, its derandomization, and the accept/reject routine that handles
unsatisfiable cube equations.

The first three run on the system's integer encoding (``LinSystem.arrays``):
hits are counted per weight class in int64, and exact ``Fraction``
arithmetic touches only the few distinct weights.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InvalidParams, enum_cap
from .groups import Template, cube_image
from .reduction import (
    EQUATION_BLOCK,
    LinSystem,
    SideTables,
    evaluate,
    side_tables,
)

# Cells of (assignment or pattern) x (equation or grid point) per kernel
# block, which bounds the kernels' scratch memory.
_BLOCK_CELLS = 1 << 18

# A slot of an equation is coded as one int. Codes 0..n-1 are known term
# values (the sign already applied); code n + 2*k + s is unknown k (k = 0, 1,
# 2) raised to +1 (s = 0) or -1 (s = 1). The three slot codes and the rhs make
# up the equation's pattern: its hits over the unknowns depend on nothing else.
_UNKNOWN_CODES = 6


def _constants(template: Template, side: int) -> np.ndarray:
    """The constants subgroup, ascending: Dom(phi) on side 1, Im(phi) on 2."""
    if side not in (1, 2):
        raise InvalidParams("side must be 1 or 2")
    h = template.h1 if side == 1 else template.h2
    return np.array(h.members, dtype=np.int16)


class _Patterns:
    """Hit counts of slot-coded equations as the unknowns range over h^3."""

    def __init__(self, tables: SideTables, h: np.ndarray):
        n, k = len(tables.group), len(h)
        self.tables, self.n, self.k = tables, n, k
        unknowns = h[np.indices((k, k, k)).reshape(3, -1)]  # [3, k^3]
        # row c: the value of a slot with code c at every grid point
        self.slot_values = np.empty((n + _UNKNOWN_CODES, k**3), dtype=np.int16)
        self.slot_values[:n] = np.arange(n, dtype=np.int16)[:, None]
        self.slot_values[n::2] = unknowns
        self.slot_values[n + 1 :: 2] = tables.inverses[unknowns]

    def count(self, codes: np.ndarray, rhs: np.ndarray, weight_class: np.ndarray, n_classes: int) -> np.ndarray:
        """Hits of the equations (slot codes [r, 3], rhs [r]) per weight class,
        summed over unknowns 1 and 2: int64 [classes, |h|], one column per
        value of unknown 0. An unknown the equation does not use multiplies
        its hits by |h|, so each column is |h|^2 times the expected hits.

        Hits are computed once per distinct pattern among the rows.
        """
        n, radix = self.n, self.n + _UNKNOWN_CODES
        c = codes.astype(np.int64)
        key = ((c[:, 0] * radix + c[:, 1]) * radix + c[:, 2]) * n + rhs
        uniq, inverse = np.unique(key, return_inverse=True)
        flat = weight_class.astype(np.int64) * len(uniq) + inverse
        per_class = np.bincount(flat, minlength=n_classes * len(uniq)).reshape(n_classes, len(uniq))
        rest = uniq // n
        slots = np.stack([rest // (radix * radix), rest // radix % radix, rest % radix], axis=1)
        return per_class @ self._hits(slots, uniq % n)

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


def random_expectation(system: LinSystem, template: Template, side: int) -> Fraction:
    """Exact expected weight satisfied by independent uniform values from the
    constants subgroup (Dom(phi) on side 1, Im(phi) on side 2).

    An equation's hit probability depends only on its pattern (repetitions,
    signs, rhs), so it is computed once per pattern.
    """
    h = _constants(template, side)
    tables = side_tables(system.template, side)
    patterns = _Patterns(tables, h)
    enc = system.arrays
    hits = np.zeros(len(enc.weights), dtype=np.int64)
    for lo in range(0, len(enc.rhs), EQUATION_BLOCK):
        sl = slice(lo, lo + EQUATION_BLOCK)
        v = enc.var_ids[sl]
        # unknown k is the k-th distinct variable of the equation
        u1 = (v[:, 1] != v[:, 0]).astype(np.int32)
        u2 = np.where(v[:, 2] == v[:, 0], 0, np.where(v[:, 2] == v[:, 1], u1, u1 + 1))
        unknown = np.stack([np.zeros_like(u1), u1, u2], axis=1)
        codes = patterns.n + 2 * unknown + (enc.signs[sl] < 0)
        rhs = tables.rhs_map[enc.rhs[sl]]
        hits += patterns.count(codes, rhs, enc.weight_class[sl], len(enc.weights)).sum(axis=1)
    return enc.weigh(hits) / len(h) ** 3


def _incidence(var_ids: np.ndarray, n_vars: int):
    """CSR of the equations touching each variable, each listed once and in
    system order: ``eqs[indptr[x]:indptr[x + 1]]`` touch variable ``x``."""
    v = var_ids
    first = np.ones(v.shape, dtype=bool)
    first[:, 1] = v[:, 1] != v[:, 0]
    first[:, 2] = (v[:, 2] != v[:, 0]) & (v[:, 2] != v[:, 1])
    eqs = np.broadcast_to(np.arange(len(v), dtype=np.int32)[:, None], v.shape)[first]
    var = v[first]
    order = np.argsort(var, kind="stable")
    indptr = np.zeros(n_vars + 1, dtype=np.int64)
    np.cumsum(np.bincount(var, minlength=n_vars), out=indptr[1:])
    return eqs[order], indptr


def derandomize(system: LinSystem, template: Template, side: int) -> dict[str, int]:
    """Fix variables one at a time, keeping the conditional expectation of the
    satisfied weight maximal; ties go to the smallest element index.

    Variable x is scored on the equations that touch it: earlier variables
    are fixed, x is unknown 0, and later ones are unknowns 1 and 2, uniform
    on the constants subgroup.
    """
    h = _constants(template, side)
    tables = side_tables(system.template, side)
    patterns = _Patterns(tables, h)
    enc = system.arrays
    rhs = tables.rhs_map[enc.rhs]
    eqs_of, indptr = _incidence(enc.var_ids, len(system.variables))
    values = np.zeros(len(system.variables), dtype=np.int16)
    for x in range(len(system.variables)):
        hits = np.zeros((len(enc.weights), len(h)), dtype=np.int64)
        for lo in range(indptr[x], indptr[x + 1], EQUATION_BLOCK):
            eqs = eqs_of[lo : min(lo + EQUATION_BLOCK, indptr[x + 1])]
            v, signs = enc.var_ids[eqs], enc.signs[eqs]
            first_free = np.where(v > x, v, np.iinfo(v.dtype).max).min(axis=1)
            unknown = np.where(v == x, 0, np.where(v == first_free[:, None], 1, 2))
            codes = np.where(
                v < x, tables.term_values(values[v], signs), patterns.n + 2 * unknown + (signs < 0)
            )
            hits += patterns.count(codes, rhs[eqs], enc.weight_class[eqs], len(enc.weights))
        scores = [enc.weigh(hits[:, c]) for c in range(len(h))]
        values[x] = h[max(range(len(h)), key=scores.__getitem__)]
    return {x: int(val) for x, val in zip(system.variables, values)}


def unsatisfiable_mask(system: LinSystem, template: Template) -> np.ndarray:
    """Which equations are x^3 = h or x^-3 = h with phi(h)^{+-1} not a cube
    in G2 (the test of ``groups.is_unsatisfiable_equation``), as a bool
    array over the system's encoding."""
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
