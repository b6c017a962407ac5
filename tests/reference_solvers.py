"""Reference solvers: the per-equation ``Fraction`` loops that the array
kernels in ``grouplin.solvers`` and ``grouplin.reduction.evaluate`` replace.
They are slow and obviously correct; the equivalence tests hold the kernels
to them.

One deliberate difference from the original loops: ``derandomize`` lists the
equations touching a variable once per equation *position*. The original
de-duplicated them by value, so two identical equations in one system were
scored as one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from grouplin.errors import CapExceeded, InvalidParams, MissingVariable, enum_cap

from reference_groups import apply, pow_sign


def _side_group(template, side):
    if side == 1:
        return template.g1, template.h1
    if side == 2:
        return template.g2, template.h2
    raise InvalidParams("side must be 1 or 2")


def _rhs(template, eq, side):
    return eq.rhs if side == 1 else apply(template.phi, eq.rhs)


def _term_value(group, assignment, var, sign):
    if var not in assignment:
        raise MissingVariable(var)
    return pow_sign(group, int(assignment[var]), sign)


def evaluate(system, assignment, side):
    if side not in (1, 2):
        raise InvalidParams("side must be 1 or 2")
    template = system.template
    group = template.g1 if side == 1 else template.g2
    for x in system.variables:
        if x not in assignment:
            raise MissingVariable(x)
    total = Fraction(0)
    for eq in system.equations:
        acc = group.identity
        for var, sign in eq.terms:
            acc = group.mul(acc, _term_value(group, assignment, var, sign))
        if acc == _rhs(template, eq, side):
            total += eq.weight
    return total


def brute_force_opt(system, side, cap=None):
    group, _ = _side_group(system.template, side)
    n_assign = len(group) ** len(system.variables)
    limit = enum_cap(cap)
    if n_assign > limit:
        raise CapExceeded(f"{n_assign} assignments exceed the cap {limit}")
    best_val = None
    best = None
    for combo in itertools.product(range(len(group)), repeat=len(system.variables)):
        assignment = dict(zip(system.variables, combo))
        val = evaluate(system, assignment, side)
        if best_val is None or val > best_val:
            best_val, best = val, assignment
    return best_val, best


def _equation_probability(system, eq, side, fixed, domain):
    """P(eq satisfied) when unfixed variables are uniform on ``domain``."""
    group, _ = _side_group(system.template, side)
    rhs = _rhs(system.template, eq, side)
    free = sorted({v for v, _ in eq.terms if v not in fixed})
    hits = 0
    for combo in itertools.product(domain, repeat=len(free)):
        local = dict(zip(free, combo))
        acc = group.identity
        for var, sign in eq.terms:
            val = fixed.get(var, local.get(var))
            acc = group.mul(acc, pow_sign(group, val, sign))
        if acc == rhs:
            hits += 1
    return Fraction(hits, len(domain) ** len(free)) if free else Fraction(hits)


def random_expectation(system, template, side):
    _, h = _side_group(template, side)
    return sum(
        (
            eq.weight * _equation_probability(system, eq, side, {}, h.members)
            for eq in system.equations
        ),
        Fraction(0),
    )


def derandomize(system, template, side):
    _, h = _side_group(template, side)
    by_var = {x: [] for x in system.variables}
    for k, eq in enumerate(system.equations):
        for v, _ in eq.terms:
            by_var[v].append(k)
    fixed = {}
    for x in system.variables:
        eqs = [system.equations[k] for k in dict.fromkeys(by_var[x])]
        best_val = None
        best_elem = None
        for elem in h.members:
            fixed[x] = elem
            score = sum(
                (
                    eq.weight * _equation_probability(system, eq, side, fixed, h.members)
                    for eq in eqs
                ),
                Fraction(0),
            )
            if best_val is None or score > best_val:
                best_val, best_elem = score, elem
        fixed[x] = best_elem
    return fixed


def first_changed(path, choice, nums):
    """The first step of a kept ``derandomize`` walk (steps of variable,
    weight classes and counts) whose choice is not the best under the
    weight class numerators ``nums``, or the walk's length. Step by step,
    as ``solvers._best`` scores one step: per value, the sum of ``nums[c]``
    times the step's count for weight class c, in Python ints, the smallest
    value on ties."""
    for step, (x, classes, counts) in enumerate(path):
        scores = [sum(nums[c] * int(n) for c, n in zip(classes, col)) for col in counts.T.tolist()]
        if scores.index(max(scores)) != choice[x]:
            return step
    return len(path)


def untied_variables(system, template, side, assignment):
    """The variables, in order, whose ``derandomize`` step is not a
    weight-free tie: with the variables before it fixed as in
    ``assignment`` and later ones uniform on the constants subgroup, the
    equations of some weight class that touch it hit with different
    probabilities at two of its values."""
    _, h = _side_group(template, side)
    classes = system.arrays.weight_class.tolist()
    out, fixed = [], {}
    for x in system.variables:
        touching = [k for k, eq in enumerate(system.equations) if any(v == x for v, _ in eq.terms)]
        probs = {}  # (weight class, value) -> summed hit probability
        for elem in h.members:
            for k in touching:
                key = classes[k], elem
                probs[key] = probs.get(key, 0) + _equation_probability(
                    system, system.equations[k], side, {**fixed, x: elem}, h.members
                )
        if any(len({probs[c, elem] for elem in h.members}) > 1 for c in {classes[k] for k in touching}):
            out.append(x)
        fixed[x] = assignment[x]
    return out
