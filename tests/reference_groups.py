"""Reference group arithmetic, one element or one tuple at a time: the loops
that the array kernels in ``grouplin.groups`` (``GroupPower.encode``,
``mul_array``, ``inv_array`` and ``coset_arrays``) and the solvers'
unsatisfiable-equation mask replace. They are slow and obviously correct;
the references and the equivalence tests build on them.
"""

from __future__ import annotations

from grouplin.errors import InvalidParams
from grouplin.groups import GroupPower, cube_image


def index(power: GroupPower, coords) -> int:
    """The flat index of a tuple of ``power``, first coordinate most
    significant."""
    size, out = len(power.group), 0
    for c in coords:
        out = out * size + int(c)
    return out


def mul(power: GroupPower, i: int, j: int) -> int:
    t = power.group.table
    return index(power, [t[a][b] for a, b in zip(power.coords(i), power.coords(j))])


def inv(power: GroupPower, i: int) -> int:
    return index(power, [power.group.inverses[a] for a in power.coords(i)])


def pow_sign(group, i: int, s: int) -> int:
    """``i`` raised to ``s`` in {-1, +1}, in a group or in a ``GroupPower``."""
    if s == 1:
        return i
    return inv(group, i) if isinstance(group, GroupPower) else group.inv(i)


def act(power: GroupPower, h: int, i: int) -> int:
    """Diagonal left action: multiply every coordinate by ``h``."""
    t = power.group.table
    return index(power, [t[h][a] for a in power.coords(i)])


def apply(phi, i: int) -> int:
    """phi(i), for i in its domain."""
    image = dict(phi.mapping)
    if i not in image:
        raise InvalidParams(f"element {i} outside the domain")
    return image[i]


def is_unsatisfiable_equation(eq, template) -> bool:
    """True iff ``eq`` is x^3 = h or x^-3 = h with phi(h)^{+-1} not a cube.

    ``eq`` must expose ``terms`` (three (variable, exponent) pairs) and
    ``rhs`` (an element of Dom(phi)).
    """
    variables = {v for v, _ in eq.terms}
    exponents = [s for _, s in eq.terms]
    if len(variables) != 1:
        return False
    if exponents not in ([1, 1, 1], [-1, -1, -1]):
        return False
    g2 = template.g2
    target = apply(template.phi, eq.rhs)
    if exponents[0] == -1:
        target = g2.inv(target)
    return target not in cube_image(g2)
