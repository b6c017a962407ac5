"""Reference decoder formulas: ``kappa`` with its correction step always
taken in ``Fraction`` powers, and ``alpha`` in ``Fraction`` arithmetic, as
they were before ``grouplin.decoder`` moved them to integers. The
equivalence tests hold the integer versions to them.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _ln(x: Fraction) -> float:
    """Natural log of a rational in (0, 1), accurate near 0 and near 1."""
    if x > Fraction(1, 2):
        return math.log1p(-float(1 - x))
    return math.log(x.numerator) - math.log(x.denominator)


def kappa(delta, eps) -> int:
    """The least k >= 1 with (1 - eps)^k <= delta / 4: a float guess,
    checked and corrected by one step with ``Fraction`` powers."""
    delta, eps = Fraction(delta), Fraction(eps)
    q, target = 1 - eps, delta / 4
    value = max(1, math.ceil(_ln(target) / _ln(q)))
    below = q ** (value - 1)
    if below * q > target:
        value += 1
    elif value > 1 and below <= target:
        value -= 1
    return value


def alpha(delta, eps, g1_size: int, g2_size: int) -> Fraction:
    """delta^2 / (4 k |G1|^k |G2|^4) as a product of ``Fraction``s."""
    delta = Fraction(delta)
    k = kappa(delta, eps)
    return delta**2 / (4 * k * Fraction(g1_size) ** k * Fraction(g2_size) ** 4)
