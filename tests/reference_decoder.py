"""Reference decoder formulas: ``kappa`` with its correction step always
taken in ``Fraction`` powers, and ``alpha`` in ``Fraction`` arithmetic, as
they were before ``grouplin.decoder`` moved them to integers; and a
Monte-Carlo estimate of a strategy's value. The tests hold the integer
versions and the decoder's exact agreement to them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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


def simulate_strategy(lc, strategy, samples: int, seed: int = 0):
    """Monte-Carlo estimate of the expected agreement; returns (mean, sigma)
    where sigma is the standard error of the mean."""
    rng = np.random.default_rng(seed)

    def draw(probs, labels):
        p = np.array([max(probs.get(l, 0.0), 0.0) for l in labels])
        give_up = max(0.0, 1.0 - p.sum())
        full = np.append(p, give_up)
        full /= full.sum()
        return rng.choice(len(labels) + 1, size=samples, p=full)

    v_draws = {v: draw(strategy.v_probs[v], lc.e_labels) for v in lc.v_names}
    u_draws = {u: draw(strategy.u_probs[u], lc.d_labels) for u in lc.u_names}
    epos = {l: k for k, l in enumerate(lc.e_labels)}
    acc = np.zeros(samples)
    for u, v, pi in lc.edge_maps():
        du, ev = u_draws[u], v_draws[v]
        ok = np.zeros(samples, dtype=bool)
        for k, d in enumerate(lc.d_labels):
            ok |= (du == k) & (ev == epos[str(pi[d])])
        acc += ok
    values = acc / len(lc.edges)
    mean = float(values.mean())
    sigma = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, sigma
