"""Seeded inputs for the benchmark workloads.

Every input goes through the library's own constructors (``make_label_cover``,
``projection_family``, ``MatrixFn``), so a malformed input fails loudly. The
same seed always gives the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from grouplin import catalog
from grouplin.fourier import MatrixFn
from grouplin.groups import GroupPower
from grouplin.reduction import make_label_cover, projection_family

# ε = k / 4001 with 1 <= k <= 1000: inside (0, 1/4], and every value has the
# same prime denominator, so each op does the same amount of Fraction work.
EPS_DENOMINATOR = 4001
EPS_COUNT = 1000

D_LABELS = ("d0", "d1")
E_LABELS = ("e0", "e1")
SYSTEM_EPS = Fraction(1, 8)


def raw_tuples(lc, template) -> int:
    """Tuples of an exact reduction: one per (edge, a, b, nu, s1, s2)."""
    g1 = len(template.g1)
    return len(lc.edges) * g1 ** len(lc.e_labels) * g1 ** (2 * len(lc.d_labels)) * 4


def eps_list(seed: int) -> list[Fraction]:
    """A seeded permutation of the distinct noise rates an op draws from."""
    ks = np.random.default_rng([seed, 1]).permutation(np.arange(1, EPS_COUNT + 1))
    return [Fraction(int(k), EPS_DENOMINATOR) for k in ks]


def planted_family(seed: int, lc, template):
    """The side-2 planted projection family of a seeded labeling of ``lc``."""
    rng = np.random.default_rng([seed, 2])
    h_d = {u: lc.d_labels[rng.integers(len(lc.d_labels))] for u in lc.u_names}
    h_e = {v: lc.e_labels[rng.integers(len(lc.e_labels))] for v in lc.v_names}
    return projection_family(lc, template, h_d, h_e, side=2)


def two_edge_label_cover(projections):
    """|D| = |E| = 2, U = {u0, u1}, V = {v0}; one projection per edge."""
    return make_label_cover(
        D_LABELS,
        E_LABELS,
        ["u0", "u1"],
        ["v0"],
        [(u, "v0", pi) for u, pi in zip(["u0", "u1"], projections)],
    )


def all_projections() -> list[dict[str, str]]:
    """The four maps D -> E, in a fixed order."""
    return [{"d0": e0, "d1": e1} for e0 in E_LABELS for e1 in E_LABELS]


def system_label_cover(seed: int):
    """The seeded Label Cover instance of the ``system_files`` workload."""
    rng = np.random.default_rng([seed, 3])
    maps = all_projections()
    return two_edge_label_cover([maps[rng.integers(len(maps))] for _ in range(2)])


def bijective_label_cover():
    """The fixed instance of the second-template check: both projections are
    bijections, one the identity and one the swap."""
    return two_edge_label_cover(
        [{"d0": "e0", "d1": "e1"}, {"d0": "e1", "d1": "e0"}]
    )


def g2_assignment(seed: int, system) -> dict[str, int]:
    """A seeded assignment of every system variable into G2."""
    rng = np.random.default_rng([seed, 4])
    size = len(system.template.g2)
    return {x: int(rng.integers(size)) for x in system.variables}


def s3_power_functions(seed: int, count: int) -> list[MatrixFn]:
    """``count`` seeded complex 2x2-matrix-valued functions on S3^4."""
    power = GroupPower(catalog.group("s3"), ["d0", "d1", "d2", "d3"])
    rng = np.random.default_rng([seed, 5])
    shape = (power.n, 2, 2)
    return [
        MatrixFn(power, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(count)
    ]
