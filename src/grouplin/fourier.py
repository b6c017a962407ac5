"""Fourier analysis over a finite group and its direct powers.

Functions live on ``G^D`` as dense tables in row-major tuple order. The
Fourier basis is the set of matrix entries of product representations,
identified with tuples of irreducibles of the base group. They are tensor
products of base irreducibles, so the transform, its inverse and noise each
apply one |G| x |G| base matrix along every axis of the table in turn
(separation of variables): O(m |G|^(m+1)) per entry.

Convolution goes through the same kernel by the convolution theorem: each
block of F*H is the product of the matching blocks of F^ and H^. ``convolve``
costs two transforms, one block product and one inverse, plus the irreps of
the base group; the direct sum over the group that defines it is kept only as
a check (selftest ``fourier:convolution-coefficients`` and the test
reference).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, IncompleteTable, InvalidParams
from .groups import GroupPower
from .reps import IrrepSet, irreps


@dataclass(frozen=True, eq=False)
class ProductIrrep:
    """An irreducible of ``G^D``: one base irreducible per index position,
    the tensor product of the components, first position most significant."""

    base: IrrepSet
    labels: tuple[str, ...]
    comps: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.base.irreps[c].dim for c in self.comps)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def degree(self) -> int:
        """Number of non-trivial components."""
        return sum(1 for c in self.comps if c != 0)

    def _check_power(self, power: GroupPower) -> None:
        if power.labels != self.labels or power.group != self.base.group:
            raise DimensionMismatch("representation and power disagree")


def product_irreps(base: IrrepSet, labels) -> tuple[ProductIrrep, ...]:
    """All irreducibles of ``G^D`` in row-major component order, kept for
    the last 32 (irreps, labels)."""
    return _product_irreps(base, tuple(str(x) for x in labels))


@functools.lru_cache(maxsize=32)
def _product_irreps(base: IrrepSet, labels: tuple[str, ...]) -> tuple[ProductIrrep, ...]:
    k = len(base.irreps)
    return tuple(
        ProductIrrep(base, labels, comps)
        for comps in itertools.product(range(k), repeat=len(labels))
    )


@dataclass(frozen=True, eq=False)
class MatrixFn:
    """A square-matrix-valued function on ``G^D`` as a dense table; a
    complex-valued one is a 1 x 1 matrix function."""

    power: GroupPower
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != self.power.n or v.shape[1] != v.shape[2]:
            raise DimensionMismatch(f"expected ({self.power.n}, N, N), got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def matrix_size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FourierTable:
    """All Fourier coefficients of one function, grouped by representation."""

    power: GroupPower
    base: IrrepSet
    blocks: dict  # comps tuple -> (d, d, N, N) array
    matrix_size: int


def _base_entries(base: IrrepSet) -> np.ndarray:
    """(|G|, |G|): column (c, i, j), row-major, holds g -> rho_c(g)_ij; the
    columns of one irreducible are contiguous, in irreducible order."""
    n = len(base.group)
    return np.concatenate([r.matrices.reshape(n, -1) for r in base.irreps], axis=1)


def _per_axis(power: GroupPower, flat: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Contract each of the m group axes of ``flat`` (|G|^m rows in row-major
    tuple order) with axis 0 of ``mat``; the result has the same layout.

    Each step contracts the leading axis and appends the result as the last
    one, so after m steps the group axes are back in order, behind the
    trailing matrix axes."""
    values = flat.reshape(power.n, -1)
    for _ in range(power.m):
        values = values.reshape(len(power.group), -1).T @ mat
    return values.reshape(-1, power.n).T.reshape(flat.shape)


@functools.lru_cache(maxsize=4096)
def _block_index(dims: tuple[int, ...], comps: tuple[int, ...]) -> np.ndarray:
    """(dim, dim) rows of the block of the product irreducible ``comps`` (of
    base irreducibles of dimensions ``dims``) in a per-axis coefficient array:
    entry (i, j) combines the base columns (c_k, i_k, j_k), first position
    most significant, in the Kronecker order of the tensor product."""
    starts = np.cumsum([0] + [d * d for d in dims])  # starts[-1] = |G|
    index = np.zeros((1, 1), dtype=np.int64)
    for c in comps:
        d = dims[c]
        cols = starts[c] + np.arange(d * d).reshape(d, d)
        index = index[:, None, :, None] * starts[-1] + cols[None, :, None, :]
        index = index.reshape(index.shape[0] * index.shape[1], -1)
    index.flags.writeable = False  # shared by every caller
    return index


def _check_rhos(rhos, power: GroupPower, base: IrrepSet) -> None:
    for rho in rhos:
        rho._check_power(power)
        if rho.base is not base:
            raise DimensionMismatch("representations of different irreducible sets")


def transform(fn: MatrixFn, rhos: tuple[ProductIrrep, ...]) -> FourierTable:
    """The Fourier transform of ``fn``: one block per representation passed."""
    if not rhos:
        raise InvalidParams("pass the product representations to expand in")
    base = rhos[0].base
    _check_rhos(rhos, fn.power, base)
    forward = np.conj(_base_entries(base)) / len(base.group)
    coeffs = _per_axis(fn.power, fn.values, forward)
    dims = base.dims()
    blocks = {rho.comps: coeffs[_block_index(dims, rho.comps)] for rho in rhos}
    return FourierTable(fn.power, base, blocks, fn.matrix_size)


def inverse(table: FourierTable, rhos: tuple[ProductIrrep, ...]) -> MatrixFn:
    """Fourier inversion: F(g) = sum_rho dim_rho sum_ij F^(rho_ij) rho_ij(g)."""
    power, base = table.power, table.base
    _check_rhos(rhos, power, base)
    size = table.matrix_size
    coeffs = np.zeros((power.n, size, size), dtype=complex)
    dims = base.dims()
    seen = set()
    for rho in rhos:
        block = table.blocks.get(rho.comps)
        if block is None:
            raise IncompleteTable(f"no block for components {rho.comps}")
        seen.add(rho.comps)
        coeffs[_block_index(dims, rho.comps)] = block
    if len(seen) < len(table.blocks):
        raise IncompleteTable("representations passed do not cover the table")
    backward = _base_entries(base) * np.repeat(dims, [d * d for d in dims])
    return MatrixFn(power, _per_axis(power, coeffs, backward.T))


def plancherel_gap(fn: MatrixFn, rhos: tuple[ProductIrrep, ...]) -> float:
    """| ||F||^2 - sum_rho dim_rho sum_ij |F^(rho_ij)|^2 |."""
    table = transform(fn, rhos)
    lhs = float(np.mean(np.sum(np.abs(np.reshape(fn.values, (fn.power.n, -1))) ** 2, axis=1)))
    rhs = 0.0
    for rho in rhos:
        block = table.blocks[rho.comps]
        rhs += rho.dim * float(np.sum(np.abs(block) ** 2))
    return abs(lhs - rhs)


def _block_product(tf: FourierTable, th: FourierTable) -> FourierTable:
    """The convolution theorem, block by block: (F*H)^(rho) = F^(rho) H^(rho),
    as products of (d, d) blocks whose entries are N x N matrices."""
    blocks = {comps: np.einsum("ikxz,kjzy->ijxy", b, th.blocks[comps]) for comps, b in tf.blocks.items()}
    return replace(tf, blocks=blocks)


def convolve(f: MatrixFn, h: MatrixFn) -> MatrixFn:
    """(F*H)(g) = |G^D|^-1 sum_t F(t) H(t^-1 g).

    Computed by the convolution theorem: transform both, multiply the blocks
    and invert, over every product irreducible of the base group's irreps.
    The result does not depend on the choice of basis.
    """
    if f.power is not h.power and (
        f.power.labels != h.power.labels or f.power.group != h.power.group
    ):
        raise DimensionMismatch("convolution needs a common power")
    if f.matrix_size != h.matrix_size:
        raise DimensionMismatch("matrix sizes differ")
    rhos = product_irreps(irreps(f.power.group), f.power.labels)
    return inverse(_block_product(transform(f, rhos), transform(h, rhos)), rhos)


def noise_apply(fn: MatrixFn, eps: Fraction) -> MatrixFn:
    """H(a) = E_nu[F(a * nu)] with the product noise distribution: per
    coordinate, v <- (1 - eps) v + eps * mean(v)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidParams(f"noise rate must be in (0,1), got {eps}")
    size = len(fn.power.group)
    kernel = (1 - float(eps)) * np.eye(size) + float(eps) / size
    return MatrixFn(fn.power, _per_axis(fn.power, fn.values, kernel))

