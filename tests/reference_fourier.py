"""Reference Fourier code: the per-representation dense and entrywise sums
that the per-axis kernel in ``grouplin.fourier`` replaces, the direct
group-domain convolution sum that the convolution theorem replaces, and the
decoder's expansions written out over explicit representation matrices on top
of that sum. They are slow and obviously correct; the equivalence tests hold
the kernel to them.

Each block is a sum over the whole power against the representation's
dense matrices (``matrices``, or ``entry_table`` above the dense limit), and
noise is the sum over every noise tuple with its exact weight from
``reference_reduction.noise_weights``.
"""

from __future__ import annotations

import numpy as np

from grouplin.decoder import left_table, right_table
from grouplin.errors import CapExceeded, IncompleteTable, InvalidParams
from grouplin.fourier import FourierTable, MatrixFn
from grouplin.reduction import composed_inverse

from reference_groups import inv, mul
from reference_reduction import noise_weights

_DENSE_DIM_LIMIT = 64  # above this, dense (n, dim, dim) matrices are refused


def entry_coords(rho, i: int) -> tuple[int, ...]:
    """The flat entry index ``i`` of ``rho`` in the mixed-radix system of
    its component dimensions, first position most significant."""
    out = []
    for d in reversed(rho.dims):
        out.append(i % d)
        i //= d
    return tuple(reversed(out))


def matrices(rho, power) -> np.ndarray:
    """Dense (n, dim, dim) matrices of ``rho`` on ``power``; components
    combine by tensor product. Refused above the dense limit."""
    rho._check_power(power)
    if rho.dim > _DENSE_DIM_LIMIT:
        raise CapExceeded(f"dimension {rho.dim} above the dense limit; use entry_table")
    coords = power.coords_matrix()
    n = len(coords)
    out = np.ones((n, 1, 1), dtype=complex)
    for pos, c in enumerate(rho.comps):
        comp = rho.base.irreps[c].matrices[coords[:, pos]]
        out = np.einsum("gab,gcd->gacbd", out, comp).reshape(
            n, out.shape[1] * comp.shape[1], out.shape[2] * comp.shape[2]
        )
    return out


def entry_table(rho, power, i: int, j: int) -> np.ndarray:
    """The scalar function g -> rho_{i,j}(g) as a dense table."""
    rho._check_power(power)
    coords = power.coords_matrix()
    ci, cj = entry_coords(rho, i), entry_coords(rho, j)
    out = np.ones(len(coords), dtype=complex)
    for pos, c in enumerate(rho.comps):
        out = out * rho.base.irreps[c].matrices[coords[:, pos], ci[pos], cj[pos]]
    return out


def scalar(power, values) -> MatrixFn:
    """A complex-valued function on ``power`` as a 1 x 1 matrix function."""
    return MatrixFn(power, np.asarray(values, dtype=complex).reshape(-1, 1, 1))


def coeff(fn, rho, i: int, j: int):
    """Fourier coefficient <F, rho_{i,j}>: an N x N matrix, or for a 1 x 1
    function (``scalar``) the complex number."""
    entry = entry_table(rho, fn.power, i, j)
    out = np.einsum("g,gxy->xy", np.conj(entry), fn.values) / fn.power.n
    return complex(out[0, 0]) if fn.matrix_size == 1 else out


def coefficient_block(fn, rho) -> np.ndarray:
    if rho.dim <= _DENSE_DIM_LIMIT:
        mats = matrices(rho, fn.power)
        return np.einsum("gxy,gij->ijxy", fn.values, np.conj(mats)) / fn.power.n
    shape = (rho.dim, rho.dim) + fn.values.shape[1:]
    block = np.empty(shape, dtype=complex)
    for i in range(rho.dim):
        for j in range(rho.dim):
            block[i, j] = coeff(fn, rho, i, j)
    return block


def transform(fn, rhos) -> FourierTable:
    if not rhos:
        raise InvalidParams("pass the product representations to expand in")
    blocks = {rho.comps: coefficient_block(fn, rho) for rho in rhos}
    return FourierTable(fn.power, rhos[0].base, blocks, fn.matrix_size)


def inverse(table, rhos):
    power = table.power
    out = np.zeros((power.n, table.matrix_size, table.matrix_size), dtype=complex)
    seen = set()
    for rho in rhos:
        block = table.blocks.get(rho.comps)
        if block is None:
            raise IncompleteTable(f"no block for components {rho.comps}")
        seen.add(rho.comps)
        if rho.dim <= _DENSE_DIM_LIMIT:
            out += rho.dim * np.einsum("ijxy,gij->gxy", block, matrices(rho, power))
        else:
            for i in range(rho.dim):
                for j in range(rho.dim):
                    out += rho.dim * entry_table(rho, power, i, j)[:, None, None] * block[i, j]
    if len(seen) < len(table.blocks):
        raise IncompleteTable("representations passed do not cover the table")
    return MatrixFn(power, out)


def noise_apply(fn, eps):
    """H(a) = sum_nu w(nu) F(a * nu) over every noise tuple."""
    power = fn.power
    out = np.zeros_like(fn.values, dtype=complex)
    for nu, w in enumerate(noise_weights(power, eps)):
        if w == 0:
            continue
        out += float(w) * fn.values[power.mul_all_right(nu)]
    return MatrixFn(power, out)


def convolve(f, h):
    """(F*H)(g) = |G^D|^-1 sum_t F(t) H(t^-1 g), summed over t."""
    power = f.power
    out = np.zeros_like(h.values, dtype=complex)
    all_g = np.arange(power.n)
    for t in range(power.n):
        idx = power.mul_array(inv(power, t), all_g)
        out += np.einsum("xy,gyz->gxz", f.values[t], h.values[idx])
    out /= power.n
    return MatrixFn(power, out)


def trivial_term_sum(ctx, omega) -> float:
    """|E_edges E_a sum_nu w(nu) tr(a^_1 (B*B)((a o pi)^-1 nu))|."""
    nu_w = [float(w) for w in noise_weights(ctx.pd, ctx.eps)]
    total = 0.0 + 0.0j
    for u, v, pi in ctx.lc.edge_maps():
        a_fn, b_fn = right_table(ctx, omega, v), left_table(ctx, omega, u)
        m = convolve(b_fn, b_fn).values
        a_hat_1 = np.mean(a_fn.values, axis=0)
        ap_inv = composed_inverse(ctx.pe, ctx.pd, pi, ctx.lc.e_labels)
        edge_sum = 0.0 + 0.0j
        for a in range(ctx.pe.n):
            base = ap_inv[a]
            for nu in range(ctx.pd.n):
                idx = mul(ctx.pd, int(base), nu)
                edge_sum += nu_w[nu] * np.trace(a_hat_1 @ m[idx])
        total += edge_sum / ctx.pe.n
    return abs(total / len(ctx.lc.edges))


def high_degree_mass(ctx, omega, kappa_value: int) -> float:
    one_minus_eps = 1.0 - float(ctx.eps)
    total = 0.0 + 0.0j
    for u, v, pi in ctx.lc.edge_maps():
        a_fn, b_fn = right_table(ctx, omega, v), left_table(ctx, omega, u)
        m = convolve(b_fn, b_fn).values
        n_mat = m.shape[1]
        w_table = np.zeros((ctx.pd.n, n_mat, n_mat), dtype=complex)
        for rho in ctx.prod_d:
            mats = matrices(rho, ctx.pd)
            block = np.einsum("gxy,gij->ijxy", m, np.conj(mats)) / ctx.pd.n
            if float(np.real(np.einsum("iixx->", block))) < -1e-9:
                raise InvalidParams("diagonal coefficient trace is negative")
            if rho.degree >= kappa_value:
                w_table += (
                    rho.dim
                    * one_minus_eps**rho.degree
                    * np.einsum("ijxy,gij->gxy", block, mats)
                )
        a_hat_1 = np.mean(a_fn.values, axis=0)
        centered = a_fn.values - a_hat_1
        ap_inv = composed_inverse(ctx.pe, ctx.pd, pi, ctx.lc.e_labels)
        total += np.einsum("gxy,gyx->", centered, w_table[ap_inv]) / ctx.pe.n
    return abs(total / len(ctx.lc.edges))


def influence_probs(ctx, fn_values, power, rhos, labels, r, c, kappa_value: int) -> dict:
    """Per label, the truncated mass of the representations non-trivial there,
    for the entry (r, c) of a vertex's matrix table."""
    values = fn_values[:, r, c]
    out = {l: 0.0 for l in labels}
    for rho in rhos:
        deg = rho.degree
        if deg == 0 or deg >= kappa_value:
            continue
        mats = matrices(rho, power)
        block = np.einsum("g,gij->ij", values, np.conj(mats)) / power.n
        mass = rho.dim * float(np.sum(np.abs(block) ** 2)) / deg
        if mass == 0.0:
            continue
        for pos, comp in enumerate(rho.comps):
            if comp != 0:
                out[labels[pos]] += mass
    return out
