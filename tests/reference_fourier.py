"""Reference Fourier code: the per-representation dense and entrywise sums
that the per-axis kernel in ``grouplin.fourier`` replaces, the direct
group-domain convolution sum that the convolution theorem replaces, and the
decoder's expansions written out over explicit representation matrices on top
of that sum. They are slow and obviously correct; the equivalence tests hold
the kernel to them.

Each block is a sum over the whole power against ``ProductIrrep.matrices``
(or ``entry_table`` above the dense limit), and noise is the sum over every
noise tuple with its exact weight from ``reference_reduction.noise_weights``.
"""

from __future__ import annotations

import numpy as np

from grouplin.decoder import left_table, right_table
from grouplin.errors import IncompleteTable, InvalidParams
from grouplin.fourier import (
    _DENSE_DIM_LIMIT,
    FourierTable,
    MatrixFn,
    ScalarFn,
    coeff,
)
from grouplin.reduction import composed_inverse

from reference_reduction import noise_weights


def coefficient_block(fn, rho) -> np.ndarray:
    if rho.dim <= _DENSE_DIM_LIMIT:
        mats = rho.matrices(fn.power)
        if isinstance(fn, ScalarFn):
            return np.einsum("g,gij->ij", fn.values, np.conj(mats)) / fn.power.n
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
    if table.matrix_size is None:
        out = np.zeros(power.n, dtype=complex)
    else:
        out = np.zeros((power.n, table.matrix_size, table.matrix_size), dtype=complex)
    seen = set()
    for rho in rhos:
        block = table.blocks.get(rho.comps)
        if block is None:
            raise IncompleteTable(f"no block for components {rho.comps}")
        seen.add(rho.comps)
        if rho.dim <= _DENSE_DIM_LIMIT:
            mats = rho.matrices(power)
            if table.matrix_size is None:
                out += rho.dim * np.einsum("ij,gij->g", block, mats)
            else:
                out += rho.dim * np.einsum("ijxy,gij->gxy", block, mats)
        else:
            for i in range(rho.dim):
                for j in range(rho.dim):
                    entry = rho.entry_table(power, i, j)
                    if table.matrix_size is None:
                        out += rho.dim * block[i, j] * entry
                    else:
                        out += rho.dim * entry[:, None, None] * block[i, j]
    if len(seen) < len(table.blocks):
        raise IncompleteTable("representations passed do not cover the table")
    if table.matrix_size is None:
        return ScalarFn(power, out)
    return MatrixFn(power, out)


def noise_apply(fn, eps):
    """H(a) = sum_nu w(nu) F(a * nu) over every noise tuple."""
    power = fn.power
    out = np.zeros_like(fn.values, dtype=complex)
    for nu, w in enumerate(noise_weights(power, eps)):
        if w == 0:
            continue
        out += float(w) * fn.values[power.mul_all_right(nu)]
    return type(fn)(power, out)


def convolve(f, h):
    """(F*H)(g) = |G^D|^-1 sum_t F(t) H(t^-1 g), summed over t."""
    power = f.power
    out = np.zeros_like(h.values if f.matrix_size else f.values, dtype=complex)
    all_g = np.arange(power.n)
    for t in range(power.n):
        idx = power.mul_array(power.inv(t), all_g)
        if f.matrix_size is None:
            out += f.values[t] * h.values[idx]
        else:
            out += np.einsum("xy,gyz->gxz", f.values[t], h.values[idx])
    out /= power.n
    return type(f)(power, out)


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
                idx = ctx.pd.mul(int(base), nu)
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
            mats = rho.matrices(ctx.pd)
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
        mats = rho.matrices(power)
        block = np.einsum("g,gij->ij", values, np.conj(mats)) / power.n
        mass = rho.dim * float(np.sum(np.abs(block) ** 2)) / deg
        if mass == 0.0:
            continue
        for pos, comp in enumerate(rho.comps):
            if comp != 0:
                out[labels[pos]] += mass
    return out
