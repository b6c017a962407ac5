"""Reference reduction: the per-tuple ``Fraction`` loops that the geometry
kernel in ``grouplin.reduction`` replaces. They are slow and obviously
correct; the equivalence tests hold the kernel to them.

Coset representatives and noise weights are computed here by the original
per-tuple loops, independently of ``groups.coset_arrays`` and
``reduction._class_numerators``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np

from grouplin.errors import InvalidParams
from grouplin.groups import identity_hom
from grouplin.io import frac_str
from grouplin.reduction import (
    LinEquation,
    LinSystem,
    Rows,
    _check_exact_cap,
    _check_family_shape,
    _class_numerators,
    support,
    var_u,
    var_v,
)

from reference_groups import act, apply, index, inv, mul, pow_sign


def _coset_data(sub, power, flat):
    """The least tuple of H*g and the h in H that reaches it."""
    best = best_h = None
    for h in sub.members:
        cand = act(power, h, flat)
        if best is None or cand < best:
            best, best_h = cand, h
    return best, best_h


def noise_weights(power, eps):
    """Per noise tuple: per coordinate the identity with probability 1-eps,
    uniform otherwise."""
    size = len(power.group)
    w_id = (1 - eps) + Fraction(eps, size)
    w_other = Fraction(eps, size)
    out = []
    for nu in range(power.n):
        w = Fraction(1)
        for c in power.coords(nu):
            w *= w_id if c == power.group.identity else w_other
        out.append(w)
    return out


def _fold(values, power, phi):
    g2 = phi.target
    out = np.empty(power.n, dtype=np.int64)
    for g in range(power.n):
        rep, h = _coset_data(phi.source, power, g)
        out[g] = g2.mul(g2.inv(apply(phi, h)), int(values[rep]))
    return out


def raw_equations(lc, template, params):
    """Yield (terms, rhs, weight) for every tuple of the sampling procedure.

    One equation per (edge, a, b, nu, s1, s2):

        v[a_rep] * u[b^s1]^s1 * u[c^s2]^s2 = h_a,   c = b^-1 (a o pi)^-1 nu

    with weight the product of the edge, a, b, nu, and sign probabilities.
    """
    sup = support(lc, template)
    pe, pd = sup.pe, sup.pd
    _check_exact_cap(lc, pe, pd, params.cap)
    nu_w = noise_weights(pd, params.eps)
    base = Fraction(1, len(lc.edges)) * Fraction(1, pe.n) * Fraction(1, pd.n) * Fraction(1, 4)
    for u, v, pi in lc.edge_maps():
        positions = pd.compose_positions(pi, lc.e_labels)
        for a in range(pe.n):
            a_rep, h_a = _coset_data(template.h1, pe, a)
            va = var_v(v, a_rep)
            a_coords = pe.coords(a)
            ap_inv = inv(pd, index(pd, [a_coords[p] for p in positions]))
            for b in range(pd.n):
                b_inv = inv(pd, b)
                mid = mul(pd, b_inv, ap_inv)
                ub = {1: var_u(u, b), -1: var_u(u, b_inv)}
                for nu in range(pd.n):
                    c = mul(pd, mid, nu)
                    uc = {1: var_u(u, c), -1: var_u(u, inv(pd, c))}
                    w = base * nu_w[nu]
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            yield ((va, 1), (ub[s1], s1), (uc[s2], s2)), h_a, w


def sampled_equations(lc, template, params):
    sup = support(lc, template)
    pe, pd = sup.pe, sup.pd
    rng = np.random.default_rng(params.seed)
    g1 = template.g1
    w = Fraction(1, params.sample_count)
    edge_list = lc.edge_maps()
    for _ in range(params.sample_count):
        u, v, pi = edge_list[rng.integers(len(edge_list))]
        positions = pd.compose_positions(pi, lc.e_labels)
        a = int(rng.integers(pe.n))
        b = int(rng.integers(pd.n))
        nu_coords = [
            g1.identity if rng.random() >= float(params.eps) else int(rng.integers(len(g1)))
            for _ in range(pd.m)
        ]
        nu = index(pd, nu_coords)
        s1 = 1 if rng.integers(2) == 0 else -1
        s2 = 1 if rng.integers(2) == 0 else -1
        a_rep, h_a = _coset_data(template.h1, pe, a)
        a_coords = pe.coords(a)
        ap_inv = inv(pd, index(pd, [a_coords[p] for p in positions]))
        c = mul(pd, mul(pd, inv(pd, b), ap_inv), nu)
        terms = (
            (var_v(v, a_rep), 1),
            (var_u(u, pow_sign(pd, b, s1)), s1),
            (var_u(u, pow_sign(pd, c, s2)), s2),
        )
        yield terms, h_a, w


def build_system(lc, template, params):
    """Identical (terms, rhs) merged by summing weights, in order of first
    occurrence."""
    sup = support(lc, template)
    pe, pd = sup.pe, sup.pd
    gen = (
        raw_equations(lc, template, params)
        if params.mode == "exact"
        else sampled_equations(lc, template, params)
    )
    merged = defaultdict(Fraction)
    for terms, rhs, w in gen:
        merged[(terms, rhs)] += w
    variables = [var_u(u, b) for u in lc.u_names for b in range(pd.n)]
    variables += [var_v(v, a) for v in lc.v_names for a in range(pe.n)]
    equations = tuple(LinEquation(terms, rhs, w) for (terms, rhs), w in merged.items())
    return LinSystem(template, tuple(variables), equations)


def tuple_system(lc, template, params):
    """``build_system`` without the merge: one equation per tuple of the
    sampling procedure (or per draw, in sampled mode), from the support's
    unmerged rows, identical equations kept apart."""
    sup = support(lc, template)
    if params.mode == "sampled":
        rows = sup.sampled_rows(params).weighed([1], params.sample_count)
    else:
        _check_exact_cap(lc, sup.pe, sup.pd, params.cap)
        rows = sup.tuple_rows().weighed(*_class_numerators(lc, sup.pe, sup.pd, params.eps))
    return LinSystem.from_arrays(template, sup.variables, rows)


def merge(rows):
    """``reduction._merge`` through ``np.unique(axis=0)``: identical (terms,
    rhs) merged into one row at the position of the first, with its tuples
    counted per class; row classes are the distinct count vectors, in
    sorted order."""
    stacked = np.concatenate([rows.var_ids, rows.signs, rows.rhs[:, None]], axis=1)
    _, first, inverse = np.unique(stacked, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    group = rank[inverse.reshape(-1)]
    keep = first[order]
    n_cls = len(rows.class_counts)
    counts = np.bincount(group * n_cls + rows.row_class, minlength=len(keep) * n_cls)
    vectors, vector_of = np.unique(counts.reshape(len(keep), n_cls), axis=0, return_inverse=True)
    return Rows(
        rows.var_ids[keep],
        rows.signs[keep],
        rows.rhs[keep],
        vector_of.reshape(-1).astype(np.int32),
        vectors,
    )


def payoff_distribution(lc, template, params, family, side):
    if side != family.side:
        raise InvalidParams("family built for the other side")
    sup = support(lc, template)
    pe, pd = sup.pe, sup.pd
    _check_exact_cap(lc, pe, pd, params.cap)
    _check_family_shape(lc, template, pe, pd, family)
    group = template.g1 if side == 1 else template.g2
    hom = identity_hom(template.h1) if side == 1 else template.phi
    nu_w = noise_weights(pd, params.eps)
    base = Fraction(1, len(lc.edges)) * Fraction(1, pe.n) * Fraction(1, pd.n) * Fraction(1, 4)
    mass = defaultdict(Fraction)
    for u, v, pi in lc.edge_maps():
        positions = pd.compose_positions(pi, lc.e_labels)
        a_folded = _fold(np.asarray(family.a_tables[v], dtype=np.int64), pe, hom)
        b_table = np.asarray(family.b_tables[u], dtype=np.int64)
        for a in range(pe.n):
            za = int(a_folded[a])
            a_coords = pe.coords(a)
            ap_inv = inv(pd, index(pd, [a_coords[p] for p in positions]))
            for b in range(pd.n):
                b_inv = inv(pd, b)
                mid = mul(pd, b_inv, ap_inv)
                tb = {1: int(b_table[b]), -1: group.inv(int(b_table[b_inv]))}
                for nu in range(pd.n):
                    c = mul(pd, mid, nu)
                    tc = {1: int(b_table[c]), -1: group.inv(int(b_table[inv(pd, c)]))}
                    w = base * nu_w[nu]
                    for s1 in (1, -1):
                        zb = group.mul(za, tb[s1])
                        for s2 in (1, -1):
                            mass[group.mul(zb, tc[s2])] += w
    return dict(mass)


def system_to_obj(system, template_ref):
    """The JSON object of a system, written from its ``LinEquation``s."""
    return {
        "template": template_ref,
        "variables": list(system.variables),
        "equations": [
            {
                "terms": [[v, s] for v, s in eq.terms],
                "rhs": eq.rhs,
                "weight": frac_str(eq.weight),
            }
            for eq in system.equations
        ],
    }
