"""The reports of the ``pipeline`` and ``decode`` commands.

``pipeline_report`` is the pipeline's entry at one eps. Its calls share one
``ReductionParams``, which read the caps once when it was made: every cap
check of ``planted``, ``build_system``, ``evaluate_family`` and the decoder's
context runs on every op, against those caps.
"""

from __future__ import annotations

from . import decoder, io, reduction, solvers


def pipeline_report(
    lc,
    template,
    eps,
    delta,
    family=None,
    seed: int = 0,
    leftover: str = "giveup",
) -> dict:
    """Chain reduction, planted completeness, solver, and decoder into one
    report. ``family`` defaults to the side-2 planted projections of the best
    Label Cover labeling (found exhaustively, within the enumeration cap).
    The labeling and its planted families are kept with the support
    (``reduction.planted``), as no eps enters them."""
    eps, delta = io.parse_frac(eps), io.parse_frac(delta)
    params = reduction.ReductionParams(eps)
    lc_opt, proj1, proj2 = reduction.planted(lc, template, params)
    system = reduction.build_system(lc, template, params)

    completeness = reduction.evaluate_family(lc, template, params, proj1, side=1)

    solver_value = solvers.derandomized_value(system, template, side=2)
    expectation = solvers.random_expectation(system, template, side=2)

    if family is None:
        family = proj2
    ctx = decoder.make_context(lc, template, eps, delta, family, seed=seed, leftover=leftover, params=params)

    return {
        "lc_optimum": lc_opt,
        "completeness": completeness,
        "system_size": {
            "variables": len(system.variables),
            "equations": len(system.arrays),
        },
        "solver": {
            "random_expectation": expectation,
            "derandomized_value": solver_value,
        },
        "decoder": _decoded(ctx),
    }


def decode_report(lc, template, eps, delta, family, seed: int = 0, leftover: str = "giveup") -> dict:
    """The ``decode`` command's report on a side-2 family, which is the
    pipeline report's ``decoder`` block."""
    return _decoded(decoder.make_context(lc, template, eps, delta, family, seed=seed, leftover=leftover))


def _decoded(ctx: decoder.DecoderContext) -> dict:
    """Decode the context's family and round its strategy; alpha is taken
    at the kappa that ``decode`` computed."""
    strategy, value, choice = decoder.decode(ctx)
    h_d, h_e, rounded = decoder.derandomize_strategy(ctx.lc, strategy)
    return {
        "family_value": ctx.value,
        "omega": choice.index,
        "eta": choice.eta,
        "margin": choice.margin,
        "xyz": [choice.x, choice.y, choice.z],
        "kappa": strategy.kappa,
        "alpha": decoder.alpha(ctx.delta, strategy.kappa, len(ctx.template.g1), len(ctx.template.g2)),
        "strategy": {
            "v_probs": strategy.v_probs,
            "u_probs": strategy.u_probs,
            "leftover": strategy.leftover,
        },
        "expected_value": value,
        "derandomized": {"hD": h_d, "hE": h_e, "value": rounded},
        "seed": ctx.seed,
    }
