"""Command-line surface.

One top-level command with subcommands; JSON goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 promise
violated.
"""

from __future__ import annotations

# io, and numpy under it, load before argparse and logging: the other way
# round a child that compiles its modules (PYTHONDONTWRITEBYTECODE=1) peaks
# about 0.8 MB higher in RSS.
from . import io  # isort: skip

import argparse
import functools
import json
import logging
import math
import sys

from .errors import CapExceeded, GroupLinError, InvalidParams, NoOmega
from .reduction import ReductionParams, build_system, evaluate, evaluate_family, planted

# Run as a program (``python -m grouplin.cli``), a handler imports the
# modules that only its command runs (reps, solvers, selftest; decoder and
# solvers through ``_pipeline_modules``), so a reduce or eval child loads io,
# reduction, groups and catalog alone. Imported as a module, cli loads
# solvers and decoder with itself (see the end of this file).

# the selftest registry's modules, here as only its subcommand imports it
SELFTEST_MODULES = ("groups", "reps", "fourier", "reduction", "solvers", "decoder", "io")


def _emit(obj) -> None:
    sys.stdout.write(io.canonical_dumps(io.jsonable(obj)))


def _cmd_verify_group(args) -> int:
    g = io.load_group(args.group)
    _emit(
        {
            "ok": True,
            "name": g.name,
            "order": len(g),
            "identity": g.identity,
            "inverses": list(g.inverses),
        }
    )
    return 0


def _cmd_irreps(args) -> int:
    from .reps import irreps

    g = io.load_group(args.group)
    iset = irreps(g, seed=args.seed, tol=args.tol)
    out = []
    for rep in iset.irreps:
        chi = rep.character()
        out.append(
            {
                "dim": rep.dim,
                "character": [[float(c.real), float(c.imag)] for c in chi],
                "matrices": [
                    [[[float(x.real), float(x.imag)] for x in row] for row in mat]
                    for mat in rep.matrices
                ],
            }
        )
    _emit(out)
    return 0


def _params(args) -> ReductionParams:
    return ReductionParams(
        io.parse_frac(args.eps),
        mode=args.mode,
        sample_count=args.samples,
        seed=args.seed,
    )


def _cmd_reduce(args) -> int:
    lc = io.load_lc(args.lc)
    template = io.load_template(args.template)
    system = build_system(lc, template, _params(args))
    io.write_system(system, args.template, sys.stdout)
    return 0


def _cmd_eval(args) -> int:
    system, _ = io.load_system(args.system)
    assignment = io.load_assignment(args.assignment)
    side = 1 if args.side == "g1" else 2
    _emit({"value": evaluate(system, assignment, side)})
    return 0


def _cmd_solve(args) -> int:
    from .solvers import brute_force_opt, derandomize, derandomized_value, non_cubic_solve, random_expectation

    system, _ = io.load_system(args.system)
    template = system.template
    side = 1 if args.side == "g1" else 2
    if args.method == "brute":
        value, assignment = brute_force_opt(system, side, cap=args.cap)
        _emit({"value": value, "assignment": assignment})
    elif args.method == "expect":
        _emit({"value": random_expectation(system, template, side)})
    elif args.method == "derand":
        assignment = derandomize(system, template, side)
        _emit({"value": derandomized_value(system, template, side), "assignment": assignment})
    else:
        if args.c is None:
            raise InvalidParams("--c is required for the noncubic method")
        _emit(non_cubic_solve(system, template, io.parse_frac(args.c)))
    return 0


@functools.cache
def _pipeline_modules():
    """``solvers`` and ``decoder``, imported once per process: when cli is
    imported, or by the first pipeline or decode command of a program run.
    A warm ``run_pipeline`` resolves them here rather than paying an import
    statement per call (about 2.5 us of a 0.16 ms op on s3_sign/lc1)."""
    from . import decoder, solvers

    return solvers, decoder


def _decode_report(lc, template, eps, delta, family, seed, leftover) -> dict:
    _, decoder = _pipeline_modules()
    ctx = decoder.make_context(lc, template, eps, delta, family, seed=seed, leftover=leftover)
    strategy, value, choice = decoder.decode(ctx)
    h_d, h_e, rounded = decoder.derandomize_strategy(lc, strategy)
    return {
        "family_value": ctx.value,
        "omega": choice.index,
        "eta": choice.eta,
        "margin": choice.margin,
        "xyz": [choice.x, choice.y, choice.z],
        "kappa": strategy.kappa,
        "alpha": decoder.alpha(delta, eps, len(template.g1), len(template.g2)),
        "strategy": {
            "v_probs": strategy.v_probs,
            "u_probs": strategy.u_probs,
            "leftover": strategy.leftover,
        },
        "expected_value": value,
        "derandomized": {"hD": h_d, "hE": h_e, "value": rounded},
        "seed": seed,
    }


def _cmd_decode(args) -> int:
    lc = io.load_lc(args.lc)
    template = io.load_template(args.template)
    family = io.load_family(args.family)
    report = _decode_report(
        lc,
        template,
        io.parse_frac(args.eps),
        io.parse_frac(args.delta),
        family,
        args.seed,
        args.leftover,
    )
    _emit(report)
    return 0


def run_pipeline(
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
    solvers, _ = _pipeline_modules()
    eps, delta = io.parse_frac(eps), io.parse_frac(delta)
    params = ReductionParams(eps)
    lc_opt, proj1, proj2 = planted(lc, template)
    system = build_system(lc, template, params)

    completeness = evaluate_family(lc, template, params, proj1, side=1)

    solver_value = solvers.derandomized_value(system, template, side=2)
    expectation = solvers.random_expectation(system, template, side=2)

    if family is None:
        family = proj2
    decoder_report = _decode_report(lc, template, eps, delta, family, seed, leftover)

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
        "decoder": decoder_report,
    }


def _cmd_pipeline(args) -> int:
    lc = io.load_lc(args.lc)
    template = io.load_template(args.template)
    family = io.load_family(args.family) if args.family else None
    _emit(
        run_pipeline(
            lc,
            template,
            args.eps,
            args.delta,
            family=family,
            seed=args.seed,
            leftover=args.leftover,
        )
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    report = selftest.run(seed=args.seed, tol=args.tol, only=args.module)
    for line in report.lines():
        print(line)
    print(f"{'OK' if report.ok else 'FAILED'}: {sum(e.ok for e in report.entries)}/{len(report.entries)} checks passed")
    return 0 if report.ok else 1


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``, 0 or 1. A ``--seed``
    is non-negative, as numpy's generators require, and a ``--cap`` positive,
    whether or not the command reads it."""
    kind = ("non-negative", "positive")[low]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text[:40]!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a float tolerance in (0, 1e-6], the range ``irreps``
    accepts. Looser values would make the float checks vacuous."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1e-6:
        raise argparse.ArgumentTypeError(f"must be in (0, 1e-6], got {text[:40]!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplin",
        description="Promise 3-LIN over finite group templates at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-group", help="validate a Cayley-table JSON file")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_verify_group)

    p = sub.add_parser("irreps", help="complete set of irreducible unitary reps")
    p.add_argument("group")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(fn=_cmd_irreps)

    p = sub.add_parser("reduce", help="build the weighted equation system")
    p.add_argument("lc")
    p.add_argument("--template", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("eval", help="evaluate an assignment on a system")
    p.add_argument("system")
    p.add_argument("--assignment", required=True)
    p.add_argument("--side", choices=["g1", "g2"], default="g2")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("solve", help="run a solver on a system")
    p.add_argument("system")
    p.add_argument("--method", choices=["brute", "expect", "derand", "noncubic"], required=True)
    p.add_argument("--side", choices=["g1", "g2"], default="g2")
    p.add_argument("--c", default=None)
    p.add_argument("--cap", type=_at_least(1), default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("decode", help="run the soundness decoder on a family")
    p.add_argument("lc")
    p.add_argument("--template", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--leftover", choices=["giveup", "normalize"], default="giveup")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("pipeline", help="reduce, solve, and decode in one run")
    p.add_argument("lc")
    p.add_argument("--template", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--family", default=None)
    p.add_argument("--leftover", choices=["giveup", "normalize"], default="giveup")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("module", nargs="?", default=None, choices=SELFTEST_MODULES)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NoOmega as exc:
        print(f"promise violated: {exc}", file=sys.stderr)
        return 4
    except (GroupLinError, OSError, KeyError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
else:
    # An importer calls run_pipeline in its own process, or wraps the
    # functions cli calls in their modules (perfbench's tracer), so both
    # modules are loaded once cli is, before the caller's data is allocated.
    _pipeline_modules()
