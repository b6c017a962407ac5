"""The pipeline's per-eps report (``report.pipeline_report``, which
``cli.run_pipeline`` names): it equals the report built from the public
functions on the catalog, warm and cold, and a warm op reads
``GROUPLIN_CAP`` once while every cap check still runs against the value
read for that op."""

import os
from fractions import Fraction

import pytest

from grouplin import (
    CapExceeded,
    alpha,
    build_system,
    catalog,
    decode,
    derandomize_strategy,
    derandomized_value,
    evaluate_family,
    groups,
    io,
    make_context,
    random_expectation,
    reduction,
    report,
)
from grouplin.cli import main, run_pipeline
from grouplin.reduction import ReductionParams

DELTA = Fraction(1, 4)
EPS_VALUES = (Fraction(1, 8), Fraction(3, 17), Fraction(1, 4001))
CASES = [
    (tname, lc_name, eps)
    for tname, t in sorted(catalog.templates().items())
    for lc_name in ("lc_tiny", "lc1")
    for eps in EPS_VALUES
    if Fraction(1, len(t.h2)) + DELTA <= 1 - eps
]


def public_report(lc, t, eps, delta):
    """The pipeline report, built from the public functions alone."""
    params = ReductionParams(eps)
    lc_opt, proj1, proj2 = reduction.planted(lc, t)
    system = build_system(lc, t, params)
    ctx = make_context(lc, t, eps, delta, proj2)
    strategy, value, choice = decode(ctx)
    h_d, h_e, rounded = derandomize_strategy(lc, strategy)
    return {
        "lc_optimum": lc_opt,
        "completeness": evaluate_family(lc, t, params, proj1, side=1),
        "system_size": {"variables": len(system.variables), "equations": len(system.arrays)},
        "solver": {
            "random_expectation": random_expectation(system, t, side=2),
            "derandomized_value": derandomized_value(system, t, side=2),
        },
        "decoder": {
            "family_value": ctx.value,
            "omega": choice.index,
            "eta": choice.eta,
            "margin": choice.margin,
            "xyz": [choice.x, choice.y, choice.z],
            "kappa": strategy.kappa,
            "alpha": alpha(delta, eps, len(t.g1), len(t.g2)),
            "strategy": {"v_probs": strategy.v_probs, "u_probs": strategy.u_probs, "leftover": strategy.leftover},
            "expected_value": value,
            "derandomized": {"hD": h_d, "hE": h_e, "value": rounded},
            "seed": 0,
        },
    }


def canonical(obj) -> str:
    return io.canonical_dumps(io.jsonable(obj))


@pytest.mark.parametrize("tname,lc_name,eps", CASES)
def test_the_pipeline_report_equals_the_public_functions(tname, lc_name, eps):
    t, lc = catalog.template(tname), catalog.label_cover(lc_name)
    expect = canonical(public_report(lc, t, eps, DELTA))
    assert canonical(run_pipeline(lc, t, eps, DELTA)) == expect  # warm
    reduction._support.cache_clear()
    got = run_pipeline(lc, t, eps, DELTA)
    assert canonical(got) == expect
    # the decode command's report is the pipeline's decoder block
    planted = reduction.planted(lc, t)[2]
    assert canonical(report.decode_report(lc, t, eps, DELTA, planted)) == canonical(got["decoder"])


S3_LC1 = ("s3_sign", "lc1")
EPS1, EPS2 = Fraction(1, 8), Fraction(3, 17)


class CountingEnviron(dict):
    """``os.environ`` with every lookup of ``GROUPLIN_CAP`` counted."""

    def __init__(self, env, reads):
        super().__init__(env)
        self.reads = reads

    def get(self, key, default=None):
        self.reads += [key] if key == "GROUPLIN_CAP" else []
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += [key] if key == "GROUPLIN_CAP" else []
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += [key] if key == "GROUPLIN_CAP" else []
        return super().__contains__(key)


def _counting(calls, name, fn):
    def counting(*args, **kwargs):
        calls.append((name, args[-1]))
        return fn(*args, **kwargs)

    return counting


@pytest.mark.parametrize("env", [None, "31104"])
def test_a_warm_op_reads_grouplin_cap_once_and_runs_every_check(monkeypatch, env):
    # s3_sign/lc1 needs 31,104 tuples, so at that cap every check passes
    t, lc = catalog.template(S3_LC1[0]), catalog.label_cover(S3_LC1[1])
    if env is not None:
        monkeypatch.setenv("GROUPLIN_CAP", env)
    first = run_pipeline(lc, t, EPS1, DELTA)
    reads, checks = [], []
    monkeypatch.setattr(os, "environ", CountingEnviron(os.environ, reads))
    for name in ("_check_labeling_cap", "_check_exact_cap", "_check_payoff_cap"):
        monkeypatch.setattr(reduction, name, _counting(checks, name, getattr(reduction, name)))
    monkeypatch.setattr(groups.GroupPower, "check_cap", _counting(checks, "table", groups.GroupPower.check_cap))
    weights = []
    check_weights = reduction._validate_weights
    monkeypatch.setattr(reduction, "_validate_weights", lambda *args: weights.append(args) or check_weights(*args))
    sweep = (EPS2, Fraction(1, 100), EPS1)
    warm = [run_pipeline(lc, t, eps, DELTA) for eps in sweep]
    assert reads == ["GROUPLIN_CAP"] * len(sweep)
    # per op: the labeling search's cap, the table cap on both powers, the
    # exact build's cap and the payoff cells' cap of both payoff counts,
    # each against the cap read for the op, and the weight-sum check
    enum, table = (2_000_000, 20_000) if env is None else (31104, 31104)
    per_op = [("_check_labeling_cap", enum), ("table", table), ("table", table), ("_check_exact_cap", enum)]
    per_op += [("_check_payoff_cap", enum)] * 2
    assert checks == per_op * len(sweep)
    assert len(weights) == len(sweep)
    assert warm[-1] == first


CAPPED = [
    ("1", "2 labelings x 1 edges = 2 edge checks exceed the cap 1"),
    ("10", "|G|^|D| = 36 exceeds the table cap 10"),
    ("1000", "exact mode needs 31104 tuples, cap is 1000"),
]


@pytest.mark.parametrize("env,message", CAPPED)
def test_a_cap_set_between_two_warm_ops_stops_the_next(monkeypatch, capsys, env, message):
    t, lc = catalog.template(S3_LC1[0]), catalog.label_cover(S3_LC1[1])
    warm = run_pipeline(lc, t, EPS1, DELTA)
    monkeypatch.setenv("GROUPLIN_CAP", env)
    with pytest.raises(CapExceeded) as raised:
        run_pipeline(lc, t, EPS2, DELTA)
    assert str(raised.value) == message
    argv = ["pipeline", "lc1", "--template", "s3_sign", "--eps", "3/17", "--delta", "1/4"]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"cap exceeded: {message}\n")
    monkeypatch.delenv("GROUPLIN_CAP")
    assert run_pipeline(lc, t, EPS1, DELTA) == warm


@pytest.mark.parametrize("env", ["abc", "0", "-3"])
def test_an_invalid_cap_between_two_warm_ops_exits_2(monkeypatch, capsys, env):
    argv = ["pipeline", "lc1", "--template", "s3_sign", "--eps", "3/17", "--delta", "1/4"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("GROUPLIN_CAP", env)
    assert main(argv) == 2
    out = capsys.readouterr()
    expect = f"error: InvalidParams: GROUPLIN_CAP must be a positive integer, got {env!r}\n"
    assert (out.out, out.err) == ("", expect)


def test_an_op_binds_its_resolution_to_its_own_params_only():
    # a caller's params carry nothing bound, so a public call resolves, and
    # so reads the cap, every time
    t, lc = catalog.template("z2_id"), catalog.label_cover("lc_tiny")
    params = ReductionParams(EPS1)
    build_system(lc, t, params)
    assert params.resolved is None
    bound = ReductionParams(EPS1)
    sup = reduction.bind(lc, t, bound, (7, 30))
    assert bound.resolved[0] is sup is reduction.support(lc, t)
    assert bound == params and hash(bound) == hash(params) and repr(bound) == repr(params)
