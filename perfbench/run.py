"""The grouplin benchmark: one workload per run, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0

Workloads are ``pipeline``, ``system_files`` and ``fourier`` (see
``workloads.py``); ``BENCHMARK.json`` lists the first two, and ``fourier`` is
run by hand (see ``BASELINE.md``). Each is a closed loop with one client that
runs ops back to back for ``--seconds`` and checks the output of every op.
Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
is split into an untraced and a traced half and the metrics are the
per-layer ones, computed from spans recorded around calls into each module
(written to ``.perfbench_out/``).

Set-up time is the median over fresh interpreters, each started by this
process with ``--probe`` between ops (spread over the run) and timed from
spawn until its set-up is done.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import env

SETUP_PROBES = 7
MB = 1024.0  # ru_maxrss is in KiB on Linux


def _probe(workload: str, seed: int) -> None:
    """Set up in this fresh interpreter and print how long each phase took."""
    t0 = time.perf_counter()
    import grouplin.cli  # noqa: F401  (the import a CLI run pays)

    import_s = time.perf_counter() - t0
    import workloads

    workdir = tempfile.mkdtemp(dir=env.OUT)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, in_process=False)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"cli.import_s": import_s, **wl.phases}), flush=True)


class SetupProbes:
    """Set-ups in fresh interpreters, spread over the run between ops so that
    their median does not hang on the machine's speed in one short window."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.walls: list[float] = []
        self.phases: list[dict] = []

    def _probe(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, cwd=env.ROOT) as child:
            line = child.stdout.readline()
            self.walls.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        self.phases.append(json.loads(line))

    def between_ops(self) -> float:
        """Runs a probe if one is due; returns the time it took."""
        if len(self.walls) == SETUP_PROBES or time.perf_counter() < self.due:
            return 0.0
        t0 = time.perf_counter()
        self._probe()
        self.due += self.interval
        return time.perf_counter() - t0

    def result(self) -> tuple[float, dict]:
        """Median set-up wall time, and median of each set-up phase."""
        while len(self.walls) < SETUP_PROBES:
            self._probe()
        medians = {k: statistics.median(p[k] for p in self.phases) for k in self.phases[0]}
        return statistics.median(self.walls), medians


def _run_ops(wl, seconds: float, first: int, probes: SetupProbes, tracer=None):
    """Back-to-back ops for ``seconds``, with set-up probes run between them
    (not counted in the ``seconds``); returns (op wall times, failed)."""
    times, failed = [], 0
    start = time.perf_counter()
    probe_s = 0.0
    i = first
    while True:
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span("op") if tracer else contextlib.nullcontext():
                try:
                    out = wl.op(i)
                finally:
                    times.append(time.perf_counter() - t0)
            ok = wl.check(out)
        except Exception:  # an op or check that raises counts as failed; the loop goes on
            traceback.print_exc()
            ok = False
        if tracer:
            tracer.op = None
        probe_s += probes.between_ops()
        failed += not ok
        i += 1
        if time.perf_counter() - start - probe_s >= seconds:
            return times, failed


def _layer_metrics(tracer, n_ops: int, phases: dict, overhead_s: float) -> dict:
    calls, busy, self_t, setup = tracer.totals()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = dict(phases)
    out["trace.overhead_s"] = overhead_s
    for name in (
        "cli.reduce", "cli.eval",
        "solvers.derandomize", "solvers.random_expectation",
        "reduction.build_system", "reduction.payoff_distribution", "reduction.evaluate",
        "io.system_to_obj", "io.canonical_dumps", "io.load_system",
        "decoder.decode", "decoder.select_omega", "decoder.derandomize_strategy",
        "reps.irreps",
        "fourier.transform", "fourier.inverse", "fourier.plancherel_gap",
        "fourier.convolve", "fourier.noise_apply", "fourier.product_irreps",
        "groups.fold",
    ):
        out[f"{name}.busy_s"] = busy[name] / n_ops
    out["decoder.make_context.self_s"] = self_t["decoder.make_context"] / n_ops
    for name in (
        "reduction.payoff_distribution", "decoder.influence_probs", "reps.irreps", "reps.eta",
    ):
        out[f"{name}.calls"] = calls[name] / n_ops
    for name in (
        "reduction.tuples", "reduction.equations", "solvers.derandomize.rescored_equations",
        "io.system_bytes", "fourier.transform.macs", "fourier.convolve.macs",
    ):
        out[name] = counts[name] / n_ops
    out["reduction.equations_per_tuple"] = ratio(counts["reduction.equations"], counts["reduction.tuples"])
    out["reduction.tuples_per_s"] = ratio(counts["reduction.tuples"], busy["reduction.build_system"])
    out["io.write_bytes_per_s"] = ratio(
        counts["io.system_bytes"], busy["io.system_to_obj"] + busy["io.canonical_dumps"]
    )
    out["io.read_bytes_per_s"] = ratio(counts["io.system_bytes"], busy["io.load_system"])
    for name in ("fourier.transform", "fourier.convolve"):
        out[f"{name}.macs_per_s"] = ratio(counts[f"{name}.macs"], busy[name])
    # Template validation runs in set-up only (the catalog caches it).
    out["groups.validate_template.busy_s"] = setup["groups.validate_template"]
    return out


def _bench(args, spec: dict) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = tempfile.mkdtemp(dir=env.OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, in_process=bool(args.trace))
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        if tracer:
            # Untraced first half, traced second half: the difference of
            # their medians is the tracing overhead.
            tracer.uninstall()
            plain, failed_plain = _run_ops(wl, args.seconds / 2, 0, probes)
            tracer.install()
            wl.tracer = tracer
            times, failed = _run_ops(wl, args.seconds / 2, len(plain), probes, tracer)
            wl.tracer = None
            tracer.uninstall()
            failed += failed_plain
            attempted_ops = len(plain) + len(times)
        else:
            times, failed = _run_ops(wl, args.seconds, 0, probes)
            attempted_ops = len(times)
        extra = wl.extra_checks()
    finally:
        shutil.rmtree(workdir)
    setup_s, phases = probes.result()
    # The process doing the work: the largest CLI child, or this process.
    peak_kib = wl.child_peak_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = peak_kib / MB

    attempted = attempted_ops + len(extra)
    failed += extra.count(False)
    p50 = statistics.median(times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"ops={attempted_ops} extra_checks={len(extra)} failed={failed} "
          f"failed_ratio={failed / attempted:.4f}")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_PROBES} fresh set-ups)")
    print(f"op_s.p50 {p50:.4f} s (n={len(times)}{', traced' if tracer else ''})")
    for stage, samples in wl.stages.items():
        print(f"{stage}.p50 {statistics.median(samples):.4f} s (n={len(samples)})")

    if tracer:
        spans_path = os.path.join(env.OUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, env.ROOT)}")
        print(f"untraced op_s.p50 {statistics.median(plain):.4f} s (n={len(plain)})")
        values = _layer_metrics(tracer, len(times), phases, p50 - statistics.median(plain))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),  # checks run between ops, untimed
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "system_files", "fourier"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not env.configure():
        print(f"error: no src/grouplin under {env.ROOT}; run from a checkout root", file=sys.stderr)
        return 2
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(_bench(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
