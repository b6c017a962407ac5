"""The benchmark workloads: set-up, one op, and the check of the op's output.

Each workload is a closed loop with one client: ``op(i)`` runs to completion
before op ``i + 1`` starts, and starts at most one CLI child at a time.
Library calls go through module attributes (``cli.run_pipeline``), so that
the wrappers ``spans.Tracer`` installs see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

import inputs
from env import ROOT
from grouplin import catalog, cli, fourier, io, reduction, reps

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def run_cli(argv: list[str], out_path: str, in_process: bool) -> tuple[int, int]:
    """``grouplin <argv> > out_path``: a child process with import included,
    or ``cli.main`` in this process with stdout sent to the file. Returns the
    exit code and the child's peak RSS in KiB (0 in process)."""
    if in_process:
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            return cli.main(argv), 0
    with open(out_path, "wb") as out:
        child = subprocess.Popen([sys.executable, "-m", "grouplin.cli", *argv], stdout=out, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pin_key(template_name: str, eps: Fraction, lc) -> str:
    """Names one reduce input: template, ε and each edge's projection."""
    maps = [",".join(f"{d}>{e}" for d, e in pi) for _, _, pi in lc.edges]
    return " ".join([template_name, io.frac_str(eps), *maps])


def reduce_argv(template_name: str, lc_path: str) -> list[str]:
    eps = io.frac_str(inputs.SYSTEM_EPS)
    return ["reduce", lc_path, "--template", template_name, "--eps", eps]


def write_lc(lc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(io.canonical_dumps(io.lc_to_obj(lc)))


class Workload:
    """Set-up happens in the constructor; ``phases`` splits its time."""

    def __init__(self, seed: int, workdir: str, in_process: bool):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.tracer = None
        self.stages: dict[str, list[float]] = defaultdict(list)
        self.child_peak_kib = 0
        t0 = time.perf_counter()
        self.load_catalog()
        t1 = time.perf_counter()
        self.make_inputs()
        t2 = time.perf_counter()
        self.phases = {"setup.catalog_s": t1 - t0, "setup.inputs_s": t2 - t1}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def extra_checks(self) -> list[bool]:
        """Untimed checks run once after the timed loop."""
        return []


class Pipeline(Workload):
    """``cli.run_pipeline`` on s3_sign over lc1 with δ = 1/4 and a seeded ε."""

    delta = Fraction(1, 4)

    def load_catalog(self):
        self.template = catalog.template("s3_sign")
        self.lc = catalog.label_cover("lc1")
        self.tuples = inputs.raw_tuples(self.lc, self.template)

    def make_inputs(self):
        self.eps = inputs.eps_list(self.seed)
        self.family = inputs.planted_family(self.seed, self.lc, self.template)

    def op(self, i: int):
        eps = self.eps[i % len(self.eps)]
        return eps, cli.run_pipeline(self.lc, self.template, eps, self.delta, family=self.family)

    def check(self, out) -> bool:
        eps, report = out
        g1 = len(self.template.g1)
        solver = report["solver"]
        # lc1 has no parallel edges, so exact mode merges nothing: one
        # equation per raw tuple. G2 = Z2 is abelian and each equation holds
        # its v variable once, so a uniform assignment satisfies half.
        return (
            report["completeness"] == 1 - eps * (1 - Fraction(1, g1))
            and report["system_size"]["equations"] == self.tuples
            and solver["random_expectation"] == Fraction(1, 2)
            and solver["derandomized_value"] >= solver["random_expectation"]
            and report["lc_optimum"] == 1
            and report["decoder"]["derandomized"]["value"] == 1
        )


class SystemFiles(Workload):
    """``grouplin reduce`` of a seeded instance to a file, then ``grouplin
    eval`` of a seeded G2 assignment on that file."""

    template_name = "z4_to_z2"
    second_template = "z3_id"

    def load_catalog(self):
        self.template = catalog.template(self.template_name)
        with open(PINS_PATH, encoding="utf-8") as fh:
            self.pins = json.load(fh)

    def make_inputs(self):
        lc = inputs.system_label_cover(self.seed)
        self.pin = self.pins[pin_key(self.template_name, inputs.SYSTEM_EPS, lc)]
        system = reduction.build_system(
            lc, self.template, reduction.ReductionParams(inputs.SYSTEM_EPS)
        )
        assignment = inputs.g2_assignment(self.seed, system)
        self.expected = reduction.evaluate(system, assignment, 2)
        self.paths = {
            k: os.path.join(self.workdir, f"{k}.json")
            for k in ("lc", "assignment", "system", "value", "second")
        }
        write_lc(lc, self.paths["lc"])
        with open(self.paths["assignment"], "w", encoding="utf-8") as fh:
            json.dump(assignment, fh)

    def run_cli(self, argv: list[str], out_path: str) -> int:
        rc, peak_kib = run_cli(argv, out_path, self.in_process)
        self.child_peak_kib = max(self.child_peak_kib, peak_kib)
        return rc

    def op(self, i: int):
        p = self.paths
        t0 = time.perf_counter()
        with self.span("cli.reduce"):
            rc_reduce = self.run_cli(reduce_argv(self.template_name, p["lc"]), p["system"])
        t1 = time.perf_counter()
        with self.span("cli.eval"):
            rc_eval = self.run_cli(["eval", p["system"], "--assignment", p["assignment"]], p["value"])
        t2 = time.perf_counter()
        self.stages["reduce_s"].append(t1 - t0)
        self.stages["eval_s"].append(t2 - t1)
        if self.tracer:
            self.tracer.count("io.system_bytes", os.path.getsize(p["system"]))
        return rc_reduce, rc_eval

    def check(self, out) -> bool:
        if out != (0, 0) or sha256_file(self.paths["system"]) != self.pin:
            return False
        with open(self.paths["value"], encoding="utf-8") as fh:
            return io.parse_frac(json.load(fh)["value"]) == self.expected

    def extra_checks(self) -> list[bool]:
        """A second template on an instance whose projections are both
        bijections: its bytes must match the pinned hash too."""
        lc = inputs.bijective_label_cover()
        lc_path = os.path.join(self.workdir, "second_lc.json")
        write_lc(lc, lc_path)
        rc = self.run_cli(reduce_argv(self.second_template, lc_path), self.paths["second"])
        key = pin_key(self.second_template, inputs.SYSTEM_EPS, lc)
        return [rc == 0 and sha256_file(self.paths["second"]) == self.pins[key]]


class Fourier(Workload):
    """Transform, inverse, Plancherel, convolution and noise on a seeded
    2x2-matrix-valued function on S3^4 (n = 1,296, 81 product irreps)."""

    pool_size = 64
    spot_checks = 2

    def load_catalog(self):
        self.group = catalog.group("s3")

    def make_inputs(self):
        irreps = reps.irreps(self.group)
        self.fns = inputs.s3_power_functions(self.seed, self.pool_size)
        self.rhos = fourier.product_irreps(irreps, self.fns[0].power.labels)
        self.eps = inputs.eps_list(self.seed)

    def op(self, i: int):
        fn = self.fns[i % len(self.fns)]
        eps = self.eps[i % len(self.eps)]
        table = fourier.transform(fn, self.rhos)
        back = fourier.inverse(table, self.rhos)
        gap = fourier.plancherel_gap(fn, self.rhos)
        conv = fourier.convolve(fn, fn)
        noisy = fourier.transform(fourier.noise_apply(fn, eps), self.rhos)
        return i, fn, eps, table, back, gap, conv, noisy

    def check(self, out) -> bool:
        i, fn, eps, table, back, gap, conv, noisy = out
        if np.max(np.abs(back.values - fn.values)) > 1e-9 or gap > 1e-9:
            return False
        att = 1 - float(eps)
        for rho in self.rhos:
            expect = att**rho.degree * table.blocks[rho.comps]
            if np.max(np.abs(noisy.blocks[rho.comps] - expect)) > 1e-12:
                return False
        # (F*F)(g) = mean_t F(t) F(t^-1 g), at a few seeded points g.
        power = fn.power
        inv = power.inv_array()
        rng = np.random.default_rng([self.seed, i])
        for g in rng.integers(power.n, size=self.spot_checks):
            idx = power.mul_all_right(int(g))[inv]
            expect = np.einsum("txy,tyz->xz", fn.values, fn.values[idx]) / power.n
            if np.max(np.abs(conv.values[g] - expect)) > 1e-9:
                return False
        return True


WORKLOADS = {"pipeline": Pipeline, "system_files": SystemFiles, "fourier": Fourier}
