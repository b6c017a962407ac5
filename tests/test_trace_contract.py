"""The benchmark's ``--trace 1`` mode wraps library functions by name and
books counters from their bound arguments and results. This runs its tracer,
read from ``perfbench/spans.py`` as it is, over one pipeline and one Fourier
transform and convolution, so that removing or renaming a function or a
parameter it binds fails here instead of in a traced benchmark run."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grouplin import catalog, cli, fourier
from grouplin.groups import GroupPower
from grouplin.reps import irreps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_every_traced_name_resolves(spans):
    missing = [
        f"{mod}.{name}"
        for mod, name in spans.TARGETS
        if not callable(getattr(sys.modules.get(f"grouplin.{mod}"), name, None))
    ]
    assert missing == []


def test_traced_run_books_its_counters(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0  # counters run only inside an op
        cli.run_pipeline(
            catalog.label_cover("lc_tiny"), catalog.template("z2_id"), Fraction(1, 8), Fraction(1, 4)
        )
        power = GroupPower(catalog.group("s3"), ["d0", "d1"])
        rhos = fourier.product_irreps(irreps(power.group), power.labels)
        values = np.random.default_rng(0).standard_normal((power.n, 2, 2))
        fn = fourier.MatrixFn(power, values)
        fourier.transform(fn, rhos)
        fourier.convolve(fn, fn)
    finally:
        tracer.uninstall()
    assert {"reduction.equations", "fourier.transform.macs", "fourier.convolve.macs"} <= set(tracer.counts)
    assert tracer.counts["reduction.equations"] > 0
    traced = {name for name, *_ in tracer.spans}
    assert {"cli.run_pipeline", "reduction.build_system", "fourier.convolve"} <= traced
    # the pipeline's decoder block runs the public decoder functions, so
    # their spans sit inside the pipeline's
    pipeline = next(i for i, span in enumerate(tracer.spans) if span[0] == "cli.run_pipeline")

    def within(idx):
        while idx is not None and idx != pipeline:
            idx = tracer.spans[idx][3]
        return idx == pipeline

    booked = {span[0] for i, span in enumerate(tracer.spans) if within(i)}
    assert {"decoder.make_context", "decoder.select_omega", "decoder.decode", "decoder.derandomize_strategy"} <= booked

