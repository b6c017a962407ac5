"""The golden corpus: a fixed list of CLI runs whose exit codes and output
bytes must not change. Each run goes through ``cli.main`` in process, with
``GROUPLIN_CAP`` unset and a fresh logging setup, as a new process would see
it; ``tests/golden.json`` holds its exit code and the sha256 of its stdout
and its stderr.

The run list is fixed before the changes it judges, and is never trimmed to
let one pass. A change that alters a hash regenerates the file with

    python tests/test_golden.py --write

and says which runs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from grouplin import catalog, io, reduction  # noqa: E402
from grouplin.cli import main  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

EPS = ("1/8", "3/17", "1/4001")
DELTA = "1/4"
TEMPLATES = ("z2_id", "z3_id", "z4_to_z2", "s3_sign", "s3_a3_incl")
INSTANCES = ("lc_tiny", "lc1", "lc2")
# the instances whose system files are written, and the eps of the files
# that are evaluated and solved (reading a file sets the corpus's time)
SOLVED = {"lc_tiny": EPS, "lc1": ("3/17",)}
METHODS = ("brute", "expect", "derand", "noncubic")


def _families(workdir: Path) -> None:
    """The decode inputs of every pair: its planted side-2 family, and that
    family with the first right table's second entry moved by one; and an
    all-zero family of z2_id/lc1, below the promise threshold."""
    _write(workdir / "zeros_z2_id_lc1.json", {"A": {"v0": [0, 0]}, "B": {"u0": [0, 0, 0, 0]}, "side": "g2"})
    for t in TEMPLATES:
        template = catalog.template(t)
        for name in INSTANCES:
            lc = catalog.label_cover(name)
            obj = io.family_to_obj(reduction.planted(lc, template)[2])
            _write(workdir / f"planted_{t}_{name}.json", obj)
            first = obj["A"][lc.v_names[0]]
            first[1] = (first[1] + 1) % len(template.g2)
            _write(workdir / f"perturbed_{t}_{name}.json", obj)


def _assignments(workdir: Path) -> None:
    """The planted assignments of both sides of each pair that ``eval``
    reads."""
    for t in TEMPLATES:
        template = catalog.template(t)
        for name in SOLVED:
            lc = catalog.label_cover(name)
            _, proj1, proj2 = reduction.planted(lc, template)
            for side, family in ((1, proj1), (2, proj2)):
                _write(workdir / f"assign{side}_{t}_{name}.json", reduction.family_assignment(lc, template, family))


def _write(path: Path, obj) -> None:
    path.write_text(io.canonical_dumps(obj), encoding="utf-8")


def runs() -> list[tuple[str, ...]]:
    """The fixed run list, in order: a run may read a file an earlier
    ``reduce`` run wrote (``system_<template>_<instance>_<k>.json``)."""
    out = []
    for t in TEMPLATES:
        for name in INSTANCES:
            for eps in EPS:
                out.append(("pipeline", name, "--template", t, "--eps", eps, "--delta", DELTA))
    for kind in ("planted", "perturbed"):
        for t in TEMPLATES:
            for name in INSTANCES:
                for eps in EPS:
                    family = f"{kind}_{t}_{name}.json"
                    out.append(("decode", name, "--template", t, "--family", family, "--eps", eps, "--delta", DELTA))
    for t in TEMPLATES:
        for name, solved in SOLVED.items():
            for k, eps in enumerate(EPS):
                system = f"system_{t}_{name}_{k}.json"
                out.append(("reduce", name, "--template", t, "--eps", eps, ">", system))
                if eps not in solved:
                    continue
                for side in ("g1", "g2"):
                    assign = f"assign{side[1]}_{t}_{name}.json"
                    out.append(("eval", system, "--assignment", assign, "--side", side))
                    for method in METHODS:
                        extra = ("--c", "1/2") if method == "noncubic" else ()
                        out.append(("solve", system, "--method", method, "--side", side, *extra))
    for group in sorted(catalog.groups()):
        out.append(("verify-group", group))
        out.append(("irreps", group))
    out += [
        # exit 2: invalid eps, a missing file, an invalid flag value, a bad template name
        ("reduce", "lc1", "--template", "z2_id", "--eps", "0"),
        ("pipeline", "lc1", "--template", "z2_id", "--eps", "1", "--delta", DELTA),
        ("pipeline", "lc1", "--template", "z2_id", "--eps", "1/8", "--delta", "1"),
        ("eval", "missing.json", "--assignment", "assign2_z2_id_lc1.json"),
        ("solve", "system_z2_id_lc1_0.json", "--method", "brute", "--cap", "0"),
        ("solve", "system_z2_id_lc1_0.json", "--method", "noncubic"),
        ("reduce", "lc1", "--template", "no_such_template", "--eps", "1/8"),
        ("eval", "system_z2_id_lc1_0.json", "--assignment", "assign1_z3_id_lc1.json"),
        # exit 3: enumeration caps
        ("solve", "system_s3_sign_lc1_0.json", "--method", "brute", "--side", "g1"),
        ("solve", "system_z2_id_lc1_0.json", "--method", "brute", "--cap", "10"),
        # exit 4: a family below the promise threshold
        ("decode", "lc1", "--template", "z2_id", "--family", "zeros_z2_id_lc1.json", "--eps", "1/8", "--delta", DELTA),
    ]
    return out


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` as a new process runs it: its exit code, stdout and
    stderr, with logging set up afresh (``main`` configures the root logger
    only where it has no handler)."""
    out, err = _io.StringIO(), _io.StringIO()
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers = []
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    finally:
        root.handlers, root.level = handlers, level
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus() -> dict[str, dict]:
    """Every run of ``runs()`` in a scratch directory: per run, joined with
    spaces, its exit code and the sha256 of its stdout and its stderr."""
    saved_cap, saved_cwd = os.environ.pop("GROUPLIN_CAP", None), os.getcwd()
    reduction._support.cache_clear()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            os.chdir(workdir)
            _families(workdir)
            _assignments(workdir)
            result = {}
            for run in runs():
                argv, target = list(run), None
                if ">" in argv:
                    argv, target = argv[: argv.index(">")], argv[-1]
                code, out, err = _run(argv)
                if target is not None:
                    (workdir / target).write_text(out, encoding="utf-8")
                result[" ".join(run)] = {"code": code, "stdout": _sha(out), "stderr": _sha(err)}
            return result
    finally:
        os.chdir(saved_cwd)
        if saved_cap is not None:
            os.environ["GROUPLIN_CAP"] = saved_cap
        reduction._support.cache_clear()


def test_every_golden_run_keeps_its_exit_code_and_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus()
    assert list(got) == list(golden), "the run list differs from tests/golden.json's"
    changed = [run for run in got if got[run] != golden[run]]
    assert not changed, f"{len(changed)} runs changed, the first: {changed[:5]}"


def test_the_corpus_covers_every_exit_code():
    codes = {entry["code"] for entry in json.loads(GOLDEN.read_text(encoding="utf-8")).values()}
    assert codes == {0, 2, 3, 4}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(corpus(), indent=1) + "\n", encoding="utf-8")
