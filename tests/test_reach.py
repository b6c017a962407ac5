"""Every function of the library outside ``selftest.py`` is entered by a CLI
command other than ``selftest``, or is named in ``ALLOWED`` with the reason
it stays.

``commands`` lists the runs: every subcommand but ``selftest`` on every
catalog pair over lc_tiny, one run of each file loader, and the paths that
exit 2, 3 and 4. A child process runs them through ``cli.main`` under
``sys.setprofile``, so no cache that another test filled hides a function,
and prints the functions it never entered. Run this file as a script to see
that list:

    PYTHONPATH=src python tests/test_reach.py
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# What no command enters, and why it stays in the library.
ALLOWED = {
    "fourier.inverse": "perfbench's fourier workload times it; item 5's decode report will call it",
    "fourier.plancherel_gap": "perfbench's fourier workload times it",
    "fourier.convolve": "perfbench's fourier workload times it",
    "fourier.noise_apply": "perfbench's fourier workload times it",
    "fourier._block_product": "the decoder's _edge_terms, which item 5's decode report will call",
    "groups.GroupPower.mul_all_right": "perfbench's fourier check calls it",
    "groups.GroupPower.coords": "GroupPower.mul_all_right, which perfbench calls, reads it",
    "io.system_to_obj": "perfbench's spans time it",
    "io.lc_to_obj": "perfbench writes its instance files with it",
    "io.group_to_obj": "a format writer the tests make input files with",
    "io.template_to_obj": "a format writer the tests make input files with",
    "io.family_to_obj": "a format writer the tests make input files with",
    "reduction.LinEquation.__post_init__": "the selftest registry and the tests build systems by hand",
    "reduction.LinSystem.__init__": "the selftest registry and the tests build systems by hand",
    "reduction.LinSystem.equations": "perfbench's spans count equations and their terms",
    "reduction._encode": "LinSystem's hand-built equations are encoded here",
    "reduction.family_assignment": "item 2 inverts it for decoding what the solvers find",
    "decoder._edge_terms": "item 5's decode report will call it",
    "decoder.trivial_term_bound": "item 5's decode report will call it",
    "decoder.high_degree_mass": "item 5's decode report will call it",
    "cli._cmd_selftest": "the selftest subcommand, which the runs leave out",
    # The package's PEP 562 hooks: a library caller's `from grouplin import
    # name` loads one module, and dir(grouplin) lists the names unloaded.
    # No command goes through the package's names; cli imports modules.
    "__init__.__getattr__": "the package's lazy names, loaded for library callers",
    "__init__.__dir__": "the package's lazy names, listed for library callers",
}


def write_inputs(tmp: Path) -> None:
    """The input files of ``commands``, written with the format writers."""
    import numpy as np

    from grouplin import catalog, io
    from grouplin.reduction import AssignmentFamily, family_assignment, make_label_cover, planted

    def put(name, obj):
        (tmp / name).write_text(io.canonical_dumps(io.jsonable(obj)), encoding="utf-8")

    put("s3.json", io.group_to_obj(catalog.group("s3")))
    put("not_associative.json", {"elements": list("abc"), "table": [[0, 1, 2], [1, 2, 0], [2, 0, 0]]})
    put("no_identity.json", {"elements": list("ab"), "table": [[1, 1], [0, 0]]})
    put("no_inverse.json", {"elements": list("ab"), "table": [[0, 1], [1, 1]]})
    put("hom.json", {"domain": [0, 1, 2, 3], "map": {"0": 0, "1": 1, "2": 0, "3": 1}})
    put("z4_to_z2.json", {"name": "z4_to_z2", "g1": "catalog:z4", "g2": "z2", "homomorphism": "hom.json"})
    put("q8_center.json", {"g1": "q8", "g2": "z2", "homomorphism": {"domain": [0, 1], "map": {"0": 0, "1": 1}}})
    put("q8_id.json", {"g1": "q8", "g2": "q8", "homomorphism": {"domain": list(range(8)), "map": {str(x): x for x in range(8)}}})
    edge = ("u0", "v0", {"d0": "e0"})
    doubled = make_label_cover(["d0"], ["e0"], ["u0", "u1"], ["v0"], [edge, edge, ("u1", "v0", {"d0": "e0"})])
    put("doubled.json", io.lc_to_obj(doubled))
    lc = catalog.label_cover("lc_tiny")
    for name, t in catalog.templates().items():
        family = planted(lc, t)[2]
        put(f"{name}.family.json", io.family_to_obj(family))
        put(f"{name}.assignment.json", family_assignment(lc, t, family))
    flat = AssignmentFamily(2, {"v0": np.zeros(2, dtype=int)}, {"u0": np.zeros(2, dtype=int)})
    put("flat.family.json", io.family_to_obj(flat))
    put("missing.assignment.json", {"u0[0]": 0})
    put("broken.json", "{")


def commands() -> list[tuple[list[str], int, str | None]]:
    """(argv, exit code, file its stdout is saved to), in run order; file
    names are relative to the input directory."""
    from grouplin import catalog

    runs = [
        (["verify-group", "q8"], 0, None),
        (["verify-group", "s3.json"], 0, None),
        (["verify-group", "not_associative.json"], 2, None),
        (["verify-group", "no_identity.json"], 2, None),
        (["verify-group", "no_inverse.json"], 2, None),
        (["verify-group", "broken.json"], 2, None),
        (["irreps", "s3"], 0, None),
        (["irreps", "s3.json", "--seed", "3", "--tol", "1e-8"], 0, None),
    ]
    for name in catalog.templates():
        system = f"{name}.system.json"
        runs += [
            (["reduce", "lc_tiny", "--template", name, "--eps", "1/4"], 0, system),
            (["reduce", "lc_tiny", "--template", name, "--eps", "1/4", "--mode", "sampled", "--samples", "20"], 0, None),
        ]
        for side in ("g1", "g2"):
            runs += [
                (["eval", system, "--assignment", f"{name}.assignment.json", "--side", side], 0, None),
                (["solve", system, "--method", "expect", "--side", side], 0, None),
                (["solve", system, "--method", "derand", "--side", side], 0, None),
                (["solve", system, "--method", "noncubic", "--c", "1/2", "--side", side], 0, None),
            ]
        runs += [
            (["solve", system, "--method", "brute", "--cap", "100000"], 3 if name.startswith("s3") else 0, None),
            (["decode", "lc_tiny", "--template", name, "--family", f"{name}.family.json", "--eps", "1/8", "--delta", "1/4"], 0, None),
            (["pipeline", "lc_tiny", "--template", name, "--eps", "1/8", "--delta", "1/4"], 0, None),
        ]
    runs += [
        (["reduce", "doubled.json", "--template", "z4_to_z2.json", "--eps", "1/5"], 0, "doubled.system.json"),
        (["solve", "doubled.system.json", "--method", "derand"], 0, None),
        (["pipeline", "doubled.json", "--template", "z4_to_z2.json", "--eps", "1/4001", "--delta", "1/4", "--leftover", "normalize"], 0, None),
        (["decode", "lc_tiny", "--template", "z2_id", "--family", "flat.family.json", "--eps", "1/8", "--delta", "1/4"], 4, None),
        (["reduce", "lc_tiny", "--template", "q8_center.json", "--eps", "1/4"], 2, None),
        (["reduce", "lc_tiny", "--template", "z2_id", "--eps", "2"], 2, None),
        (["reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/" + "7" * 5000], 2, None),
        (["eval", "z2_id.system.json", "--assignment", "missing.assignment.json"], 2, None),
        (["solve", "z2_id.system.json", "--method", "noncubic"], 2, None),
        (["reduce", "lc2", "--template", "q8_id.json", "--eps", "1/4"], 3, None),
    ]
    return runs


def run_commands(tmp: Path, runs) -> list[str]:
    """Run each command in this process from ``tmp``; returns the faults:
    commands whose exit code is not the listed one."""
    from grouplin import cli

    faults = []
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for argv, code, save in runs:
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = cli.main(argv)
            if got != code:
                faults.append(f"{' '.join(argv)}: exit {got}, not {code}: {err.getvalue().strip()}")
            if save:
                (tmp / save).write_text(out.getvalue(), encoding="utf-8")
    finally:
        os.chdir(cwd)
    return faults


def functions() -> dict[tuple[str, int, str], str]:
    """Every function defined in ``src/grouplin`` outside ``selftest.py``,
    nested ones included, keyed as a frame's code names it: (file, first
    line, name). Lambdas and comprehensions are parts of their function."""
    import grouplin

    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
                out[(code.co_filename, const.co_firstlineno, const.co_name)] = f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:
                walk(const, module, qualname + ".")

    package = Path(grouplin.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "selftest.py":
            walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, "")
    return out


def unreached() -> tuple[list[str], list[str]]:
    """The functions no command enters, and the commands that exited with
    another code than listed."""
    import grouplin
    from grouplin import cli  # noqa: F401  (imported before the profile starts)

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_inputs(tmp)
        runs = commands()
        # the runs start from nothing kept, not from what writing the inputs kept
        for module in vars(grouplin).values():
            for value in vars(module).values() if isinstance(module, type(grouplin)) else ():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        sys.setprofile(profile)
        try:
            faults = run_commands(tmp, runs)
        finally:
            sys.setprofile(None)
    entered = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    return sorted(name for key, name in functions().items() if key not in entered), faults


def test_every_function_is_reached_or_allowed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    start = time.perf_counter()
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["faults"] == []
    assert sorted(report["unreached"]) == sorted(ALLOWED)
    assert elapsed <= 10


if __name__ == "__main__":
    names, faults = unreached()
    print(json.dumps({"unreached": names, "faults": faults}, indent=1))
