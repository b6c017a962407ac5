import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grouplin
from grouplin import catalog, io
from grouplin.cli import main
from grouplin.errors import InvalidParams, table_cap
from grouplin.reduction import ReductionParams, build_system, make_label_cover, projection_family



def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(io.canonical_dumps(obj), encoding="utf-8")
    return str(path)


def test_verify_group_catalog_name(capsys):
    code, out, _ = run(capsys, "verify-group", "q8")
    assert code == 0
    assert json.loads(out)["order"] == 8


def test_verify_group_file(tmp_path, capsys):
    path = write(tmp_path, "z3.json", io.group_to_obj(catalog.group("z3")))
    code, out, _ = run(capsys, "verify-group", path)
    assert code == 0


def test_verify_group_reports_offending_triple(tmp_path, capsys):
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table[2][2] = 3
    path = write(tmp_path, "bad.json", {"name": "bad", "elements": list("abcde"), "table": table})
    code, _, err = run(capsys, "verify-group", path)
    assert code == 2
    assert "e" in err and "*" in err  # names the triple


def test_irreps_json_output(capsys):
    code, out, _ = run(capsys, "irreps", "s3", "--seed", "0")
    assert code == 0
    reps = json.loads(out)
    assert sorted(r["dim"] for r in reps) == [1, 1, 2]
    trivial = reps[0]
    assert all(c == [1.0, 0.0] for c in trivial["character"])


def test_reduce_eval_solve_roundtrip(tmp_path, capsys):
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc1")))
    code, out, _ = run(
        capsys, "reduce", lc_path, "--template", "z2_id", "--eps", "1/4"
    )
    assert code == 0
    system_obj = json.loads(out)
    total = sum(io.parse_frac(eq["weight"]) for eq in system_obj["equations"])
    assert total == 1
    system_path = write(tmp_path, "system.json", system_obj)

    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    from grouplin.reduction import family_assignment

    assignment = family_assignment(lc, t, fam)
    a_path = write(tmp_path, "assignment.json", assignment)
    code, out, _ = run(
        capsys, "eval", system_path, "--assignment", a_path, "--side", "g1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "7/8"

    code, out, _ = run(capsys, "solve", system_path, "--method", "expect")
    assert code == 0
    assert io.parse_frac(json.loads(out)["value"]) == Fraction(1, 2)

    code, out, _ = run(capsys, "solve", system_path, "--method", "derand")
    assert code == 0
    assert io.parse_frac(json.loads(out)["value"]) >= Fraction(1, 2)


def test_eval_and_solve_read_any_json_layout(tmp_path, capsys):
    """Compact separators, shuffled keys in each equation and ``variables``
    before ``equations`` give the same stdout as the canonical file."""
    code, canonical, _ = run(capsys, "reduce", "lc1", "--template", "s3_sign", "--eps", "1/8")
    assert code == 0
    obj = json.loads(canonical)
    rng = random.Random(0)
    equations = []
    for eq in obj["equations"]:
        keys = list(eq)
        rng.shuffle(keys)
        equations.append({k: eq[k] for k in keys})
    relaid = {"variables": obj["variables"], "template": obj["template"], "equations": equations}
    paths = [tmp_path / "canonical.json", tmp_path / "relaid.json"]
    paths[0].write_text(canonical, encoding="utf-8")
    paths[1].write_text(json.dumps(relaid, separators=(",", ":")), encoding="utf-8")
    assignment = write(tmp_path, "assignment.json", dict.fromkeys(obj["variables"], 1))
    for argv in (["eval", "--assignment", assignment], ["solve", "--method", "derand"]):
        outs = [run(capsys, argv[0], str(path), *argv[1:]) for path in paths]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0


@pytest.mark.parametrize("bad", [7, -1])
def test_eval_rejects_out_of_range_values(tmp_path, capsys, bad):
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc_tiny")))
    code, out, _ = run(capsys, "reduce", lc_path, "--template", "z4_to_z2", "--eps", "1/4")
    assert code == 0
    system_obj = json.loads(out)
    system_path = write(tmp_path, "system.json", system_obj)
    assignment = dict.fromkeys(system_obj["variables"], 0)
    a_path = write(tmp_path, "ok.json", assignment)
    code, out, _ = run(capsys, "eval", system_path, "--assignment", a_path)
    assert code == 0
    assignment[system_obj["variables"][0]] = bad
    a_path = write(tmp_path, "bad.json", assignment)
    for side in ("g1", "g2"):
        code, out, err = run(capsys, "eval", system_path, "--assignment", a_path, "--side", side)
        assert code == 2
        assert out == ""
        assert "outside" in err


def _set(path, value):
    """An edit that sets ``path`` of a JSON object to ``value``."""

    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj

    return edit


# case -> (edit of the system object, edit of the assignment object)
MALFORMED_FILES = {
    "equations-not-a-list": (lambda s: {**s, "equations": 5}, None),
    "system-not-an-object": (lambda s: [1, 2], None),
    "rhs-past-int64": (_set(("equations", 0, "rhs"), 10**20), None),
    "rhs-float": (_set(("equations", 0, "rhs"), 0.5), None),
    "sign-float": (_set(("equations", 0, "terms", 0, 1), 1.9), None),
    "sign-bool": (_set(("equations", 0, "terms", 0, 1), True), None),
    "assignment-not-an-object": (None, lambda a: [0]),
    "value-float": (None, lambda a: {**a, next(iter(a)): 1.7}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_eval_rejects_malformed_files_with_exit_2(tmp_path, capsys, case):
    """No traceback and no truncation: a malformed field is an error."""
    code, out, _ = run(capsys, "reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/4")
    system = json.loads(out)
    assignment = dict.fromkeys(system["variables"], 0)
    edit_system, edit_assignment = MALFORMED_FILES[case]
    if edit_system:
        system = edit_system(system)
    if edit_assignment:
        assignment = edit_assignment(assignment)
    s_path = write(tmp_path, "system.json", system)
    a_path = write(tmp_path, "assignment.json", assignment)
    code, out, err = run(capsys, "eval", s_path, "--assignment", a_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParams")
    assert err.count("\n") == 1


def _tiny_system():
    return build_system(catalog.label_cover("lc_tiny"), catalog.template("z2_id"), ReductionParams(Fraction(1, 4)))


def _eval_argv(path):
    """``eval`` of the assignment at ``path`` on lc_tiny's z2_id system,
    written beside it."""
    system_path = os.path.join(os.path.dirname(path), "system.json")
    Path(system_path).write_text(io.canonical_dumps(io.system_to_obj(_tiny_system(), "z2_id")), encoding="utf-8")
    return ["eval", system_path, "--assignment", path]


# input kind -> (a valid object of that kind, argv reading it from a path)
INPUT_KINDS = {
    "assignment": (lambda: dict.fromkeys(_tiny_system().variables, 0), _eval_argv),
    "family": (
        lambda: io.family_to_obj(
            projection_family(
                catalog.label_cover("lc1"), catalog.template("z2_id"), {"u0": "d0"}, {"v0": "e0"}, side=2
            )
        ),
        lambda path: ["decode", "lc1", "--template", "z2_id", "--family", path, "--eps", "1/4", "--delta", "1/4"],
    ),
    "lc": (
        lambda: io.lc_to_obj(catalog.label_cover("lc_tiny")),
        lambda path: ["reduce", path, "--template", "z2_id", "--eps", "1/4"],
    ),
    "group": (
        lambda: io.group_to_obj(catalog.group("z2")),
        lambda path: ["verify-group", path],
    ),
    "template": (
        lambda: io.template_to_obj(catalog.template("z4_to_z2"), "catalog:z4", "catalog:z2"),
        lambda path: ["reduce", "lc_tiny", "--template", path, "--eps", "1/4"],
    ),
}

# case -> (input kind, edit of the valid object)
MALFORMED_INPUTS = {
    "family-not-an-object": ("family", lambda f: [1, 2]),
    "family-tables-not-an-object": ("family", lambda f: {**f, "A": [1, 2]}),
    "family-table-not-a-list": ("family", lambda f: {**f, "B": {"u0": 3}}),
    "family-value-float": ("family", _set(("A", "v0", 0), 0.7)),
    "family-value-bool": ("family", _set(("B", "u0", 0), True)),
    "lc-not-an-object": ("lc", lambda lc: [1, 2]),
    "lc-edges-not-a-list": ("lc", lambda lc: {**lc, "edges": 5}),
    "lc-edge-not-an-object": ("lc", lambda lc: {**lc, "edges": [5]}),
    "lc-pi-not-an-object": ("lc", _set(("edges", 0, "pi"), [1])),
    "lc-repeated-label": ("lc", lambda lc: {**lc, "D": lc["D"] + lc["D"][:1]}),
    "lc-repeated-vertex": ("lc", lambda lc: {**lc, "V": lc["V"] + lc["V"][:1]}),
    "family-extra-vertex": ("family", _set(("A", "vX"), [0, 1])),
    "assignment-extra-variable": ("assignment", lambda a: {**a, "zzz": 0, "zzzz": 1}),
    "group-not-an-object": ("group", lambda g: [1, 2]),
    "group-row-not-a-list": ("group", _set(("table", 0), 5)),
    "group-entry-float": ("group", _set(("table", 0, 0), 0.5)),
    "group-entry-bool": ("group", _set(("table", 1, 1), False)),
    "group-ragged-row": ("group", _set(("table", 1), [1])),
    "template-not-an-object": ("template", lambda t: [1, 2]),
    "template-group-not-a-string": ("template", lambda t: {**t, "g1": 5}),
    "template-hom-not-an-object": ("template", lambda t: {**t, "homomorphism": 5}),
    "template-map-float": ("template", _set(("homomorphism", "map", "1"), 1.5)),
    "template-domain-float": ("template", _set(("homomorphism", "domain", 1), 1.0)),
}
# case -> what its message must name
MALFORMED_INPUT_MESSAGES = {
    "lc-repeated-label": "d0 appears more than once in D",
    "lc-repeated-vertex": "v0 appears more than once in V",
    "family-extra-vertex": "family A table for vX, which is not a vertex in V",
    "assignment-extra-variable": "the assignment names zzz, which is not a variable of the system",
    "group-ragged-row": '"table" row 1 has 1 entries, where row 0 has 2',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2(tmp_path, capsys, case):
    """No traceback and no truncation: a malformed family, Label Cover,
    group or template file is an error."""
    kind, edit = MALFORMED_INPUTS[case]
    valid, argv = INPUT_KINDS[kind]
    path = write(tmp_path, f"{kind}.json", edit(valid()))
    code, out, err = run(capsys, *argv(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParams")
    assert MALFORMED_INPUT_MESSAGES.get(case, "") in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
def test_valid_input_files_exit_0(tmp_path, capsys, kind):
    valid, argv = INPUT_KINDS[kind]
    path = write(tmp_path, f"{kind}.json", valid())
    assert run(capsys, *argv(path))[0] == 0


@pytest.mark.parametrize(
    "samples,mode",
    [("-3", "sampled"), ("0", "sampled"), ("-3", "exact"), ("0", "exact")],
    ids=["-3", "0", "exact--3", "exact-0"],
)
def test_reduce_needs_a_positive_sample_count(capsys, samples, mode):
    # exact mode draws nothing, but it refuses a count sampled mode would
    argv = ["reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/4", "--mode", mode]
    code, out, err = run(capsys, *argv, "--samples", samples)
    assert (code, out) == (2, "")
    assert "positive integer sample_count" in err
    with pytest.raises(InvalidParams, match="positive integer sample_count"):
        ReductionParams(Fraction(1, 4), mode=mode, sample_count=int(samples))


def test_solve_noncubic_requires_c(tmp_path, capsys):
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc1")))
    code, out, _ = run(capsys, "reduce", lc_path, "--template", "z3_id", "--eps", "1/4")
    system_path = write(tmp_path, "system.json", json.loads(out))
    code, _, err = run(capsys, "solve", system_path, "--method", "noncubic")
    assert code == 2
    code, out, _ = run(
        capsys, "solve", system_path, "--method", "noncubic", "--c", "1/2"
    )
    assert code == 0
    assert json.loads(out)["status"] == "accept"


def test_decode_command(tmp_path, capsys):
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    fam_path = write(tmp_path, "family.json", io.family_to_obj(fam))
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(lc))
    code, out, err = run(
        capsys,
        "decode",
        lc_path,
        "--template",
        "z2_id",
        "--family",
        fam_path,
        "--eps",
        "1/8",
        "--delta",
        "1/4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["omega"] == 1
    assert report["eta"] == 0
    assert abs(report["margin"] - 0.625) < 1e-9
    assert report["kappa"] == 21  # not clamped to |D| = 2
    assert report["derandomized"]["value"] == "1/1"
    assert report["family_value"] == "15/16"


def test_decode_exit_code_on_promise_violation(tmp_path, capsys):
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    from grouplin.reduction import support
    import numpy as np

    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    fam = io.family_to_obj(
        __import__("grouplin").AssignmentFamily(
            2, {"v0": np.zeros(pe.n, dtype=int)}, {"u0": np.zeros(pd.n, dtype=int)}
        )
    )
    fam_path = write(tmp_path, "family.json", fam)
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(lc))
    code, _, err = run(
        capsys,
        "decode",
        lc_path,
        "--template",
        "z2_id",
        "--family",
        fam_path,
        "--eps",
        "1/8",
        "--delta",
        "1/4",
    )
    assert code == 4
    assert "promise" in err
    # the folded all-zero family has value 1/2, so the sign irrep's margin is 0 - delta
    assert "the largest is -0.25, at irrep 1" in err


def test_cap_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GROUPLIN_CAP", "10")
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc1")))
    code, _, err = run(capsys, "reduce", lc_path, "--template", "z2_id", "--eps", "1/4")
    assert code == 3
    assert "cap" in err.lower()


def _system_file(tmp_path, capsys, template="z2_id"):
    code, out, _ = run(capsys, "reduce", "lc1", "--template", template, "--eps", "1/4")
    assert code == 0
    path = tmp_path / "system.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("method", ["brute", "derand"])
@pytest.mark.parametrize("cap", ["-1", "0", "x"])
def test_a_cap_below_one_exits_2_naming_it(tmp_path, capsys, cap, method):
    path = _system_file(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--method", method, "--cap", cap])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --cap: must be a positive integer, got '{cap}'" in out.err



@pytest.mark.parametrize("env", ["-5", "0", "abc", "1.5"])
def test_grouplin_cap_must_be_a_positive_integer(capsys, monkeypatch, env):
    monkeypatch.setenv("GROUPLIN_CAP", env)
    code, out, err = run(capsys, "reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/4")
    assert (code, out) == (2, "")
    assert f"GROUPLIN_CAP must be a positive integer, got {env!r}" in err
    with pytest.raises(InvalidParams, match="GROUPLIN_CAP"):
        table_cap()


SEEDED = {
    "reduce": ["reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/4"],
    "reduce-sampled": ["reduce", "lc_tiny", "--template", "z2_id", "--eps", "1/4", "--mode", "sampled", "--samples", "5"],
    "pipeline": ["pipeline", "lc_tiny", "--template", "z2_id", "--eps", "1/4", "--delta", "1/4"],
    "decode": ["decode", "lc1", "--template", "z2_id", "--eps", "1/4", "--delta", "1/4"],
    "irreps": ["irreps", "s3"],
    "selftest": ["selftest", "io"],
}


@pytest.mark.parametrize("seed", ["-1", "x"])
@pytest.mark.parametrize("command", sorted(SEEDED))
def test_a_bad_seed_exits_2_naming_the_option(tmp_path, capsys, command, seed):
    argv = SEEDED[command]
    if command == "decode":
        t, lc = catalog.template("z2_id"), catalog.label_cover("lc1")
        fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
        argv = [*argv, "--family", write(tmp_path, "family.json", io.family_to_obj(fam))]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in out.err


@pytest.mark.parametrize("kind", ["a system file", "a long number"])
def test_a_bad_assignment_gives_one_short_line(tmp_path, capsys, kind):
    path = _system_file(tmp_path, capsys)
    if kind == "a system file":
        assignment = path
    else:
        assignment = tmp_path / "assignment.json"
        assignment.write_text('{"u0[0]": 1' + "0" * 1000 + "}", encoding="utf-8")
    code, out, err = run(capsys, "eval", path, "--assignment", str(assignment))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200


def test_pipeline_labeling_search_over_the_cap_exits_3(tmp_path, capsys):
    # 2^21 labelings of 21 left vertices, each on one edge: over the
    # default enumeration cap before anything is built
    u_names = [f"u{i}" for i in range(21)]
    lc = make_label_cover(
        ["d0", "d1"], ["e0"], u_names, ["v0"], [(u, "v0", {"d0": "e0", "d1": "e0"}) for u in u_names]
    )
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(lc))
    code, out, err = run(
        capsys, "pipeline", lc_path, "--template", "z2_id", "--eps", "1/4", "--delta", "1/4"
    )
    assert code == 3
    assert out == ""
    assert "labelings" in err


@pytest.mark.parametrize("bad", [7, -1])
@pytest.mark.parametrize("table", ["A", "B"])
def test_decode_and_pipeline_reject_out_of_range_family_values(tmp_path, capsys, table, bad):
    t, lc = catalog.template("z2_id"), catalog.label_cover("lc1")
    fam = io.family_to_obj(projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2))
    next(iter(fam[table].values()))[0] = bad
    fam_path = write(tmp_path, "family.json", fam)
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(lc))
    common = ["--template", "z2_id", "--family", fam_path, "--eps", "1/4", "--delta", "1/4"]
    for command in ("decode", "pipeline"):
        code, out, err = run(capsys, command, lc_path, *common)
        assert code == 2
        assert out == ""
        assert "outside" in err


def test_invalid_eps_exit_code(tmp_path, capsys):
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc1")))
    code, _, _ = run(capsys, "reduce", lc_path, "--template", "z2_id", "--eps", "0")
    assert code == 2


def _digits(text: str) -> int:
    """An integer of any length from its digits, read in pieces under the
    interpreter's limit on integer strings, which stays as it is."""
    value = 0
    for lo in range(0, len(text), 1000):
        piece = text[lo : lo + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.mark.parametrize("command", ["pipeline", "decode"])
def test_a_small_eps_writes_its_exact_alpha(tmp_path, capsys, command):
    # at eps = 1/4001 kappa is 11,092 and alpha's denominator has 8,638
    # digits, over the interpreter's limit of 4,300 for int-to-str
    lc, t = catalog.label_cover("lc1"), catalog.template("s3_sign")
    family = write(tmp_path, "fam.json", io.family_to_obj(projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)))
    extra = ("--family", family) if command == "decode" else ()
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, command, "lc1", "--template", "s3_sign", "--eps", "1/4001", "--delta", "1/4", *extra)
    assert (code, err) == (0, "")
    report = json.loads(out)
    report = report if command == "decode" else report["decoder"]
    num, den = report["alpha"].split("/")
    assert len(den) > limit and sys.get_int_max_str_digits() == limit
    assert Fraction(_digits(num), _digits(den)) == grouplin.alpha(Fraction(1, 4), Fraction(1, 4001), 6, 2)
    assert report["kappa"] == 11092


def test_frac_str_writes_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for x in (Fraction(-(10**5000) + 7, 3**9000), Fraction(10**1000), Fraction(5, 7)):
        num, den = io.frac_str(x).split("/")
        assert Fraction(-_digits(num[1:]) if num[0] == "-" else _digits(num), _digits(den)) == x
    assert io.frac_str(Fraction(10**5000)) == "1" + "0" * 5000 + "/1"
    assert sys.get_int_max_str_digits() == limit


def test_a_too_long_integer_exits_2_naming_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for eps in (f"1/{long}", long):
        code, out, err = run(capsys, "pipeline", "lc1", "--template", "s3_sign", "--eps", eps, "--delta", "1/4")
        assert (code, out) == (2, "")
        assert f"an integer of {limit + 1} digits" in err and f"limit of {limit} digits" in err
        assert "not a rational" not in err and len(err) < 200
    with pytest.raises(InvalidParams, match="not a rational"):
        io.parse_frac("1/" + "x" * (limit + 1))


def test_pipeline_reports_exact_completeness(tmp_path, capsys):
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc1")))
    code, out, _ = run(
        capsys,
        "pipeline",
        lc_path,
        "--template",
        "z2_id",
        "--eps",
        "1/4",
        "--delta",
        "1/4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["completeness"] == "7/8"
    assert report["lc_optimum"] == "1/1"
    assert report["decoder"]["derandomized"]["value"] == "1/1"


def test_template_file_loading(tmp_path, capsys):
    z4 = write(tmp_path, "z4.json", io.group_to_obj(catalog.group("z4")))
    z2 = write(tmp_path, "z2.json", io.group_to_obj(catalog.group("z2")))
    t_obj = {
        "name": "file_template",
        "g1": "z4.json",
        "g2": "z2.json",
        "homomorphism": {"domain": [0, 1, 2, 3], "map": {str(x): x % 2 for x in range(4)}},
    }
    t_path = write(tmp_path, "template.json", t_obj)
    lc_path = write(tmp_path, "lc.json", io.lc_to_obj(catalog.label_cover("lc_tiny")))
    code, out, _ = run(capsys, "reduce", lc_path, "--template", t_path, "--eps", "1/2")
    assert code == 0
    obj = json.loads(out)
    assert sum(io.parse_frac(eq["weight"]) for eq in obj["equations"]) == 1


def test_selftest_module_filter(capsys):
    code, out, _ = run(capsys, "selftest", "io")
    assert code == 0
    assert "json-canonical-roundtrip" in out


def test_selftest_unreachable_tolerance(capsys):
    # below float noise the residual checks must fail and exit non-zero
    code, out, _ = run(capsys, "selftest", "fourier", "--tol", "1e-15")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "0.5", "2e-6", "inf", "x"])
@pytest.mark.parametrize("argv", [["selftest", "fourier"], ["selftest", "reps"], ["irreps", "s3"]])
def test_a_tolerance_outside_the_range_exits_2_naming_it(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --tol: must be in (0, 1e-6], got '{tol}'" in out.err


def test_selftest_unknown_module_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "fouier"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_the_cli_imports_selftest_only_for_its_subcommand():
    # a fresh interpreter: this process has imported selftest already
    src = str(Path(grouplin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, grouplin.cli; print('grouplin.selftest' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    bogus = subprocess.run([sys.executable, "-m", "grouplin.cli", "selftest", "bogus"], env=env, capture_output=True, text=True)
    assert bogus.returncode == 2
    assert "invalid choice: 'bogus'" in bogus.stderr


def test_group_json_parses_back_to_same_group(tmp_path):
    for name in ("z2", "s3", "q8"):
        g = catalog.group(name)
        obj = io.group_to_obj(g)
        back = io.obj_to_group(json.loads(io.canonical_dumps(obj)))
        assert back.table == g.table and back.elements == g.elements
