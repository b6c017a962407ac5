"""The geometry kernel behind ``build_system``, its unmerged rows and
``payoff_distribution``, the array-backed system reader and the streaming
``io.write_system``, against the per-tuple reference loops in
``reference_reduction``: identical equations, Fractions and bytes."""

import copy
import io as text_io
from dataclasses import replace
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reduction as ref
from grouplin import (
    AssignmentFamily,
    InvalidParams,
    ReductionParams,
    build_system,
    catalog,
    evaluate,
    evaluate_family,
    family_assignment,
    io,
    make_label_cover,
    payoff_distribution,
    projection_family,
)
from grouplin.cli import main
from grouplin.reduction import LinEquation, LinSystem, support

TEMPLATES = sorted(catalog.templates())
EPS_CHOICES = (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(7, 9))
# tuples per edge, so that the reference loops stay fast
EDGE_BUDGET = 1500
TOTAL_BUDGET = 3000
# names that JSON must escape: quotes, backslashes, controls, non-ASCII
# (one past the BMP); no brackets, so variable names stay distinct
NAMES = st.text(alphabet='a"\\/\n\x00\u00e9\u2603\U0001F600', max_size=3)


@st.composite
def instances(draw):
    """A catalog template and a small Label Cover instance over it. Edges
    pick their endpoints at random, so parallel u-v edges (the only source
    of merged equations in exact mode) are common."""
    tname = draw(st.sampled_from(TEMPLATES))
    t = catalog.template(tname)
    n = len(t.g1)
    shapes = [
        (d, e) for d in (1, 2) for e in (1, 2) if 4 * n ** (e + 2 * d) <= EDGE_BUDGET
    ]
    d, e = draw(st.sampled_from(shapes))
    per_edge = 4 * n ** (e + 2 * d)
    d_labels = [f"d{i}" for i in range(d)]
    e_labels = [f"e{i}" for i in range(e)]
    u_names = ["u" + x for x in draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))]
    v_names = ["v" + x for x in draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))]
    edge = st.tuples(
        st.sampled_from(u_names),
        st.sampled_from(v_names),
        st.fixed_dictionaries({dl: st.sampled_from(e_labels) for dl in d_labels}),
    )
    edges = draw(st.lists(edge, min_size=1, max_size=min(3, TOTAL_BUDGET // per_edge)))
    lc = make_label_cover(d_labels, e_labels, u_names, v_names, edges)
    return tname, t, lc, draw(st.sampled_from(EPS_CHOICES))


def _params(draw, eps):
    if draw(st.booleans()):
        return ReductionParams(eps)
    return ReductionParams(
        eps, mode="sampled", sample_count=draw(st.integers(1, 120)), seed=draw(st.integers(0, 999))
    )


def _weights(enc):
    return [enc.weights[c] for c in enc.weight_class]


def assert_same_text(got: str, expect: str) -> None:
    """Exact equality, compared line by line so that a failure reports the
    first differing line: pytest's diff of two multi-megabyte strings takes
    minutes."""
    assert got.splitlines(keepends=True) == expect.splitlines(keepends=True)


def _written(system, template_ref) -> str:
    out = text_io.StringIO()
    io.write_system(system, template_ref, out)
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(case=instances(), data=st.data())
def test_build_system_matches_reference(case, data):
    tname, t, lc, eps = case
    params = _params(data.draw, eps)
    system, expect = build_system(lc, t, params), ref.build_system(lc, t, params)
    enc, ref_enc = system.arrays, expect.arrays
    assert system.variables == expect.variables
    assert enc.var_ids.tolist() == ref_enc.var_ids.tolist()
    assert enc.signs.tolist() == ref_enc.signs.tolist()
    assert enc.rhs.tolist() == ref_enc.rhs.tolist()
    assert _weights(enc) == _weights(ref_enc)
    # one weight class per row class: each is used, and two may weigh the same
    assert np.bincount(enc.weight_class, minlength=len(enc.weights)).all()
    assert system.equations == expect.equations
    assert_same_text(
        io.canonical_dumps(io.system_to_obj(system, tname)),
        io.canonical_dumps(ref.system_to_obj(expect, tname)),
    )
    # the unmerged tuples, in the procedure's order
    raw = ref.raw_equations if params.mode == "exact" else ref.sampled_equations
    unmerged = tuple(LinEquation(*row) for row in raw(lc, t, params))
    assert ref.tuple_system(lc, t, params).equations == unmerged


@settings(max_examples=60, deadline=None)
@given(case=instances(), ref_name=NAMES, data=st.data())
def test_write_system_matches_reference(case, ref_name, data):
    """Exact and sampled systems, with parallel edges and names to escape.
    The lc1 pairs of the CLI test below span several write chunks."""
    _, t, lc, eps = case
    params = _params(data.draw, eps)
    expect = ref.build_system(lc, t, params)
    assert_same_text(
        _written(build_system(lc, t, params), ref_name),
        io.canonical_dumps(ref.system_to_obj(expect, ref_name)),
    )


def test_write_system_single_equation():
    t = catalog.template("s3_a3_incl")
    names = ('x"\\', "y\u00e9", "z\U0001F600")
    system = LinSystem(t, names, [LinEquation(((names[0], 1), (names[1], -1), (names[2], 1)), 4, Fraction(1))])
    expect = io.canonical_dumps(ref.system_to_obj(system, 'tpl"\\\u2603'))
    assert _written(system, 'tpl"\\\u2603') == expect
    assert '"rhs": 4' in expect and len(system.arrays) == 1


def _numbered_system(template, m: int) -> LinSystem:
    """``m`` seeded equations, the k-th of weight k / (1 + ... + m), so
    every equation is a weight class of its own."""
    rng = np.random.default_rng(m)
    names = tuple(f"x{i}" for i in range(50))
    total = m * (m + 1) // 2
    eqs = [
        LinEquation(
            tuple((names[v], int(sg)) for v, sg in zip(rng.integers(len(names), size=3), rng.choice([1, -1], size=3))),
            int(rng.choice(template.h1.members)),
            Fraction(k, total),
        )
        for k in range(1, m + 1)
    ]
    return LinSystem(template, names, eqs)


@pytest.mark.parametrize("m", [io.WRITE_CHUNK, io.WRITE_CHUNK + 1])
def test_write_system_at_the_chunk_edge(m):
    system = _numbered_system(catalog.template("s3_a3_incl"), m)
    assert len(system.arrays) == len(system.arrays.weights) == m
    assert_same_text(_written(system, "s3_a3_incl"), io.canonical_dumps(ref.system_to_obj(system, "s3_a3_incl")))


def test_write_system_sampled_with_many_weight_classes():
    t = catalog.template("z3_id")
    params = ReductionParams(Fraction(1, 8), mode="sampled", sample_count=50000, seed=3)
    system = build_system(catalog.label_cover("lc1"), t, params)
    assert len(system.arrays.weights) > 50
    assert_same_text(_written(system, "z3_id"), io.canonical_dumps(ref.system_to_obj(system, "z3_id")))


class _Sink:
    """A text stream that keeps only the length of its longest write."""

    def __init__(self):
        self.longest = 0

    def write(self, text: str) -> None:
        self.longest = max(self.longest, len(text))


def _write_peak(system) -> tuple[int, int]:
    """The peak bytes traced while writing ``system`` to a sink, and the
    length of its longest write: one chunk's text."""
    sink = _Sink()
    tracemalloc.start()
    try:
        io.write_system(system, "s3_sign", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.longest


def test_write_system_peak_memory_is_one_chunk():
    """s3_sign/lc1 (31,104 equations, 8 chunks) against its first
    ``WRITE_CHUNK`` equations reweighed to sum to 1: the writer holds one
    chunk's fragments and text at a time (about 1.5x the text; joining one
    string per equation took 3x), so the whole system peaks no higher than
    one chunk, up to 1% for chunk texts that differ in length."""
    t = catalog.template("s3_sign")
    system = build_system(catalog.label_cover("lc1"), t, ReductionParams(Fraction(1, 8)))
    enc, head = system.arrays, slice(0, io.WRITE_CHUNK)
    counts = np.bincount(enc.weight_class[head], minlength=len(enc.weights))
    total = sum(w * int(c) for w, c in zip(enc.weights, counts))
    rows = {k: getattr(enc, k)[head] for k in ("var_ids", "signs", "rhs", "weight_class")}
    prefix = LinSystem.from_arrays(t, system.variables, replace(enc, **rows, weights=tuple(w / total for w in enc.weights)))
    peak, chunk_text = _write_peak(system)
    prefix_peak, _ = _write_peak(prefix)
    assert len(enc) > 7 * io.WRITE_CHUNK
    assert peak <= 2 * chunk_text
    assert peak <= 1.01 * prefix_peak


@settings(max_examples=60, deadline=None)
@given(case=instances(), side=st.sampled_from((1, 2)), data=st.data())
def test_payoff_distribution_matches_reference(case, side, data):
    _, t, lc, eps = case
    params = ReductionParams(eps)
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    order = len(t.g1 if side == 1 else t.g2)
    table = lambda size: np.array(data.draw(st.lists(st.integers(0, order - 1), min_size=size, max_size=size)))
    family = AssignmentFamily(
        side, {v: table(pe.n) for v in lc.v_names}, {u: table(pd.n) for u in lc.u_names}
    )
    got = payoff_distribution(lc, t, params, family, side)
    expect = ref.payoff_distribution(lc, t, params, family, side)
    assert got == expect
    assert list(got) == sorted(expect)  # elements in element order


CATALOG_PAIRS = [(t, lc) for t in TEMPLATES for lc in sorted(catalog.label_covers())]
# tuples the per-tuple reference may walk per pair: every catalog pair but
# s3_sign/lc2 and s3_a3_incl/lc2 (373,248 tuples each)
REFERENCE_BUDGET = 40_000


def _tuple_count(tname, lc_name):
    lc, n = catalog.label_cover(lc_name), len(catalog.template(tname).g1)
    return len(lc.edges) * 4 * n ** (len(lc.e_labels) + 2 * len(lc.d_labels))


def _catalog_families(tname, lc_name, side, seed):
    """The planted projection family of d0/e0 and a seeded random family."""
    t, lc = catalog.template(tname), catalog.label_cover(lc_name)
    sup = support(lc, t)
    pe, pd = sup.pe, sup.pd
    order = len(t.g1 if side == 1 else t.g2)
    rng = np.random.default_rng(seed)
    planted = projection_family(
        lc, t, {u: "d0" for u in lc.u_names}, {v: "e0" for v in lc.v_names}, side
    )
    random = AssignmentFamily(
        side,
        {v: rng.integers(0, order, size=pe.n) for v in lc.v_names},
        {u: rng.integers(0, order, size=pd.n) for u in lc.u_names},
    )
    return t, lc, (planted, random)


@pytest.mark.parametrize(
    "tname,lc_name",
    [
        (tname, lc_name)
        for tname, lc_name in CATALOG_PAIRS
        if _tuple_count(tname, lc_name) <= REFERENCE_BUDGET
    ],
)
def test_payoff_distribution_matches_reference_on_the_catalog(tname, lc_name):
    params = ReductionParams(Fraction(1, 8))
    for side in (1, 2):
        t, lc, (_, random) = _catalog_families(tname, lc_name, side, seed=side)
        expect = ref.payoff_distribution(lc, t, params, random, side)
        got = payoff_distribution(lc, t, params, random, side)
        assert got == expect
        assert list(got) == sorted(expect)


@pytest.mark.parametrize("tname,lc_name", CATALOG_PAIRS)
def test_identity_mass_equals_evaluate_on_the_catalog(tname, lc_name):
    params = ReductionParams(Fraction(1, 8))
    system = build_system(catalog.label_cover(lc_name), catalog.template(tname), params)
    for side in (1, 2):
        t, lc, families = _catalog_families(tname, lc_name, side, seed=10 + side)
        for family in families:
            assert evaluate_family(lc, t, params, family, side) == evaluate(
                system, family_assignment(lc, t, family), side
            )


def test_parallel_edges_merge_like_the_reference():
    t = catalog.template("z3_id")
    pi = {"d0": "e0"}
    lc = make_label_cover(["d0"], ["e0"], ["u0"], ["v0"], [("u0", "v0", pi), ("u0", "v0", pi)])
    params = ReductionParams(Fraction(1, 4))
    system, tuples = build_system(lc, t, params), ref.tuple_system(lc, t, params)
    assert 2 * len(system.arrays) == len(tuples.arrays)
    expect = ref.build_system(lc, t, params)
    assert system.equations == expect.equations
    assert_same_text(_written(system, "z3_id"), io.canonical_dumps(ref.system_to_obj(expect, "z3_id")))


def test_merge_invariance():
    # merging identical equations keeps every assignment's value
    t, lc = catalog.template("z2_id"), make_label_cover(["d0"], ["e0"], ["u0"], ["v0"], [("u0", "v0", {"d0": "e0"})] * 2)
    params = ReductionParams(Fraction(1, 4))
    system, tuples = build_system(lc, t, params), ref.tuple_system(lc, t, params)
    assert len(system.arrays) < len(tuples.arrays)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assignment = {x: int(rng.integers(2)) for x in system.variables}
        assert evaluate(system, assignment, side=1) == evaluate(tuples, assignment, side=1)


def test_equations_view_is_built_once():
    system = build_system(catalog.label_cover("lc1"), catalog.template("z2_id"), ReductionParams(Fraction(1, 4)))
    assert system.equations is system.equations


@pytest.mark.parametrize("lc_name", ("lc_tiny", "lc1"))
@pytest.mark.parametrize("tname", TEMPLATES)
def test_cli_reduce_gives_reference_bytes(tname, lc_name, capsys):
    sampled = ["--mode", "sampled", "--samples", "300", "--seed", "7"]
    for extra, params in (
        ([], ReductionParams(Fraction(1, 8))),
        (sampled, ReductionParams(Fraction(1, 8), mode="sampled", sample_count=300, seed=7)),
    ):
        code = main(["reduce", lc_name, "--template", tname, "--eps", "1/8", *extra])
        out = capsys.readouterr().out
        assert code == 0
        expect = ref.build_system(catalog.label_cover(lc_name), catalog.template(tname), params)
        assert_same_text(out, io.canonical_dumps(ref.system_to_obj(expect, tname)))


# -- obj_to_system and load_system ---------------------------------------------

@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("systems")


@settings(max_examples=60, deadline=None)
@given(case=instances(), ref_name=NAMES, data=st.data())
def test_load_system_reads_back_what_write_system_writes(system_dir, case, ref_name, data):
    """Exact and sampled systems, with parallel edges and names to escape;
    weight classes come back in order of first occurrence."""
    _, t, lc, eps = case
    system = build_system(lc, t, _params(data.draw, eps))
    path = system_dir / "system.json"
    path.write_text(_written(system, ref_name), encoding="utf-8")
    loaded, ref_back = io.load_system(str(path), t)
    enc, back = system.arrays, loaded.arrays
    assert ref_back == ref_name
    assert loaded.variables == system.variables
    assert back.var_ids.tolist() == enc.var_ids.tolist()
    assert back.signs.tolist() == enc.signs.tolist()
    assert back.rhs.tolist() == enc.rhs.tolist()
    assert _weights(back) == _weights(enc)
    assert back.weights == tuple(dict.fromkeys(_weights(enc)))


def test_load_system_peak_memory_stays_near_the_file_size(tmp_path):
    """The 32,768-equation z4_to_z2 system over two edges, read under
    tracemalloc. Packing each equation as it is parsed keeps the peak at
    about twice the file size (its bytes and its text are held together
    while it is read); holding every equation object takes over 4x."""
    t = catalog.template("z4_to_z2")
    lc = make_label_cover(
        ["d0", "d1"], ["e0", "e1"], ["u0", "u1"], ["v0"],
        [("u0", "v0", {"d0": "e0", "d1": "e1"}), ("u1", "v0", {"d0": "e1", "d1": "e1"})],
    )
    system = build_system(lc, t, ReductionParams(Fraction(1, 8)))
    assert len(system.arrays) == 32768
    path = tmp_path / "system.json"
    path.write_text(_written(system, "z4_to_z2"), encoding="utf-8")
    tracemalloc.start()
    try:
        loaded, _ = io.load_system(str(path), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.arrays.var_ids.tolist() == system.arrays.var_ids.tolist()
    assert peak < 2.5 * path.stat().st_size


@pytest.fixture(scope="module")
def a3_obj():
    # Dom(phi) = A3 = {0, 4, 5}, so rhs 1 lies outside it
    t = catalog.template("s3_a3_incl")
    system = build_system(catalog.label_cover("lc_tiny"), t, ReductionParams(Fraction(1, 8)))
    return t, io.system_to_obj(system, "s3_a3_incl"), system


def obj_to_system(obj, template):
    """A system from its JSON object, each equation packed as the file
    reader packs it."""
    obj = io._object(obj, "a system")
    packer = io._Packer()
    rows = [packer(eq) if type(eq) is dict else eq for eq in io._list(obj, "equations")]
    return packer.system({**obj, "equations": rows}, template)


def test_obj_to_system_roundtrip(a3_obj):
    t, obj, system = a3_obj
    loaded = obj_to_system(obj, t)
    assert io.system_to_obj(loaded, "s3_a3_incl") == obj
    assert loaded.equations == system.equations
    assert _weights(loaded.arrays) == _weights(system.arrays)


def _negative_weight(obj):
    w0, w1 = (io.parse_frac(eq["weight"]) for eq in obj["equations"][:2])
    obj["equations"][0]["weight"] = io.frac_str(-w0)
    obj["equations"][1]["weight"] = io.frac_str(w1 + 2 * w0)
    return obj


def _put(*path, value):
    """A mutation that sets ``value`` at ``path`` in the system object."""

    def mutate(obj):
        *head, last = path
        target = obj
        for key in head:
            target = target[key]
        target[last] = value
        return obj

    return mutate


EQ = ("equations", 0)
# case -> (mutation returning the malformed object, expected message)
MALFORMED = {
    "arity": (_put(*EQ, "terms", value=[["w", 1], ["w", 1]]), "three terms"),
    "sign": (_put(*EQ, "terms", 1, 1, value=2), "exponent"),
    "negative-weight": (_negative_weight, "non-negative"),
    "unknown-variable": (_put(*EQ, "terms", 2, 0, value="w9[0]"), "unknown variable w9"),
    "rhs": (_put(*EQ, "rhs", value=1), "outside Dom"),
    "weight-sum": (_put(*EQ, "weight", value="1/1"), "sum"),
    "top-level-list": (lambda obj: [1, 2], "must be a JSON object, not list"),
    "equations-not-a-list": (_put("equations", value=5), '"equations" must be a JSON list, not int'),
    "variables-missing": (lambda obj: {k: v for k, v in obj.items() if k != "variables"}, '"variables" must be a JSON list'),
    "equation-not-an-object": (_put(*EQ, value=[1, 2]), "an equation is an object"),
    "term-not-a-pair": (_put(*EQ, "terms", 0, value="u0"), r"\[variable, sign\] pair"),
    "rhs-overflow": (_put(*EQ, "rhs", value=10**20), "rhs 100000000000000000000 is out of range"),
    "rhs-float": (_put(*EQ, "rhs", value=0.5), "rhs must be an integer, got 0.5"),
    "sign-float": (_put(*EQ, "terms", 0, 1, value=1.9), "sign must be an integer, got 1.9"),
    "sign-bool": (_put(*EQ, "terms", 0, 1, value=True), "sign must be an integer, got true"),
    "weight-bool": (_put(*EQ, "weight", value=True), "not a rational"),
    # a scalar, even one equal to an int, never stands in for an equation
    "equation-false": (_put(*EQ, value=False), "an equation is an object"),
    "equation-zero": (_put(*EQ, value=0), "an equation is an object"),
}


def _file_loader(tmp_path):
    def load(obj, template):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return io.load_system(str(path), template)[0]

    return load


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_obj_to_system_rejects_malformed_equations(a3_obj, case):
    t, obj, _ = a3_obj
    mutate, message = MALFORMED[case]
    bad = mutate(copy.deepcopy(obj))
    with pytest.raises(InvalidParams, match=message):
        obj_to_system(bad, t)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_system_rejects_malformed_equations(a3_obj, tmp_path, case):
    t, obj, _ = a3_obj
    mutate, message = MALFORMED[case]
    bad = mutate(copy.deepcopy(obj))
    with pytest.raises(InvalidParams, match=message):
        _file_loader(tmp_path)(bad, t)


@pytest.mark.parametrize(
    "place",
    [
        lambda obj, eq: {**obj, "note": eq},
        lambda obj, eq: _put(*EQ, "note", value=eq)(obj),
    ],
    ids=["top-level", "inside-an-equation"],
)
def test_load_system_rejects_an_equation_outside_equations(a3_obj, tmp_path, place):
    t, obj, _ = a3_obj
    obj = copy.deepcopy(obj)
    bad = place(obj, copy.deepcopy(obj["equations"][1]))
    with pytest.raises(InvalidParams, match='lies outside "equations"'):
        _file_loader(tmp_path)(bad, t)
