"""The payoff distribution and the decoder on S4 templates, which the build
cap refuses: S4 -> Z2 by parity and S4 -> S3 with kernel V4, over one edge
with |D| = 3 and |E| = 1. The tuple enumeration would walk 4 * 24^7 = 18.3 G
tuples; the factored count stays under the default caps."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grouplin import (
    AssignmentFamily,
    CapExceeded,
    ReductionParams,
    catalog,
    decode,
    derandomize_strategy,
    evaluate_family,
    io,
    make_context,
    make_label_cover,
    payoff_distribution,
    projection_family,
)
from grouplin.cli import main
from grouplin.groups import full_subgroup, make_homomorphism, validate_template
from test_solver_equivalence import S4_SIGN

EPS = Fraction(1, 8)
DELTA = Fraction(1, 4)
LC = make_label_cover(
    ["d0", "d1", "d2"], ["e0"], ["u0"], ["v0"], [("u0", "v0", {"d0": "e0", "d1": "e0", "d2": "e0"})]
)
# (edge, a, b, s1) cells, then |D| noise passes and one contraction over
# the 24^3 points of u0's h table
CELLS = 2 * 24 * 24**3 + (3 + 1) * 24**3


def s4_s3():
    """S4 -> S3, kernel V4: S4 permutes the three ways to split {0, 1, 2, 3}
    into two pairs."""
    s4, s3 = catalog.group("s4"), catalog.group("s3")
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    splits = [{frozenset(pair) for pair in pairing} for pairing in pairings]
    # catalog.symmetric3 lists its permutations in this order
    s3_perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    mapping = {}
    for g, label in enumerate(s4.elements):  # a label lists the images of 0..3
        p = [int(c) for c in label]
        image = tuple(
            splits.index({frozenset(p[x] for x in pair) for pair in split}) for split in splits
        )
        mapping[g] = s3_perms.index(image)
    return validate_template(s4, s3, make_homomorphism(full_subgroup(s4), s3, mapping), "s4_s3")


S4_S3 = s4_s3()


def planted(template, side):
    return projection_family(LC, template, {"u0": "d0"}, {"v0": "e0"}, side)


@pytest.mark.parametrize("side", (1, 2))
@pytest.mark.parametrize("template", (S4_SIGN, S4_S3), ids=("s4_sign", "s4_s3"))
def test_planted_family_scores_one_minus_eps_times_the_miss_rate(template, side):
    # 1 - eps (1 - 1/|G|), as on every catalog pair: 15/16 for s4_sign, side 2
    group = template.g1 if side == 1 else template.g2
    value = evaluate_family(LC, template, ReductionParams(EPS), planted(template, side), side)
    assert value == 1 - EPS * (1 - Fraction(1, len(group)))


def test_make_context_and_decode_run_under_the_default_caps(monkeypatch):
    monkeypatch.delenv("GROUPLIN_CAP", raising=False)
    ctx = make_context(LC, S4_SIGN, EPS, DELTA, planted(S4_SIGN, 2))
    assert ctx.value == Fraction(15, 16)
    assert sum(ctx.z_mass.values()) == 1
    strategy, value, choice = decode(ctx)
    assert choice.index == 1 and choice.eta == 0
    assert value == pytest.approx(1)
    h_d, h_e, rounded = derandomize_strategy(LC, strategy)
    assert (h_d, h_e, rounded) == ({"u0": "d0"}, {"v0": "e0"}, 1)


def test_payoff_cap_counts_the_factored_cells():
    family = planted(S4_SIGN, 2)
    payoff_distribution(LC, S4_SIGN, ReductionParams(EPS, cap=CELLS), family, 2)
    with pytest.raises(CapExceeded, match=f"needs {CELLS} cells, cap is {CELLS - 1}"):
        payoff_distribution(LC, S4_SIGN, ReductionParams(EPS, cap=CELLS - 1), family, 2)


def test_decode_with_the_cap_just_below_the_cell_count_exits_3(tmp_path, capsys, monkeypatch):
    paths = {}
    for name, obj in (
        ("lc", io.lc_to_obj(LC)),
        ("template", io.template_to_obj(S4_SIGN, "s4", "z2")),
        ("family", io.family_to_obj(planted(S4_SIGN, 2))),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(io.canonical_dumps(obj), encoding="utf-8")
    monkeypatch.setenv("GROUPLIN_CAP", str(CELLS - 1))
    argv = ["decode", str(paths["lc"]), "--template", str(paths["template"]), "--family", str(paths["family"])]
    code = main([*argv, "--eps", "1/8", "--delta", "1/4"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"{CELLS} cells" in err


def test_side_one_peak_memory_on_s4_s3():
    rng = np.random.default_rng(3)
    family = AssignmentFamily(
        1, {"v0": rng.integers(0, 24, size=24)}, {"u0": rng.integers(0, 24, size=24**3)}
    )
    tracemalloc.start()
    try:
        dist = payoff_distribution(LC, S4_S3, ReductionParams(EPS), family, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dist.values()) == 1
    assert peak <= 64 * 2**20
