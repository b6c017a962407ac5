"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each criterion runs the selftest registry checks it rests on, looked
up by name, and pins its own figures and time limits here.
"""

import functools
import time
from fractions import Fraction

from checks import assert_checks
from grouplin import (
    ReductionParams,
    alpha,
    catalog,
    decode,
    derandomize_strategy,
    evaluate_family,
    irreps,
    kappa,
    make_context,
    non_cubic_solve,
    projection_family,
    select_omega,
)
from grouplin.reduction import LinEquation, LinSystem
from grouplin.selftest import GROUP_NAMES, subgroup_pairs
from test_decoder import assert_simulation_agrees


def _report(n, text):
    print(f"criterion {n}: PASS  ({text})")


def criterion(n):
    """Print a FAIL line when a criterion's assertions do not hold."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {n}: FAIL  ({exc})")
                raise

        return wrapper

    return deco


@criterion(1)
def test_criterion_1_representation_completeness():
    start = time.monotonic()
    for name in GROUP_NAMES:
        irreps(catalog.group(name))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert_checks("reps:entry-orthogonality", "reps:character-dim-sum")
    _report(1, f"{len(GROUP_NAMES)} groups decomposed in {elapsed:.2f}s and checked")


@criterion(2)
def test_criterion_2_character_dimension_sums():
    assert_checks("reps:character-dim-sum")
    _report(2, "sum of dim*character is |G| at the identity, 0 elsewhere")


@criterion(3)
def test_criterion_3_frobenius_suite():
    expected = {"s3/a3": 2, "s3/<(12)>": 3, "z4/{0,2}": 2, "q8/center": 4}
    for key, (g, h) in subgroup_pairs().items():
        assert len(g) // len(h) == expected[key]
    assert_checks("reps:induced-trivial-sum")
    _report(3, "trivial-multiplicity sums are 2, 3, 2, 4 exactly")


@criterion(4)
def test_criterion_4_fourier_roundtrip_and_convolution():
    roundtrip, conv = assert_checks(
        "fourier:roundtrip+plancherel", "fourier:convolution-coefficients"
    )
    _report(
        4,
        f"roundtrip residual {roundtrip.residual:.1e}, "
        f"convolution residual {conv.residual:.1e}",
    )


@criterion(5)
def test_criterion_5_noise_attenuation_exact():
    (noise,) = assert_checks("fourier:noise-attenuation")
    _report(5, f"all 8 attenuation factors exact to {noise.residual:.1e}")


@criterion(6)
def test_criterion_6_reduction_exactness():
    start = time.monotonic()
    assert_checks(
        "reduction:weights-sum[z2_id,eps=1/4]",
        "reduction:completeness-value[z2_id]",
        "reduction:two-path-agreement",
    )
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=1)
    assert evaluate_family(lc, t, ReductionParams(Fraction(1, 4)), fam, side=1) == Fraction(7, 8)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(6, f"weights exact, planted value 7/8, two paths agree in {elapsed:.2f}s")


@criterion(7)
def test_criterion_7_solver_properties():
    assert_checks("solvers:derandomize-dominates", "solvers:unsatisfiable-rejection-sound")
    t3 = catalog.template("z3_id")
    all_unsat = LinSystem(
        t3, ("x",), (LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1)),)
    )
    assert non_cubic_solve(all_unsat, t3, Fraction(1, 2))["status"] == "reject"
    mixed = LinSystem(
        t3,
        ("x", "y", "z"),
        (
            LinEquation((("x", 1), ("y", 1), ("z", 1)), 0, Fraction(1, 2)),
            LinEquation((("x", 1), ("x", 1), ("x", 1)), 1, Fraction(1, 2)),
        ),
    )
    result = non_cubic_solve(mixed, t3, Fraction(1, 2))
    assert result["status"] == "accept"
    assert result["value"] >= Fraction(1, 2) / 3
    _report(7, "derandomization dominates on 50 systems; rejection rule exact")


@criterion(8)
def test_criterion_8_decoder_bound_measurements():
    assert_checks("decoder:trivial-term-penalty", "decoder:high-degree-smoothing")
    _report(8, "trivial-term and high-degree bounds hold on all planted contexts")


@criterion(9)
def test_criterion_9_end_to_end_soundness():
    start = time.monotonic()
    t = catalog.template("z2_id")
    lc = catalog.label_cover("lc1")
    fam = projection_family(lc, t, {"u0": "d0"}, {"v0": "e0"}, side=2)
    ctx = make_context(lc, t, Fraction(1, 8), Fraction(1, 4), fam)
    choice = select_omega(ctx)
    assert choice.index == 1  # the sign representation
    assert abs(choice.margin - 5 / 8) < 1e-9
    strategy, value, choice = decode(ctx)
    k_formula = kappa(Fraction(1, 4), Fraction(1, 8))
    floor = Fraction(1, 4) ** 2 / (4 * k_formula * Fraction(2) ** k_formula * 2**4)
    assert alpha(ctx.delta, ctx.eps, 2, 2) == floor
    assert_checks("decoder:decoded-value-floor[z2_id]")
    h_d, h_e, rounded = derandomize_strategy(ctx.lc, strategy)
    assert (h_d, h_e) == ({"u0": "d0"}, {"v0": "e0"})
    assert rounded == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        9,
        f"sign rep, margin 5/8, value {value:.3f} >= {float(floor):.2e}, "
        f"planted labeling recovered in {elapsed:.2f}s",
    )


@criterion(10)
def test_criterion_10_strategy_simulation():
    for tname in ("z2_id", "s3_a3_incl"):
        assert_simulation_agrees(tname)
    _report(10, "analytic strategy value within 3 sigma of Monte-Carlo on both contexts")
