"""Every check of the selftest registry, one test case each, at the default
tolerance; ``grouplin selftest`` runs the same rows."""

from dataclasses import replace

import pytest

from checks import assert_passes
from grouplin import selftest


@pytest.mark.parametrize("check", selftest.registry(), ids=lambda c: c.id)
def test_check(check):
    assert_passes(check)


def test_check_names_are_unique():
    ids = [c.id for c in selftest.registry()]
    assert len(ids) == len(set(ids)) == 118


def test_modules_are_the_cli_choices():
    modules = tuple(dict.fromkeys(c.module for c in selftest.registry()))
    assert modules == selftest.MODULES


def test_failed_exact_check_reports_a_residual(monkeypatch):
    # both irreducibles of Z2 have dimension 1, so both multiplicities are off
    monkeypatch.setattr(selftest, "multiplicity", lambda rho, gamma: 0)
    (check,) = selftest.lookup("reps:regular-multiplicities[z2]")
    result = check.run()
    assert not result.ok and result.residual == 2


def test_crashing_check_fails():
    check = selftest.Check("io", "crash", lambda seed: 1 / 0)
    result = check.run()
    assert not result.ok and "ZeroDivisionError" in result.line()


def test_pinned_tolerance_is_the_tighter_one():
    pinned = selftest.Check("io", "residual", lambda seed: (1e-10, ""), tol=1e-12)
    assert not pinned.run(tol=1e-9).ok
    assert replace(pinned, tol=1e-6).run(tol=1e-9).ok
    assert not replace(pinned, tol=1e-6).run(tol=1e-11).ok


def test_unknown_name_is_an_error():
    with pytest.raises(KeyError):
        selftest.lookup("fouier:pullback")
