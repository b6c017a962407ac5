"""Run checks of the selftest registry from the test suite, by name."""

from grouplin import selftest


def assert_passes(check: selftest.Check) -> selftest.CheckResult:
    result = check.run()
    assert result.ok, result.line()
    return result


def assert_checks(*names: str) -> list[selftest.CheckResult]:
    """Run every registry check whose id is ``name`` or ``name[...]``."""
    return [assert_passes(c) for name in names for c in selftest.lookup(name)]
