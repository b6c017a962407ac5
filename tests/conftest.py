"""Every test starts with no reduction support kept, so a test that watches
how a support is first built (what runs before a cap check, how often a side
is sorted) sees that build, whatever ran before it."""

import pytest

from grouplin import reduction


@pytest.fixture(autouse=True)
def cold_support():
    reduction._support.cache_clear()
    yield
    reduction._support.cache_clear()
