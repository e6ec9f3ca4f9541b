"""Fixtures shared by the whole suite."""

import pytest

from qndsim import harness


@pytest.fixture(autouse=True)
def cold_prepared_blocks():
    """Start every test from an empty prepared-block cache, so that no test
    passes on entries an earlier test left behind."""
    harness._prepare_block.cache_clear()
