"""Fixtures shared by the whole suite."""

import pytest

from helpers import clear_stage_caches


@pytest.fixture(autouse=True)
def cold_stage_caches():
    """Start every test from empty stage caches (input stage, input
    analysis, measurement stage and output analysis), so that no test
    passes on entries an earlier test left behind."""
    clear_stage_caches()
