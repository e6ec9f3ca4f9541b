"""Fixtures and hypothesis profiles shared by the whole suite."""

import pytest
from hypothesis import settings

from helpers import clear_stage_caches

# Tier-1 draws the same examples on every run and keeps none between runs,
# so its result depends on the tree alone. A counterexample found under
# "explore" (pytest --hypothesis-profile=explore --hypothesis-seed=N) goes
# into its test as an @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, max_examples=500)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def cold_stage_caches():
    """Start every test from empty stage caches (input stage, input
    analysis, measurement stage and output analysis), so that no test
    passes on entries an earlier test left behind."""
    clear_stage_caches()
