"""Shared fixtures.

Each exhaustive finite-n identity has one body, a sweep predicate in
`tcores.verify`. The tests run the whole suite once per session, at the scale
its cases are stated for, and read each case from that one report; a unit
sweep runs single points of the same predicate through `verify.point`.
"""
import pytest

from tcores import verify


@pytest.fixture(scope="session")
def full_report() -> verify.VerificationReport:
    """Every verify case at max_n = 30 (the per-case caps take over beyond)."""
    return verify.run_suite("all", max_n=30, seed=2024, samples=20000)
