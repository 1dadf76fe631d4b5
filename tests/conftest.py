"""Shared fixtures.

The exhaustive finite-n sweeps live in `tcores.verify`; the tests run the
whole suite once per session, at the scale its cases are stated for, and
read each case from that one report.
"""
import pytest

from tcores import corequotient, verify


@pytest.fixture(autouse=True)
def empty_division_memos():
    """Each test starts with empty division memos, so an entry cached by an
    earlier test cannot hide a fault that a later test injects."""
    corequotient._divide.cache_clear()
    corequotient._assemble.cache_clear()


@pytest.fixture(scope="session")
def full_report() -> verify.VerificationReport:
    """Every verify case at max_n = 30 (the per-case caps take over beyond)."""
    return verify.run_suite("all", max_n=30, seed=2024, samples=20000)
