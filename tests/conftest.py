"""Shared fixtures and helpers for the test suite."""

from fractions import Fraction

import pytest

from qav import lop, rmatrix, series, vecrep
from qav.liedata import AlgebraData

# The four algebras every heavy suite runs on.
SUPPORTED = [("B", 1), ("B", 2), ("D", 2), ("D", 3)]


@pytest.fixture(scope="session")
def algebras():
    return {f"{t}{r}": AlgebraData(t, r) for t, r in SUPPORTED}


@pytest.fixture
def fresh_builds():
    """Empty the per-algebra memos (catalog, wiring, L-operators, f(u) and
    the generator images of the vector representation) before and after the
    test, so that a perturbation or a count reaches only this test's
    objects."""
    memos = (
        rmatrix._catalog,
        lop.choose_wiring,
        lop._lops,
        series.f_series,
        vecrep.a_gen,
        vecrep.x_plus,
        vecrep.x_minus,
        vecrep.k_cartan,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def all_pass(checks):
    """True when every check dict in a report list has status 'pass'."""
    return all(c["status"] == "pass" for c in checks)


def failures(checks):
    return [c for c in checks if c["status"] == "fail"]


def frac(p, q=1):
    return Fraction(p, q)
