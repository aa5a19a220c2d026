"""Negative controls: perturb exactly one input of a suite and require that
the suite reports `fail`, that its witness locates the perturbation, and that
`qav check` exits 1.  A kernel that wrongly collapsed a nonzero value to zero
would pass every positive check; it cannot pass these."""

import json

import pytest

from qav import cli, lop, rmatrix
from qav.liedata import AlgebraData
from qav.scalars import Scalar, ZERO
from qav.series import AT_ZERO, TruncSeries
from qav.tensor import SparseMat

# An off-diagonal entry of Rbar on B1 (N = 3) in the first row block:
# row (1, 2), col (2, 1) of C^3 (x) C^3, 0-based.
_ROW, _COL = 1, 3


def _run_json(capsys, suite):
    rc = cli.run(["check", suite, "--type", "B", "--rank", "1", "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)["reports"][0]["checks"]


@pytest.fixture
def bumped_catalog(monkeypatch):
    """A fresh B1 catalog whose cleared Rbar has u added at (_ROW, _COL)."""
    monkeypatch.setattr(rmatrix, "_CATALOGS", {})
    cat = rmatrix.build_catalog(AlgebraData("B", 1))
    row = cat.rbar_poly.rows.setdefault(_ROW, {})
    row[_COL] = row.get(_COL, ZERO) + Scalar.u_pow(1)
    return cat


@pytest.mark.parametrize(
    "suite,check",
    [
        ("ybe", lambda alg: rmatrix.check_ybe(alg)),
        ("unitarity", lambda alg: rmatrix.check_unitarity(alg)),
        ("crossing", lambda alg: rmatrix.check_crossing(alg, order=4)),
    ],
)
def test_rmatrix_suites_fail_on_a_bumped_rbar_entry(
    bumped_catalog, capsys, suite, check
):
    failed = [c for c in check(AlgebraData("B", 1)) if c["status"] == "fail"]
    assert len(failed) == 1
    witness = failed[0]["witness"]
    # every product starts from the perturbed row of the left factor; the
    # YBE witness is the entry itself, embedded in legs (2, 3)
    assert witness["row"] == _ROW
    if suite == "ybe":
        assert witness["col"] == _COL
    rc, checks = _run_json(capsys, suite)
    assert rc == 1
    assert [c["witness"] for c in checks if c["status"] == "fail"] == [witness]


def test_lowrank_fails_on_a_bumped_gauss_mode(monkeypatch, capsys):
    """Mode 2 of h1+(u) on B1 gets e_11 added; the relations that carry
    h1+ in the u-slot fail at u-mode 2."""
    monkeypatch.setattr(rmatrix, "_CATALOGS", {})
    monkeypatch.setattr(lop, "_LOPS_CACHE", {})
    alg, K = AlgebraData("B", 1), 10
    gs = lop.gaussian_generators(lop.build_lops(alg, K))
    gs.gp.H[0] = gs.gp.H[0] + TruncSeries(
        AT_ZERO, K, {2: SparseMat.unit(alg.N, 0, 0)}
    )
    checks = lop.check_lowrank(alg, K)
    failed = {c["name"]: c["witness"] for c in checks if c["status"] == "fail"}
    assert failed
    for name in ("B1: h1+(u) e12+(v) exchange", "B1: h1+(u) e12-(v) exchange"):
        assert failed[name]["u_mode"] == 2
    rc, report = _run_json(capsys, "lowrank")
    assert rc == 1
    assert {c["name"]: c["witness"] for c in report if c["status"] == "fail"} == failed
