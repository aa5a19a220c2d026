"""Acceptance suite: one test per acceptance criterion, exact equality
throughout.  Each test prints a single PASS line on success (shown with -v
or on failure); all heavy objects are shared through the module-level
truncation order so the memoized builds are reused."""

import json
import subprocess
import sys
import time

import pytest

from qav import lop, rmatrix
from qav.liedata import AlgebraData, btilde_q
from qav.scalars import Scalar, ONE
from qav.series import AT_ZERO, expand_scalar, f_series, verify_fu_product
from qav.vecrep import check_drinfeld_window

from conftest import SUPPORTED, all_pass, failures

K = 10


def _algs():
    return [AlgebraData(t, r) for t, r in SUPPORTED]


def _done(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_yang_baxter():
    """YBE holds exactly (zero matrix) for B1, B2, D2, D3 within the budget."""
    t0 = time.monotonic()
    for alg in _algs():
        checks = rmatrix.check_ybe(alg)
        assert all_pass(checks), failures(checks)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"YBE suite took {elapsed:.0f}s (budget 300s)"
    _done(1, f"exact Yang-Baxter identity, 4 algebras, {elapsed:.1f}s")


def test_criterion_02_unitarity_and_crossing():
    """Unitarity and both crossing identities are exact; the series crossing
    scalar is xi^2 q^-2 through order 10."""
    for alg in _algs():
        checks = rmatrix.check_unitarity(alg)
        assert all_pass(checks), failures(checks)
        checks = rmatrix.check_crossing(alg, order=K)
        assert all_pass(checks), failures(checks)
        series_check = next(c for c in checks if "series" in c["name"])
        want = alg.xi**2 * Scalar.q_pow(-2)
        assert series_check["scalar"] == str(want)
    _done(2, "unitarity + exact and series crossing, scalar xi^2 q^-2")


def test_criterion_03_rbar_dual_construction():
    """The P/Q/R assembly equals the entrywise case table, with every branch
    of the a_ij(u) case analysis exercised."""
    branches = set()
    for alg in _algs():
        assert rmatrix.rbar_from_pqr(alg) == rmatrix.rbar_entry_table(alg)
        for i in range(1, alg.N + 1):
            for j in range(1, alg.N + 1):
                if i == j:
                    branches.add("fixed" if i == alg.prime(i) else "diag")
                elif i < j:
                    branches.add("upper-delta" if i == alg.prime(j) else "upper")
                else:
                    branches.add("lower-delta" if i == alg.prime(j) else "lower")
    assert branches == {
        "fixed",
        "diag",
        "upper",
        "upper-delta",
        "lower",
        "lower-delta",
    }
    _done(3, "both Rbar constructions agree; all a_ij branches covered")


def test_criterion_04_f_series():
    """f(u) solves its functional equation exactly through order 12, its
    coefficients are u,v,w-free, and the truncated infinite product matches
    q^-1-adically through order 12 for k <= 4."""
    order = 12
    for alg in _algs():
        f = f_series(alg, order)
        u = Scalar.u_pow(1)
        rhs = expand_scalar(
            (
                (ONE - u * Scalar.q_pow(-2))
                * (ONE - u * Scalar.q_pow(2))
                * (ONE - u * alg.xi)
                * (ONE - u * alg.xi.inverse())
            ).inverse(),
            AT_ZERO,
            order,
        )
        assert f * f.scale_arg(alg.xi) == rhs, str(alg)
        for k in range(order + 1):
            c = f.coefficient(k)
            assert c.is_uv_free() and c.is_w_free(), (str(alg), k)
        report = verify_fu_product(alg, order)
        for k, check in enumerate(report["checks"]):
            if k <= 4:
                assert check["status"] == "pass", (str(alg), check)
    _done(4, "functional equation exact, coefficients q-only, product match")


def test_criterion_05_btilde_closed_forms():
    """The exact inverse of B(q) equals the closed forms for B ranks 1-4 and
    D ranks 2-4 (btilde_q raises on any entry mismatch)."""
    for type_, ranks in (("B", (1, 2, 3, 4)), ("D", (2, 3, 4))):
        for rank in ranks:
            inv = btilde_q(AlgebraData(type_, rank))
            assert all(
                (inv[i][j] - inv[j][i]).is_zero()
                for i in range(rank)
                for j in range(rank)
            )
    _done(5, "B~(q) closed forms match the exact inverse, 7 algebras")


def test_criterion_06_gauss_decomposition():
    """F H E = L exactly at order 10 for every built operator pair, and a
    single-entry perturbation of F breaks the equality."""
    for alg in _algs():
        checks = lop.check_gauss(alg, K)
        assert all_pass(checks), failures(checks)
        assert any("perturbation" in c["name"] for c in checks)
    _done(6, "Gauss reassembly exact + perturbation probe, 4 algebras")


def test_criterion_07_lowrank_batteries():
    """Every low-rank relation passes, including the named degenerate and
    composite-entry identities."""
    for type_, rank in (("B", 1), ("D", 2)):
        checks = lop.check_lowrank(AlgebraData(type_, rank), K)
        assert all_pass(checks), failures(checks)
        names = " | ".join(c["name"] for c in checks)
        if type_ == "D":
            assert "e23" in names and "f32" in names
            assert "e14" in names and "e12" in names  # e14 = -e12 e13
            assert "e24" in names and "e13" in names  # e24 = -e13
    _done(7, "rank-1 type B and rank-2 type D relation batteries")


def test_criterion_08_central_series():
    """L D L(u xi)^t D^-1 is scalar times identity to order 10 and matches
    the diagonal-series product; the B1 scalar equals the expanded exact
    crossing scalar."""
    for alg in _algs():
        zp, zm, checks = lop.z_series(alg, K)
        assert all_pass(checks), (str(alg), failures(checks))
        assert any("diagonal-series product" in c["name"] for c in checks)
        if (alg.type, alg.n) == ("B", 1):
            assert any("crossing scalar" in c["name"] for c in checks)
    _done(8, "central series scalar + product formula, 4 algebras")


def test_criterion_09_psi_consistency():
    """Reduction-map images agree between both computation paths, corner
    generators commute with the images, and the m = n-1 reductions reproduce
    the low-rank batteries."""
    cases = [("B", 2, 1), ("D", 3, 1), ("D", 3, 2)]
    results = {}
    for type_, rank, m in cases:
        alg = AlgebraData(type_, rank)
        checks = lop.check_psi_consistency(alg, m, K)
        assert all_pass(checks), (str(alg), m, failures(checks))
        results[(type_, rank, m)] = checks
    # the reduced-rank runs include the low-rank batteries as cross-checks
    assert any("reduced m=1" in c["name"] for c in results[("B", 2, 1)])
    assert any("reduced m=1" in c["name"] for c in results[("D", 3, 1)])
    _done(9, "reduction consistency + low-rank cross-checks")


def test_criterion_10_drinfeld_relations():
    """All Drinfeld relation families hold modewise with window 3, in both
    the direct representation checker and the Gaussian-generator suites,
    including the degree-4 Serre relation for B2's short/long pair."""
    for alg in _algs():
        checks = check_drinfeld_window(alg, window=3)
        assert all_pass(checks), (str(alg), failures(checks))
        checks = lop.check_relrbar(alg, K, 3)
        assert all_pass(checks), (str(alg), failures(checks))
        if (alg.type, alg.n) == ("B", 2):
            assert any(
                "Serre X2" in c["name"] and "degree 4" in c["name"] for c in checks
            )
    _done(10, "all relation families modewise, window 3, 4 algebras")


def test_criterion_11_main_theorem_structure():
    """The structural form of the Gauss factors (zero patterns, mirrored
    entries, geometric closed forms, diagonal product formulas) and the
    mirror identities."""
    for type_, rank in (("B", 1), ("B", 2), ("D", 2)):
        checks = lop.check_main_theorem_structure(AlgebraData(type_, rank), K)
        assert all_pass(checks), (type_, rank, failures(checks))
    for type_, rank in (("B", 2), ("D", 3)):
        checks = lop.check_eiprei(AlgebraData(type_, rank), K)
        assert all_pass(checks), (type_, rank, failures(checks))
    _done(11, "structure theorems + mirror identities")


def test_criterion_12_determinism():
    """Two consecutive full JSON runs are byte-identical."""
    cmd = [sys.executable, "-m", "qav.cli", "check", "all", "--format", "json"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["schema"] == 1
    assert len(payload["reports"]) == 13
    _done(12, "byte-identical JSON output across runs")
