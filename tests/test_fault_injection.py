"""Negative controls: perturb exactly one input of a suite and require that
the suite reports `fail`, that its witness locates the perturbation, and that
`qav check` exits 1.  A kernel that wrongly collapsed a nonzero value to zero
would pass every positive check; it cannot pass these."""

import ast
import json

import pytest

from qav import cli, liedata, lop, rmatrix, vecrep
from qav.liedata import AlgebraData
from qav.scalars import Scalar, ZERO
from qav.series import AT_INFINITY, AT_ZERO, TruncSeries
from qav.tensor import SparseMat

# An off-diagonal entry of Rbar on B1 (N = 3) in the first row block:
# row (1, 2), col (2, 1) of C^3 (x) C^3, 0-based.
_ROW, _COL = 1, 3


def _run_json(capsys, suite):
    rc = cli.run(["check", suite, "--type", "B", "--rank", "1", "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)["reports"][0]["checks"]


@pytest.fixture
def bumped_catalog(fresh_builds):
    """A fresh B1 catalog whose cleared Rbar has u added at (_ROW, _COL)."""
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


def _lowrank_failures_with_h1_bumped(capsys, type_, rank):
    """The low-rank battery with e_11 added at mode 2 of h1+(u): its items,
    and its failing items by name with their witnesses, which `qav check
    lowrank` (exit 1) reports too.  Callers request fresh_builds."""
    alg, K = AlgebraData(type_, rank), 10
    gs = lop.build_lops(alg, K)
    gs.gp.H[0] = gs.gp.H[0] + TruncSeries(
        AT_ZERO, K, {2: SparseMat.unit(alg.N, 0, 0)}
    )
    checks = lop.check_lowrank(alg, K)
    failed = {c["name"]: c["witness"] for c in checks if c["status"] == "fail"}
    args = ["--type", type_, "--rank", str(rank), "--format", "json"]
    assert cli.run(["check", "lowrank", *args]) == 1
    report = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert {c["name"]: c["witness"] for c in report if c["status"] == "fail"} == failed
    return checks, failed


def test_lowrank_fails_on_a_bumped_gauss_mode(fresh_builds, capsys):
    """Mode 2 of h1+(u) on B1 gets e_11 added; the relations that carry
    h1+ in the u-slot fail at u-mode 2."""
    _, failed = _lowrank_failures_with_h1_bumped(capsys, "B", 1)
    assert failed
    for name in ("B1: h1+(u) e12+(v) exchange", "B1: h1+(u) e12-(v) exchange"):
        assert failed[name]["u_mode"] == 2


def test_lowrank_d2_fails_on_a_bumped_gauss_mode(fresh_builds, capsys):
    """The same bump on D2: the h1 exchanges that the D2 battery shares with
    the B1 battery fail at u-mode 2 in both root columns."""
    checks, failed = _lowrank_failures_with_h1_bumped(capsys, "D", 2)
    assert (len(checks), len(failed)) == (140, 14)
    for name in ("D2: h1+(u) e12+(v) exchange", "D2: h1+(u) e13+(v) exchange"):
        assert failed[name]["u_mode"] == 2


def test_build_lops_refuses_a_wiring_that_breaks_the_exchange_relation(
    fresh_builds,
):
    """u/denpoly added at entry (0, 4) of B1's Rbar expands with no constant
    term at either end, so the first candidate keeps its triangular and
    diagonal constant terms; only the exact RLL exchange relation rejects
    it, and no wiring passes."""
    alg = AlgebraData("B", 1)
    cat = rmatrix.build_catalog(alg)
    row = cat.rbar.rows.setdefault(0, {})
    row[4] = row.get(4, ZERO) + Scalar.u_pow(1) * cat.denpoly.inverse()
    cat.rbar_poly = cat.rbar.scale(cat.denpoly)
    with pytest.raises(lop.LopError, match="^0 wiring conventions passed") as err:
        lop.build_lops(alg, 4)
    candidates = ast.literal_eval(str(err.value).split("candidates: ")[1])
    assert candidates[0] == {
        "base": "swapped",
        "aux_slot": 1,
        "equivalent_raw_wirings": 2,
        "plus_expansion": "zero",
        "triangular": True,
        "diagonal": True,
        "exchange": False,
    }


# ---------------------------------------------------------------------------
# complete failing items: every item that fails, its witness with the key
# order the text report prints, and any extra fields
# ---------------------------------------------------------------------------


def _fail(name, witness=None, **extra):
    item = {"name": name, "status": "fail"}
    if witness is not None:
        item["witness"] = witness
    item.update(extra)
    return item


def _assert_fails(tmp_path, capsys, args, expected):
    """`qav check` exits 1, its JSON report fails exactly the expected items
    and its text report prints each witness with the expected key order."""
    dump = tmp_path / "report.json"
    assert cli.run(["check", *args, "--dump", str(dump)]) == 1
    text = capsys.readouterr().out.splitlines()
    checks = json.loads(dump.read_text())["reports"][0]["checks"]
    assert [c for c in checks if c["status"] == "fail"] == expected
    lines = [
        f"  fail    {c['name']}" + (f"  witness: {c['witness']}" if "witness" in c else "")
        for c in expected
    ]
    assert [line for line in text if line.startswith("  fail")] == lines


def _bump(ts, K, mode, mat):
    return ts + TruncSeries(AT_ZERO, K, {mode: mat})


def test_relrbar_fails_on_a_bumped_current_mode(fresh_builds, tmp_path, capsys):
    """e12+ on B1 gets e_21 added at mode 1: the exchange, quadratic and
    mixed relations of X1+ fail."""
    alg, K = AlgebraData("B", 1), 6
    gs = lop.build_lops(alg, K)
    gs.gp.E[0][1] = _bump(gs.gp.E[0][1], K, 1, SparseMat.unit(alg.N, 1, 0))

    def wit(u, v, row, col, value):
        return {"u_mode": u, "v_mode": v, "row": row, "col": col, "value": value}

    _assert_fails(
        tmp_path, capsys,
        ["relrbar", "--type", "B", "--rank", "1", "--order", "6", "--window", "3"],
        [
            _fail("(b) h1+(u) X1+(v) exchange", wit(1, 2, 1, 0, "(-s^4+1)/(s^2)")),
            _fail("(b) h1-(u) X1+(v) exchange", wit(-4, 1, 1, 0, "(-s^4+1)/(s^22)")),
            _fail(
                "(b) h2+(u) X1+(v) exchange",
                wit(1, 4, 1, 0, "(-s^6+s^4+s^2-1)/(s^2)"),
            ),
            _fail(
                "(b) h2-(u) X1+(v) exchange",
                wit(
                    -2, 1, 1, 0,
                    "(-s^38+s^36+s^34-2*s^32+s^30+2*s^28-2*s^26+s^22-2*s^20"
                    "+s^18+s^16-2*s^14+s^12+s^10-2*s^8+s^6-s^2+1)/(s^20)",
                ),
            ),
            _fail("(c) quadratic X1+-X1+", wit(-5, 1, 2, 0, "(s^4-1)/(s)")),
            _fail(
                "(d) [X1+, X1-] modewise, window 3", wit(1, -3, 0, 0, "(s^4-1)/(s^2)")
            ),
        ],
    )


def test_relrbar_fails_on_a_bumped_minus_half_of_a_current(
    fresh_builds, tmp_path, capsys
):
    """e12- on B1 gets e_21 added at u^-1, the minus half of X1+, which is
    read at infinity: the exchange, quadratic and mixed relations of X1+
    fail below mode zero or where a prefactor carries the bump up."""
    alg, K = AlgebraData("B", 1), 6
    gs = lop.build_lops(alg, K)
    bump = TruncSeries(AT_INFINITY, K, {1: SparseMat.unit(alg.N, 1, 0)})
    gs.gm.E[0][1] = gs.gm.E[0][1] + bump

    def wit(u, v, row, col, value):
        return {"u_mode": u, "v_mode": v, "row": row, "col": col, "value": value}

    _assert_fails(
        tmp_path, capsys,
        ["relrbar", "--type", "B", "--rank", "1", "--order", "6", "--window", "3"],
        [
            _fail("(b) h1+(u) X1+(v) exchange", wit(1, 0, 1, 0, "(s^4-1)/(s^2)")),
            _fail("(b) h1-(u) X1+(v) exchange", wit(-4, -1, 1, 0, "(s^4-1)/(s^22)")),
            _fail(
                "(b) h2+(u) X1+(v) exchange",
                wit(1, 2, 1, 0, "(s^6-s^4-s^2+1)/(s^2)"),
            ),
            _fail(
                "(b) h2-(u) X1+(v) exchange",
                wit(
                    -2, -1, 1, 0,
                    "(s^38-s^36-s^34+2*s^32-s^30-2*s^28+2*s^26-s^22+2*s^20"
                    "-s^18-s^16+2*s^14-s^12-s^10+2*s^8-s^6+s^2-1)/(s^20)",
                ),
            ),
            _fail("(c) quadratic X1+-X1+", wit(-5, -1, 2, 0, "(-s^4+1)/(s^5)")),
            _fail(
                "(d) [X1+, X1-] modewise, window 3",
                wit(-1, -3, 0, 0, "(-s^4+1)/(s^2)"),
            ),
        ],
    )


def test_relrbar_serre_fails_on_a_wrong_q_binomial(
    fresh_builds, monkeypatch, tmp_path, capsys
):
    """On D2 every Serre relation has degree 2; a top q-binomial off by one
    breaks exactly the four Serre items."""
    qbinom = lop.qbinom
    monkeypatch.setattr(
        lop, "qbinom", lambda r, l, ri: qbinom(r, l, ri) + int(l == r)
    )
    value = "(s^8-2*s^4+1)/(s^4)"

    def wit(row, col):
        return {"u_modes": [-2], "v_mode": 0, "row": row, "col": col, "value": value}

    _assert_fails(
        tmp_path, capsys,
        ["relrbar", "--type", "D", "--rank", "2", "--order", "4", "--window", "2"],
        [
            _fail("(e) Serre X1+/X2+, degree 2, window 2", wit(3, 0)),
            _fail("(e) Serre X1-/X2-, degree 2, window 2", wit(0, 3)),
            _fail("(e) Serre X2+/X1+, degree 2, window 2", wit(3, 0)),
            _fail("(e) Serre X2-/X1-, degree 2, window 2", wit(0, 3)),
        ],
    )


def test_psi_fails_only_the_image_match_on_a_bumped_gauss_entry(
    fresh_builds, tmp_path, capsys
):
    alg, K = AlgebraData("D", 2), 4
    gs = lop.build_lops(alg, K)
    gs.gp.E[1][2] = _bump(gs.gp.E[1][2], K, 1, SparseMat.unit(alg.N, 0, 0))
    _assert_fails(
        tmp_path, capsys,
        ["psi", "--type", "D", "--rank", "2", "--order", "4"],
        [
            _fail(
                "D2 m=1: reduction images match trailing blocks (+)",
                {"row": 2, "col": 3},
            )
        ],
    )


def test_psi_fails_only_the_corner_commutation_on_a_bumped_corner(
    fresh_builds, tmp_path, capsys
):
    """After the Gauss factors are built, lops.lp is rebound to a copy whose
    l11+ has e_12 added at mode 1.  The corner loop reads lops.lp and the
    images read the factors' own L, so only the corner items with l11+ in
    the u-slot fail."""
    alg, K = AlgebraData("D", 2), 4
    lops = lop.build_lops(alg, K)
    lp = [row[:] for row in lops.lp]
    lp[0][0] = _bump(lp[0][0], K, 1, SparseMat.unit(alg.N, 0, 1))
    lops.lp = lp

    def wit(v_mode, value):
        detail = {"u_mode": 1, "v_mode": v_mode, "row": 0, "col": 1, "value": value}
        return {"entry": [1, 1, 2, 2], "detail": detail}

    name = "D2 m=1: corner generators commute with reduction images"
    _assert_fails(
        tmp_path, capsys,
        ["psi", "--type", "D", "--rank", "2", "--order", "4"],
        [
            _fail(f"{name} (+/+)", wit(0, "(-s^2+1)/(s^2)")),
            _fail(f"{name} (+/-)", wit(-4, "s^4-1")),
        ],
    )


def test_psi_reduced_battery_fails_on_a_bumped_reduced_entry(
    fresh_builds, tmp_path, capsys
):
    """e23+ on D3 gets e_11 added at mode 1.  Through the reduction m = 1 it
    is e12+ of the reduced D2 battery, so besides the image match the
    battery items that carry e12+ fail."""
    alg, K = AlgebraData("D", 3), 4
    gs = lop.build_lops(alg, K)
    gs.gp.E[1][2] = _bump(gs.gp.E[1][2], K, 1, SparseMat.unit(alg.N, 0, 0))

    def wit(u, v, value):
        return {"u_mode": u, "v_mode": v, "row": 0, "col": 0, "value": value}

    name = "D3 reduced m=1: {}"
    _assert_fails(
        tmp_path, capsys,
        ["psi", "--type", "D", "--rank", "3", "--order", "4"],
        [
            _fail(
                "D3 m=1: reduction images match trailing blocks (+)",
                {"row": 2, "col": 3},
            ),
            _fail(name.format("h1+(u) e12+(v) exchange"), wit(0, 2, "(s^2-1)/(s^2)")),
            _fail(name.format("e12+(u) h2+(v) exchange"), wit(0, 2, "(s^4-1)/(s^2)")),
            _fail(name.format("h1+(u) e12-(v) exchange"), wit(2, 0, "(-s^4+1)/(s^2)")),
            _fail(
                name.format("e12+(u) h2-(v) exchange"),
                wit(1, -3, "(s^6-s^4-s^2+1)/(s^2)"),
            ),
            _fail(name.format("h1-(u) e12+(v) exchange"), wit(-3, 1, "-s^6+s^4+s^2-1")),
            _fail(name.format("e12-(u) h2+(v) exchange"), wit(0, 2, "(s^4-1)/(s^2)")),
            _fail(
                name.format("e12+(u) e12+(v) quadratic"), wit(0, 3, "(s^4-1)/(s^2)")
            ),
            _fail(
                name.format("e12+(u) e12-(v) quadratic"), wit(3, 0, "(s^4-1)/(s^2)")
            ),
            _fail(
                name.format("e12-(u) e12+(v) quadratic"), wit(0, 3, "(s^4-1)/(s^2)")
            ),
            _fail(
                name.format("e34+(u) + e12+(u) = 0"),
                {"exponent": 1, "row": 0, "col": 0, "value": "1"},
            ),
            _fail(
                name.format("e12+(u) h3+(v) cross exchange"),
                wit(0, 2, "(-s^4+1)/(s^2)"),
            ),
            _fail(
                name.format("e12+(u) h3-(v) cross exchange"),
                wit(1, -3, "-s^6+s^4+s^2-1"),
            ),
            _fail(
                name.format("e12-(u) h3+(v) cross exchange"),
                wit(0, 2, "(-s^4+1)/(s^2)"),
            ),
        ],
    )


def test_zseries_fails_on_a_bumped_lop_mode(fresh_builds, tmp_path, capsys):
    """Mode 2 of l12+ on B1 gets e_11 added after the Gauss factors are
    built: the central series is no longer scalar and disagrees with the
    diagonal-series product and the crossing scalar."""
    alg, K = AlgebraData("B", 1), 4
    lops = lop.build_lops(alg, K)
    lops.lp[0][1] = _bump(lops.lp[0][1], K, 2, SparseMat.unit(alg.N, 0, 0))
    _assert_fails(
        tmp_path, capsys,
        ["zseries", "--type", "B", "--rank", "1", "--order", "4"],
        [
            _fail("B1 z+: off-diagonal entries vanish", {"row": 0, "col": 1}),
            _fail("B1 z+: diagonal entries agree"),
            _fail(
                "B1 z+: coefficients are scalar multiples of the identity",
                {"exponent": 3},
            ),
            _fail(
                "B1 z+ equals the diagonal-series product",
                {
                    "exponent": 3,
                    "row": 0,
                    "col": 0,
                    "value": "(s^12+s^10-s^6-2*s^4+1)/(s^6)",
                },
            ),
            _fail(
                "B1 z+ matches the expanded crossing scalar (normalized)",
                {"exponent": 3, "value": "(-s^12-s^10+s^6+2*s^4-1)/(s^6)"},
            ),
        ],
    )


def test_main_structure_fails_on_a_bumped_gauss_entry(fresh_builds, tmp_path, capsys):
    alg, K = AlgebraData("B", 1), 4
    gs = lop.build_lops(alg, K)
    gs.gp.E[0][1] = _bump(gs.gp.E[0][1], K, 1, SparseMat.unit(alg.N, 1, 0))
    _assert_fails(
        tmp_path, capsys,
        ["main-structure", "--type", "B", "--rank", "1", "--order", "4"],
        [
            _fail(
                "B1: e[1,2]+ matches the geometric closed form",
                {"exponent": 1, "row": 1, "col": 0, "value": "1"},
            ),
            _fail(
                "B1: E+ mirror entry (2,3)",
                {"exponent": 1, "row": 1, "col": 0, "value": "s^3"},
            ),
            _fail(
                "B1 reduced rank 1 central series (+): off-diagonal entries vanish",
                {"row": 0, "col": 1},
            ),
            _fail("B1 reduced rank 1 central series (+): diagonal entries agree"),
            _fail(
                "B1: h[1]+(u xi_red) = h[3]+(u)^-1 z_red_1(u)",
                {"exponent": 2, "row": 1, "col": 1, "value": "(-s^4+1)/(s^2)"},
            ),
        ],
    )


def test_eiprei_fails_on_a_bumped_gauss_entry(fresh_builds, tmp_path, capsys):
    alg, K = AlgebraData("D", 2), 4
    gs = lop.build_lops(alg, K)
    gs.gp.E[0][1] = _bump(gs.gp.E[0][1], K, 1, SparseMat.unit(alg.N, 1, 0))
    _assert_fails(
        tmp_path, capsys,
        ["eiprei", "--type", "D", "--rank", "2", "--order", "4"],
        [
            _fail(
                "D2: e[3,4]+(u) + e[1,2]+(u xi q^2) = 0",
                {"exponent": 1, "row": 1, "col": 0, "value": "1"},
            )
        ],
    )


def test_mirror_suites_fail_on_a_bumped_f_entry(fresh_builds, tmp_path, capsys):
    """f21+ on D2 gets e_12 added at mode 1: the F half of the mirror
    differences that eiprei and main-structure share fails in both."""
    alg, K = AlgebraData("D", 2), 4
    gs = lop.build_lops(alg, K)
    gs.gp.F[1][0] = _bump(gs.gp.F[1][0], K, 1, SparseMat.unit(alg.N, 0, 1))
    witness = {"exponent": 1, "row": 0, "col": 1, "value": "1"}
    _assert_fails(
        tmp_path, capsys,
        ["eiprei", "--type", "D", "--rank", "2", "--order", "4"],
        [_fail("D2: f[4,3]+(u) + f[2,1]+(u xi q^2) = 0", witness)],
    )
    _assert_fails(
        tmp_path, capsys,
        ["main-structure", "--type", "D", "--rank", "2", "--order", "4"],
        [
            _fail("D2: f[2,1]+ matches the geometric closed form", witness),
            _fail("D2: F+ mirror entry (4,3)", witness),
            _fail(
                "D2 reduced rank 2 central series (+): off-diagonal entries vanish",
                {"row": 0, "col": 2},
            ),
            _fail("D2 reduced rank 2 central series (+): diagonal entries agree"),
        ],
    )


def test_gauss_fails_on_a_bumped_gauss_entry(
    fresh_builds, monkeypatch, tmp_path, capsys
):
    """e12+ on B1 gets e_21 added at mode 1 as the factors are built: the
    reassembly and the cross path (h1 e12 = L12) both fail at aux entry
    (1, 2), with opposite signs as h1 has constant term 1 at (1, 1), and the
    probe still breaks the reassembly.  `gauss` reports them (exit 1);
    every other L-operator suite refuses the factors (exit 2)."""
    alg, K = AlgebraData("B", 1), 4
    gauss_decompose = lop.gauss_decompose

    def bumped(L, one):
        g = gauss_decompose(L, one)
        if L[0][0].direction == AT_ZERO:
            g.E[0][1] = _bump(g.E[0][1], K, 1, SparseMat.unit(alg.N, 1, 0))
        return g

    monkeypatch.setattr(lop, "gauss_decompose", bumped)
    _assert_fails(
        tmp_path, capsys,
        ["gauss", "--type", "B", "--rank", "1", "--order", "4"],
        [
            _fail(
                "Gauss reassembly F H E = L, both signs, B1",
                {
                    "sign": "+",
                    "entry": [1, 2],
                    "exponent": 1,
                    "row": 1,
                    "col": 0,
                    "value": "1",
                },
            ),
            _fail(
                "quasideterminant cross-path agrees with block elimination, B1",
                {
                    "sign": "+",
                    "generator": "e",
                    "entry": [1, 2],
                    "exponent": 1,
                    "row": 1,
                    "col": 0,
                    "value": "-1",
                },
            ),
        ],
    )
    args = ["zseries", "--type", "B", "--rank", "1", "--order", "4"]
    assert cli.run(["check", *args]) == 2
    err = capsys.readouterr().err
    assert "Gauss factors fail 'Gauss reassembly F H E = L, both signs, B1'" in err


def test_crossing_series_fails_on_a_bumped_r_entry(fresh_builds, tmp_path, capsys):
    """R on B1 gets u added at (_ROW, _COL): only the identities built from
    A(u), whose matrix part comes from R, fail."""
    cat = rmatrix.build_catalog(AlgebraData("B", 1))
    row = cat.R.rows.setdefault(_ROW, {})
    row[_COL] = row.get(_COL, ZERO) + Scalar.u_pow(1)
    _assert_fails(
        tmp_path, capsys,
        ["crossing", "--type", "B", "--rank", "1", "--order", "4"],
        [
            _fail(
                "crossing symmetry for R (series, order 4), B1",
                {
                    "row": 1,
                    "col": 1,
                    "value": "(s^12*u^2-s^8*u^4-s^10*u^2-s^10*u+s^6*u^4+s^4*u^4"
                    "+2*s^6*u^2-2*s^4*u^3+2*s^4*u^2+s^6-2*s^2*u^3-2*s^4*u"
                    "+s^2*u^2-s^2*u+u^2)/(s^14)",
                },
                scalar="(1)/(s^8)",
            ),
            _fail(
                "R(u) = g(u) Rbar(u) (exact matrix part), B1",
                {"row": 1, "col": 3, "value": "(s^2*u^3-s^2*u^2-u^2+u)/(s^4)"},
            ),
        ],
    )


def test_drinfeld_rep_fails_on_a_bumped_x_plus_mode(monkeypatch, tmp_path, capsys):
    """x+_{1,1} on B1 gets e_11 added: every relation that reads it fails at
    its first instance, and each item keeps its instance count."""
    x_plus = vecrep.x_plus

    def bumped(alg, i, m):
        x = x_plus(alg, i, m)
        return x + SparseMat.unit(alg.N, 0, 0) if (i, m) == (1, 1) else x

    monkeypatch.setattr(vecrep, "x_plus", bumped)

    def wit(instance, row, col, value):
        return {"instance": instance, "row": row, "col": col, "value": value}

    _assert_fails(
        tmp_path, capsys,
        ["drinfeld-rep", "--type", "B", "--rank", "1", "--window", "2"],
        [
            _fail(
                "k_i x_{j,m} k_i^-1 = q_i^(+-A_ij) x_{j,m}, B1 (window 2)",
                wit("i=1,j=1,m=1,sign=+1", 0, 0, "-s^2+1"),
                instances=10,
            ),
            _fail(
                "[a_{i,m}, x_{j,l}] = +-([m A_ij]_{q_i}/m) x_{j,m+l}, B1 (window 2)",
                wit("i=1,j=1,m=-1,l=2,sign=+1", 0, 0, "(-s^2-1)/(s)"),
                instances=40,
            ),
            _fail(
                "quadratic x-x relation, B1 (window 2)",
                wit("i=1,j=1,m=-2,l=0,sign=+1", 1, 0, "s^6*w"),
                instances=40,
            ),
            _fail(
                "[x+_{i,m}, x-_{j,l}] = delta_ij (psi - phi)/(q_i - 1/q_i), "
                "B1 (window 2)",
                wit("i=1,j=1,m=1,l=-2", 0, 1, "-s^4*w"),
                instances=25,
            ),
            _fail(
                "w-factor structure of the images, B1 (window 2)",
                wit("x+_{1,1}", 0, 0, "1"),
                instances=14,
            ),
        ],
    )


def test_cartan_fails_on_a_wrong_closed_form(monkeypatch, tmp_path, capsys):
    closed_form = liedata.btilde_q_closed_form

    def bumped(alg):
        out = closed_form(alg)
        out[0][0] = out[0][0] + 1
        return out

    monkeypatch.setattr(liedata, "btilde_q_closed_form", bumped)
    _assert_fails(
        tmp_path, capsys,
        ["cartan", "--type", "B", "--rank", "1"],
        [
            _fail(
                "B~(q) matches closed form and is symmetric",
                "B~(q) closed form mismatch at (1,1): inverse=1 closed=2",
            )
        ],
    )


def test_cartan_fails_on_a_doubled_root():
    """D3's roots with alpha_1 doubled, before A is formed from them: A no
    longer matches the Cartan matrix of the Dynkin diagram, and B(q) no
    longer inverts to its closed form; every other item still passes."""
    alg = AlgebraData("D", 3)
    roots = list(alg.roots)
    roots[0] = tuple(2 * x for x in roots[0])
    alg.roots = roots  # overrides the cached property before A reads it
    failed = [c["name"] for c in liedata.check_cartan(alg) if c["status"] == "fail"]
    assert failed == [
        "Cartan matrix reproduced from root coordinates",
        "B~(q) matches closed form and is symmetric",
    ]


def test_drinfeld_rep_serre_fails_on_a_wrong_q_binomial(monkeypatch, tmp_path, capsys):
    """On D2 every Serre relation has degree 2; a top q-binomial off by one
    breaks only the Serre item, at its first instance."""
    qbinom = vecrep.qbinom
    monkeypatch.setattr(
        vecrep, "qbinom", lambda r, l, ri: qbinom(r, l, ri) + int(l == r)
    )
    _assert_fails(
        tmp_path, capsys,
        ["drinfeld-rep", "--type", "D", "--rank", "2", "--window", "2"],
        [
            _fail(
                "Serre relations, D2 (window 2)",
                {
                    "instance": "i=1,j=2,s=(-2,),m=0,sign=+1",
                    "row": 3,
                    "col": 0,
                    "value": "s^4",
                },
                instances=52,
            )
        ],
    )
