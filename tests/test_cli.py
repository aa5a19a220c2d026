"""The qav command-line interface: exit codes, formats, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qav.scalars as qs
from qav import cli, lop, rmatrix


def test_suite_list_is_sorted_and_complete():
    assert list(cli.SUITES) == sorted(cli.SUITES)
    assert set(cli.SUITES) == {
        "cartan",
        "crossing",
        "drinfeld-rep",
        "eiprei",
        "f-series",
        "gauss",
        "lowrank",
        "main-structure",
        "psi",
        "relrbar",
        "unitarity",
        "ybe",
        "zseries",
    }


def test_cartan_text_output(capsys):
    rc = cli.run(["check", "cartan", "--type", "B", "--rank", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[cartan] B2" in out
    assert "pass" in out
    assert "fail" not in out


def test_json_output_schema(capsys):
    rc = cli.run(
        ["check", "cartan", "--type", "D", "--rank", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["schema"] == 1
    (report,) = payload["reports"]
    assert report["suite"] == "cartan"
    assert report["algebra"] == {"type": "D", "rank": 3}
    assert all(c["status"] == "pass" for c in report["checks"])
    # timing never leaks into the deterministic payload
    assert "elapsed" not in json.dumps(payload)


def test_json_runs_are_byte_identical(capsys):
    args = ["check", "unitarity", "--type", "B", "--rank", "1", "--format", "json"]
    cli.run(args)
    first = capsys.readouterr().out
    cli.run(args)
    second = capsys.readouterr().out
    assert first == second


def test_json_is_byte_identical_across_hash_seeds():
    """Fresh processes under two hash seeds print the same bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    invocations = [
        ["unitarity", "--type", "B", "--rank", "1"],
        ["ybe", "--type", "B", "--rank", "1"],
        ["psi", "--type", "D", "--rank", "2", "--order", "4"],
    ]
    outputs = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs[seed] = [
            subprocess.run(
                [sys.executable, "-m", "qav.cli", "check", *args,
                 "--format", "json"],
                env=env, capture_output=True, check=True, timeout=300,
            ).stdout
            for args in invocations
        ]
    assert outputs["1"] == outputs["2"]
    assert all(b'"status": "pass"' in out for out in outputs["1"])


def test_skip_statuses(capsys):
    rc = cli.run(
        ["check", "lowrank", "--type", "B", "--rank", "2", "--order", "4",
         "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    (report,) = payload["reports"]
    assert [c["status"] for c in report["checks"]] == ["skipped"]
    assert "reason" in report["checks"][0]

    rc = cli.run(["check", "psi", "--type", "B", "--rank", "1", "--order", "4",
                  "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["reports"][0]["checks"][0]["status"] == "skipped"


def test_usage_errors_exit_2(capsys):
    assert cli.run(["check", "no-such-suite"]) == 2
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()
    for args in (
        ["unitarity", "--order", "-3"],
        ["cartan", "--order", "-5", "--window", "-5"],
        ["cartan", "--window", "0"],
        ["f-series", "--order", "0"],
    ):
        assert cli.run(["check", *args]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "expected an integer >= 1" in captured.err


def test_non_default_order_builds_one_catalog(fresh_builds, monkeypatch, capsys):
    """The R-matrix catalog is per algebra: crossing at --order 6 shares the
    catalog that the L-operators use."""
    built = []

    class CountingCatalog(rmatrix.RCatalog):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(rmatrix, "RCatalog", CountingCatalog)
    rc = cli.run(
        ["check", "all", "--type", "B", "--rank", "1", "--order", "6",
         "--format", "json"]
    )
    capsys.readouterr()
    assert rc == 0
    assert len(built) == 1


def test_bad_algebra_exits_2(capsys):
    assert cli.run(["check", "cartan", "--type", "D", "--rank", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_resource_bound_exits_2(capsys):
    for args in (
        ["ybe", "--type", "B", "--rank", "9"],
        ["cartan", "--rank", "40"],
        *(
            [suite, "--type", "D", "--rank", "40"]
            for suite in ("unitarity", "crossing", "drinfeld-rep", "f-series")
        ),
        ["f-series", "--type", "D", "--rank", "3", "--order", "40"],
        *(
            ["f-series", "--type", t, "--rank", r, "--order", "16"]
            for t, r in (("B", "6"), ("D", "16"))
        ),
        ["drinfeld-rep", "--window", "50"],
        *(
            ["drinfeld-rep", "--type", t, "--rank", "14", "--window", "4"]
            for t in ("B", "D")
        ),
    ):
        assert cli.run(["check", *args]) == 2, args
        assert "resource bound" in capsys.readouterr().err


def test_a_gcd_the_heuristic_cannot_find_exits_2(fresh_builds, monkeypatch, capsys):
    """A gcd that the heuristic gcd does not find within its evaluation
    points is a resource failure (exit 2), not a failed check (exit 1)."""
    monkeypatch.setattr(qs, "_HEU_GCD_MAX", 0)
    rc = cli.run(["check", "unitarity", "--type", "B", "--rank", "1", "--order", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: heuristic gcd" in captured.err


def test_runtime_imports_no_sympy():
    """A qav process runs a whole check without importing sympy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "import qav.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = qav.cli.run(['check', 'all', '--type', 'B', '--rank', '1',"
        " '--order', '4', '--format', 'json'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, check=True, text=True, timeout=300,
    )
    assert proc.stdout.split() == ["0", "[]"]


def test_closed_stdout_keeps_the_verdict(tmp_path):
    """A reader that closes stdout before qav writes does not turn a pass
    into a traceback and exit 1: the process exits 0, prints nothing on
    stderr and still writes its --dump file."""
    src = str(Path(cli.__file__).resolve().parents[1])
    dump = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qav.cli", "check", "cartan", "--type", "B",
         "--rank", "2", "--dump", str(dump)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""
    assert json.loads(dump.read_text())["reports"][0]["suite"] == "cartan"


def test_relrbar_mixed_relation_reads_only_determined_modes(capsys):
    """At window 6 and order 10 the bi-modes (-6, -6) .. (6, 6) include
    totals past the truncation order; (d) skips those instead of reading the
    unknown modes of h_a^-1 h_b as 0."""
    rc = cli.run(
        ["check", "relrbar", "--type", "B", "--rank", "1", "--order", "10",
         "--window", "6"]
    )
    assert rc == 0, capsys.readouterr().out


def test_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        cli,
        "_run_suite",
        lambda suite, alg, K, W: [
            {"name": "forced failure", "status": "fail", "witness": "w"}
        ],
    )
    rc = cli.run(["check", "cartan"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "forced failure" in out
    assert "witness" in out


def test_dump_writes_json_payload(tmp_path, capsys):
    dump = tmp_path / "report.json"
    rc = cli.run(
        ["check", "cartan", "--type", "B", "--rank", "1", "--format", "json",
         "--dump", str(dump)]
    )
    stdout_payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert json.loads(dump.read_text()) == stdout_payload


def test_lop_suites_report_conventions(capsys):
    rc = cli.run(
        ["check", "gauss", "--type", "B", "--rank", "1", "--order", "4",
         "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    (report,) = payload["reports"]
    assert report["conventions"]["base"] == "swapped"


@pytest.mark.parametrize(
    "suite, type_, rank", [("eiprei", "B", 1), ("lowrank", "D", 3)]
)
def test_skipped_suite_reports_conventions_without_building_lops(
    monkeypatch, capsys, suite, type_, rank
):
    """A skipped suite reports the wiring decided on Rbar's constant terms
    and expands no L-operator."""

    def refuse(*args):
        raise lop.LopError("a skipped suite built L-operators")

    monkeypatch.setattr(lop, "build_lops", refuse)
    rc = cli.run(
        ["check", suite, "--type", type_, "--rank", str(rank), "--format", "json"]
    )
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert rc == 0
    assert [c["status"] for c in report["checks"]] == ["skipped"]
    assert report["conventions"] == {
        "base": "swapped",
        "aux_slot": 1,
        "plus_expansion": "zero",
        "normalization": "q^-1 on the plus series, q on the minus series",
    }
