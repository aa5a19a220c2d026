"""Command-line entry point: runs named verification suites and prints
deterministic reports.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 on usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import import_module
from typing import Callable, NamedTuple

from .liedata import AlgebraData
from .series import ResourceBoundError

_HEADER_NOTE = (
    "checks are run in the vector representation (central charge 0); "
    "a pass verifies necessity of the identities, not the abstract algebra"
)

# The largest --order and --window any suite accepts, refused before anything
# is built.  Measured as single processes on a shared 2-core host on D3
# (N = 6, the largest algebra the default QAV_MAX_N admits), L-operator build
# included: relrbar takes 0.9 s at the defaults, 1.8 s at order 16, 1.0 s at
# order 8 and window 8, and 2.0 s at order 16 and window 8; f-series takes
# 0.8 s at order 16.
MAX_ORDER = 16
MAX_WINDOW = 8


class _Suite(NamedTuple):
    """One row of the suite table.  module names the qav module that holds
    the check, and run(module, alg, K, W) returns the check dicts, a
    skipped item among them when the suite does not apply to the algebra
    (the report of a lop row adds the L-operator conventions)."""

    module: str
    run: Callable


def _module(name):
    """The module qav.<name>.  A run imports only the modules of its suites,
    before it builds anything: most suites need neither lop nor vecrep, and
    compiling lop is a measurable share of a short run, while compiling it
    after the first suite has run raises the peak memory of `check all`."""
    return import_module(f".{name}", __package__)


# Module functions are looked up when a suite runs, not when the table is
# built, so that rebinding them (tests, tracing) takes effect.
_TABLE = {
    "cartan": _Suite("liedata", lambda liedata, alg, K, W: liedata.check_cartan(alg)),
    "crossing": _Suite(
        "rmatrix", lambda rmatrix, alg, K, W: rmatrix.check_crossing(alg, order=K)
    ),
    "drinfeld-rep": _Suite(
        "vecrep", lambda vecrep, alg, K, W: vecrep.check_drinfeld_window(alg, window=W)
    ),
    "eiprei": _Suite("lop", lambda lop, alg, K, W: lop.check_eiprei(alg, K)),
    "f-series": _Suite(
        "series", lambda series, alg, K, W: series.verify_fu_product(alg, K)["checks"]
    ),
    "gauss": _Suite("lop", lambda lop, alg, K, W: lop.check_gauss(alg, K)),
    "lowrank": _Suite("lop", lambda lop, alg, K, W: lop.check_lowrank(alg, K)),
    "main-structure": _Suite(
        "lop", lambda lop, alg, K, W: lop.check_main_theorem_structure(alg, K)
    ),
    "psi": _Suite("lop", lambda lop, alg, K, W: lop.check_psi(alg, K)),
    "relrbar": _Suite("lop", lambda lop, alg, K, W: lop.check_relrbar(alg, K, W)),
    "unitarity": _Suite(
        "rmatrix", lambda rmatrix, alg, K, W: rmatrix.check_unitarity(alg)
    ),
    "ybe": _Suite("rmatrix", lambda rmatrix, alg, K, W: rmatrix.check_ybe(alg)),
    "zseries": _Suite("lop", lambda lop, alg, K, W: lop.z_series(alg, K)[2]),
}

SUITES = tuple(sorted(_TABLE))


def _run_suite(suite, alg, K, W):
    entry = _TABLE.get(suite)
    if entry is None:
        raise ValueError(f"unknown suite: {suite}")
    return entry.run(_module(entry.module), alg, K, W)


def _guard_order_window(K, W):
    if K > MAX_ORDER:
        raise ResourceBoundError(f"order {K} exceeds MAX_ORDER = {MAX_ORDER}")
    if W > MAX_WINDOW:
        raise ResourceBoundError(f"window {W} exceeds MAX_WINDOW = {MAX_WINDOW}")


def _suite_report(suite, alg, K, W):
    t0 = time.monotonic()
    checks = _run_suite(suite, alg, K, W)
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    report = {
        "suite": suite,
        "algebra": {"type": alg.type, "rank": alg.n},
        "order": K,
        "window": W,
        "note": _HEADER_NOTE,
        "checks": checks,
    }
    if _TABLE[suite].module == "lop":
        report["conventions"] = _module("lop").choose_wiring(alg).record
    return report, elapsed_ms


def _at_least_1(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _emit_text(report, elapsed_ms, out):
    head = f"[{report['suite']}] {report['algebra']['type']}{report['algebra']['rank']}"
    print(f"{head}  (order {report['order']}, window {report['window']}, "
          f"{elapsed_ms} ms)", file=out)
    for c in report["checks"]:
        line = f"  {c['status']:7s} {c['name']}"
        if c["status"] == "fail" and c.get("witness") is not None:
            line += f"  witness: {c['witness']}"
        if c["status"] == "skipped" and c.get("reason"):
            line += f"  ({c['reason']})"
        print(line, file=out)


def run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="qav",
        description="exact symbolic checks for orthogonal quantum affine algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("suite", choices=SUITES + ("all",))
    chk.add_argument("--type", dest="type_", choices=("B", "D"), default="B")
    chk.add_argument("--rank", type=int, default=1)
    chk.add_argument("--order", type=_at_least_1, default=10)
    chk.add_argument("--window", type=_at_least_1, default=3)
    chk.add_argument("--format", dest="fmt", choices=("text", "json"),
                     default="text")
    chk.add_argument("--dump", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    for suite in suites:
        _module(_TABLE[suite].module)
    try:
        alg = AlgebraData(args.type_, args.rank)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    try:
        _guard_order_window(args.order, args.window)
        for suite in suites:
            reports.append(_suite_report(suite, alg, args.order, args.window))
    except ResourceBoundError as exc:
        print(f"error: resource bound exceeded: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"schema": 1, "reports": [r for r, _ in reports]}
    failed = any(
        c["status"] == "fail" for r, _ in reports for c in r["checks"]
    )
    try:
        if args.fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for report, ms in reports:
                _emit_text(report, ms, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; the verdict stands, and stdout
        # points at the null device so that the exit flush writes nothing
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    if args.dump:
        try:
            with open(args.dump, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write --dump file: {exc}", file=sys.stderr)
            return 2
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
