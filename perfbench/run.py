"""End-to-end and per-layer benchmark of `qav check`.

    python3 perfbench/run.py --workload d2-all --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Every invocation is a fresh
`python -m qav.cli` process with the checkout's `src` first on PYTHONPATH,
started one at a time and waited for (closed loop, one client).  Each
child's `--format json` stdout is checked against the sha256 digest recorded
in `reference.json`; a non-zero exit or a digest mismatch counts as a failed
invocation.  A run repeats the workload's invocation sequence for about
`--seconds`; the times reported are, per invocation, the fastest of its
repetitions, summed over the invocations.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of one traced pass (see
`qavtrace.py`) together with the overhead of tracing.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SUITES = (
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
)
RMATRIX_SUITES = ("cartan", "crossing", "drinfeld-rep", "f-series", "unitarity", "ybe")

# workload -> (algebra type, rank, suites); one `qav check` process per suite.
# BENCHMARK.json lists d2-all and d3-rmatrix; b1-cold stays runnable by hand.
WORKLOADS = {
    "d2-all": ("D", 2, ("all",)),
    "b1-cold": ("B", 1, SUITES),
    "d3-rmatrix": ("D", 3, RMATRIX_SUITES),
}

SETUP_SAMPLES = 4  # timed imports before the passes, and as many after them
SETUP_PROBE = (
    "import json, platform, sys, qav.cli, sympy\n"
    "from sympy.external.gmpy import GROUND_TYPES\n"
    "json.dump({'qav_file': qav.cli.__file__, 'python': platform.python_version(),"
    " 'sympy': sympy.__version__, 'ground_types': GROUND_TYPES}, sys.stdout)\n"
)

LAYER_COUNTS = {
    "scalars.mul.calls": ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
    "scalars.add.calls": ("scalars.Scalar.__add__", "scalars.Scalar.__radd__"),
    "scalars.inverse.calls": ("scalars.Scalar.inverse",),
    "tensor.mul.calls": ("tensor.SparseMat.__mul__",),
    "series.mul.calls": ("series.TruncSeries.__mul__",),
    "series.inverse.calls": ("series.TruncSeries.inverse",),
    "series.expand_scalar.calls": ("series.expand_scalar",),
    "quasidet.gauss_decompose.calls": ("quasidet.gauss_decompose",),
    "quasidet.quasideterminant.calls": ("quasidet.quasideterminant",),
    "quasidet.psi_image.calls": ("quasidet.psi_image",),
    "rmatrix.build_catalog.calls": ("rmatrix.build_catalog",),
    "rmatrix.catalog_builds": ("rmatrix.RCatalog.__init__",),
    "lop.build_lops.calls": ("lop.build_lops",),
    "lop.lops_builds": ("lop.LOperators.__init__",),
    "lop.gauss_builds": ("lop.GaussianSeries.__init__",),
}
LAYER_BUSY = ("scalars", "tensor", "series", "quasidet", "rmatrix", "lop", "vecrep", "liedata")
LAYER_SELF = ("scalars", "tensor", "series", "quasidet", "lop")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # hash order is fixed so that traced call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd) -> dict:
    """Run cmd to completion; return its output, exit code, wall time and
    the rusage of this one child (from wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "out": out,
        "err": err[0].decode(errors="replace"),
        "code": proc.returncode,
        "wall": wall,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def invocations(workload: str, rng: random.Random) -> list:
    type_, rank, suites = WORKLOADS[workload]
    suites = list(suites)
    rng.shuffle(suites)  # each invocation is its own process: order-free
    return [
        ["check", s, "--type", type_, "--rank", str(rank), "--order", "10",
         "--window", "3", "--format", "json"]
        for s in suites
    ]


def measure_setup() -> tuple:
    """Wall times of fresh interpreters importing qav.cli, after one
    discarded warm-up that compiles the bytecode; also returns the facts
    the probe prints."""
    cmd = [sys.executable, "-c", SETUP_PROBE]
    samples, facts = [], None
    for i in range(SETUP_SAMPLES + 1):
        r = spawn(cmd)
        if r["code"] != 0:
            raise BenchError(f"cannot import qav.cli from {SRC}:\n{r['err']}")
        facts = json.loads(r["out"])
        if i:
            samples.append(r["wall"])
    qav_file = Path(facts.pop("qav_file")).resolve()
    if SRC not in qav_file.parents:
        raise BenchError(f"qav.cli resolved to {qav_file}, outside {SRC}")
    return samples, facts


def run_pass(workload, rng, refs, traced=False) -> dict:
    """One pass: the workload's whole invocation sequence, once."""
    tracer = [sys.executable, str(HERE / "qavtrace.py")]
    plain = [sys.executable, "-m", "qav.cli"]
    res = {"wall": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0,
           "traces": [], "per_call": {}}
    t0 = time.perf_counter()
    for argv in invocations(workload, rng):
        r = spawn((tracer if traced else plain) + argv)
        key = " ".join(argv)
        digest = hashlib.sha256(r["out"]).hexdigest()
        res["attempted"] += 1
        res["per_call"][key] = (r["wall"], r["cpu"])
        res["rss_mb"] = max(res["rss_mb"], r["rss_mb"])
        trace = [l for l in r["err"].splitlines() if l.startswith("QAVTRACE ")]
        if r["code"] != 0 or digest != refs.get(key) or (traced and not trace):
            res["failed"] += 1
            print(f"FAILED: {key}: exit {r['code']}, sha256 {digest}\n{r['err'][-2000:]}",
                  file=sys.stderr)
        elif traced:
            res["traces"].append(json.loads(trace[-1][len("QAVTRACE "):]))
    res["wall"] = time.perf_counter() - t0
    return res


def layer_metrics(traces, untraced_wall, traced_wall) -> dict:
    """Sum the per-process traces of one pass into the per-layer metrics."""
    def total(field, key):
        return sum(t[field].get(key, 0) for t in traces)

    m = {}
    for name, keys in LAYER_COUNTS.items():
        m[name] = (sum(total("calls", k) for k in keys), "count")
    mul = m["scalars.mul.calls"][0]
    mono = sum(t["mul_mono_den"] for t in traces)
    m["scalars.mul.mono_den_ratio"] = (mono / mul if mul else 0.0, "ratio")
    m["scalars.poly_gcd.calls"] = (sum(t["poly_gcd_calls"] for t in traces), "count")
    m["scalars.poly_gcd.busy_s"] = (sum(t["poly_gcd_s"] for t in traces), "s")
    for layer in LAYER_BUSY:
        m[f"{layer}.busy_s"] = (total("busy_s", layer), "s")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (total("self_s", layer), "s")
    m["series.verify_fu_product.busy_s"] = (total("incl_s", "series.verify_fu_product"), "s")
    m["lop.build_s"] = (
        total("incl_s", "lop.build_lops") + total("incl_s", "lop.gaussian_generators"), "s")
    for suite in SUITES:
        m[f"suite.{suite}.s"] = (total("suite_s", suite), "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return r.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "qav").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this workload's digests into reference.json")
    args = ap.parse_args(argv)
    if not (SRC / "qav" / "cli.py").is_file():
        print(f"error: no qav sources under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if not refs and not args.record:
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    try:
        setup_samples, facts = measure_setup()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts.update(git_sha=git_sha(), src_sha256=source_digest(), nproc=os.cpu_count(),
                 machine=platform.machine(), workload=args.workload, seed=args.seed,
                 trace=args.trace)

    if args.record:
        return record(args.workload, rng, refs)
    result = measure(args, rng, refs, setup_samples, facts)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps(result))
    return 0


def record(workload, rng, refs) -> int:
    """Store the digests of this workload's reports in reference.json."""
    for argv in invocations(workload, rng):
        r = spawn([sys.executable, "-m", "qav.cli"] + argv)
        if r["code"] != 0:
            print(f"error: {' '.join(argv)} exited {r['code']}", file=sys.stderr)
            return 1
        refs[" ".join(argv)] = hashlib.sha256(r["out"]).hexdigest()
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


def best_of(passes, field) -> float:
    """Sum over the invocations of each one's fastest repetition.  The work
    is deterministic, and on a shared host interference only adds time, so
    the fastest repetition is the steadiest estimate of its cost."""
    keys = passes[0]["per_call"]
    return sum(min(p["per_call"][k][field] for p in passes) for k in keys)


def measure(args, rng, refs, setup_samples, facts) -> dict:
    """Untraced passes for --seconds, then more set-up samples, so that
    set-up is sampled at both ends of the run; plus one traced pass with
    --trace 1."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(args.workload, rng, refs))
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within --seconds
        if elapsed + min(p["wall"] for p in passes) > args.seconds:
            break
    facts["passes"] = len(passes)
    wall = statistics.median(p["wall"] for p in passes)
    facts["median_pass_wall_s"] = wall
    setup_s = statistics.median(setup_samples + measure_setup()[0])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        traced = run_pass(args.workload, rng, refs, traced=True)
        attempted += traced["attempted"]
        failed += traced["failed"]
        facts.update(untraced_wall_s=wall, traced_wall_s=traced["wall"])
        metrics = layer_metrics(traced["traces"], wall, traced["wall"])
    else:
        metrics = {
            "wall_s": (best_of(passes, 0), "s"),
            "cpu_s": (best_of(passes, 1), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

if __name__ == "__main__":
    sys.exit(main())
