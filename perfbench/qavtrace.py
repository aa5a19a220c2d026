"""Run one `qav` command with every public entry point of `qav` wrapped.

    PYTHONPATH=src python3 perfbench/qavtrace.py check all --type D --rank 2 --format json

Behaves like `python -m qav.cli` (same stdout, same exit code) and, at exit,
writes one line `QAVTRACE <json>` to stderr with per-function call counts and
inclusive times, per-layer busy and self time, the sympy polynomial gcd
count and time, and how many Scalar products had single-term denominators on
both operands.

A layer is a module of the `qav` package.  A layer's busy time is the
inclusive time of its outermost calls; its self time is the time during
which the innermost wrapped call on the stack belongs to it, i.e. busy time
minus the time spent in nested calls into other layers.  Time inside sympy
stays with the `qav` layer that called it.

Wrapped are: every public function of each module; every public method,
`__init__`, property getter and arithmetic or comparison operator of each
public class.  Each binding of a wrapped function is replaced, including the
names that other modules imported with `from .x import f` and the operator
aliases (`__radd__ = __add__`) inside a class body.  No file of `qav` is
changed; everything happens in this process after import.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "cli",
    "liedata",
    "lop",
    "quasidet",
    "rmatrix",
    "scalars",
    "series",
    "tensor",
    "vecrep",
)

OPERATORS = frozenset(
    {
        "__init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__neg__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "__eq__",
    }
)

# The cli layer's per-suite span: one call per suite, with the check call and
# the conventions lookup that follows it.
SUITE_SPAN = "_suite_report"


class Tracer:
    """Call counts and layer timings, charged at each wrapped boundary."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.suite_s = {}
        self.mul_mono_den = 0
        self.gcd_calls = 0
        self.gcd_s = 0.0
        self._stack = []  # layers of the open wrapped calls, innermost last
        self._last = [0.0]  # time of the latest boundary crossing

    def wrap(self, fn, layer, key, mul=False, suite=False):
        """Return a wrapper of fn that is counted under `key` in `layer`."""
        clock = time.perf_counter
        stack, last = self._stack, self._last
        calls, incl = self.calls, self.incl
        busy, self_time, depth = self.busy, self.self_time, self.depth
        calls.setdefault(key, 0)
        incl.setdefault(key, 0.0)
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            if stack:
                self_time[stack[-1]] += t0 - last[0]
            stack.append(layer)
            depth[layer] += 1
            calls[key] += 1
            if mul and len(args[0].den) == 1:
                other = args[1]
                if not hasattr(other, "den") or len(other.den) == 1:
                    tracer.mul_mono_den += 1
            last[0] = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_time[layer] += t1 - last[0]
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    busy[layer] += t1 - t0
                incl[key] += t1 - t0
                if suite:
                    name = args[0]
                    tracer.suite_s[name] = tracer.suite_s.get(name, 0.0) + t1 - t0
                last[0] = t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def wrap_gcd(self, fn):
        """Time sympy's PolyElement.gcd without opening a layer span."""
        clock = time.perf_counter
        tracer = self

        def gcd(p, q):
            t0 = clock()
            try:
                return fn(p, q)
            finally:
                tracer.gcd_calls += 1
                tracer.gcd_s += clock() - t0

        gcd.__wrapped__ = fn
        return gcd

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "incl_s": self.incl,
            "busy_s": self.busy,
            "self_s": self.self_time,
            "suite_s": self.suite_s,
            "mul_mono_den": self.mul_mono_den,
            "poly_gcd_calls": self.gcd_calls,
            "poly_gcd_s": self.gcd_s,
        }


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defined_in(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def install(tracer: Tracer) -> None:
    """Wrap every public entry point of every layer, in every binding."""
    modules = {name: importlib.import_module(f"qav.{name}") for name in LAYERS}
    replaced = {}  # id(original function) -> wrapper, for module bindings
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and _public(name) and _defined_in(obj, mod):
                replaced[id(obj)] = tracer.wrap(obj, layer, f"{layer}.{name}")
            elif (
                inspect.isclass(obj)
                and _public(name)
                and _defined_in(obj, mod)
                and not issubclass(obj, BaseException)
            ):
                _wrap_class(tracer, layer, obj)
    suite_fn = getattr(modules["cli"], SUITE_SPAN)
    replaced[id(suite_fn)] = tracer.wrap(suite_fn, "cli", "cli." + SUITE_SPAN, suite=True)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    from sympy.polys.rings import PolyElement

    PolyElement.gcd = tracer.wrap_gcd(PolyElement.gcd)


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if not (_public(attr) or attr in OPERATORS):
            continue
        key = f"{layer}.{cls.__name__}.{attr}"
        mul = cls.__name__ == "Scalar" and attr in ("__mul__", "__rmul__")
        if isinstance(val, staticmethod):
            new = staticmethod(tracer.wrap(val.__func__, layer, key))
        elif isinstance(val, property):
            new = property(tracer.wrap(val.fget, layer, key), val.fset, val.fdel)
        elif inspect.isfunction(val):
            new = tracer.wrap(val, layer, key, mul=mul)
        else:
            continue
        setattr(cls, attr, new)


def main(argv) -> int:
    import qav

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qav.__file__).resolve().parents:
        print(f"qavtrace: qav imported from {qav.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from qav import cli

    code = cli.run(argv)
    sys.stdout.flush()
    print("QAVTRACE " + json.dumps(tracer.report(), sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
