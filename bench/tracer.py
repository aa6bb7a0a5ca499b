"""Spans and counters around the public functions of the shascope modules.

`Tracer.install()` replaces every public function of the layer modules at
every place it is bound inside the package: the defining module, each module
that imported it with `from .x import name` (under any alias), and the
package namespace. A few methods are wrapped on their class, so every call
through an instance is seen. `uninstall()` puts the originals back, so an
untraced pass runs the unmodified code.

A span records name, start, end, parent span and op id. Functions called
millions of times per op (point addition, Legendre symbols, valuations) are
only counted: a span each would cost more than the function itself and grow
the span store without bound. Their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "arith",
    "poly",
    "curves",
    "divpoly",
    "ffcurve",
    "torsionq",
    "numfield",
    "galoisrules",
    "liftkit",
    "cli",
)

COUNT_ONLY = frozenset(
    {
        "ffcurve.add",
        "ffcurve.neg",
        "ffcurve.scalar_mul",
        "arith.legendre",
        "arith.padic_val",
        "arith.rat_val",
    }
)


def _ring_label(ring) -> str:
    from shascope.poly import Fp, MPolyRing

    if isinstance(ring, Fp):
        return "Fp"
    if isinstance(ring, MPolyRing):
        return "ZAB"
    return ring.name


class Tracer:
    """Per-run span store and per-function totals for one traced pass set."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()
        self.max_degree = -1
        self.ops = 0
        self.record_spans = True
        self._names: dict[str, int] = {}
        self._span_name = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index]
        self._op_id = -1
        self._factored: set = set()
        self._f_requested: set = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- op boundaries ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._factored = set()
        self._f_requested = set()

    def end_op(self) -> None:
        self.ops += 1
        self._factored = set()
        self._f_requested = set()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        self.calls[name] += 1
        idx = -1
        if self.record_spans:
            idx = len(self._span_start)
            nid = self._names.setdefault(name, len(self._names))
            self._span_name.append(nid)
            self._span_start.append(0)
            self._span_end.append(0)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_op.append(self._op_id)
        frame = [name, 0, 0, idx]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        self.self_ns[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self._span_start[frame[3]] = frame[1]
            self._span_end[frame[3]] = end

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        if name == "arith.factorize":

            @functools.wraps(fn)
            def factorize(n, *args, **kwargs):
                if n in tracer._factored:
                    tracer.extra["arith.factorize.repeats"] += 1
                tracer._factored.add(n)
                frame = tracer._open(name)
                try:
                    return fn(n, *args, **kwargs)
                finally:
                    tracer._close(frame)

            return factorize

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return spanned

    def _wrap_method(self, prefix: str, fn):
        """Wrappers for the class attributes, named by ring or with extra counts."""
        tracer = self
        if prefix == "poly.mul":

            @functools.wraps(fn)
            def mul(a, b):
                name = f"poly.mul.{_ring_label(a.ring)}"
                tracer.extra[name + ".coeff_products"] += len(a.coeffs) * len(b.coeffs)
                frame = tracer._open(name)
                try:
                    return fn(a, b)
                finally:
                    tracer._close(frame)

            return mul
        if prefix == "poly.divmod":

            @functools.wraps(fn)
            def divmod_exact(a, b):
                frame = tracer._open(f"poly.divmod.{_ring_label(a.ring)}")
                try:
                    return fn(a, b)
                finally:
                    tracer._close(frame)

            return divmod_exact
        if prefix == "divpoly.f":

            @functools.wraps(fn)
            def f(table, n):
                key = (table, n)
                if key not in tracer._f_requested:
                    tracer._f_requested.add(key)
                    tracer.extra["divpoly.f.computed"] += 1
                frame = tracer._open(prefix)
                try:
                    out = fn(table, n)
                finally:
                    tracer._close(frame)
                tracer.max_degree = max(tracer.max_degree, out.degree())
                return out

            return f
        return self._wrap(prefix, fn)

    # -- install / uninstall ----------------------------------------------

    @staticmethod
    def targets():
        """(qualified name, owner, attribute, original) for everything wrapped."""
        import shascope.cli  # noqa: F401  -- imports every layer module
        from shascope.divpoly import DivisionTable
        from shascope.numfield import QuotRing
        from shascope.poly import ExactPoly

        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"shascope.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        out.append(("poly.mul", ExactPoly, "__mul__", ExactPoly.__mul__))
        out.append(("poly.divmod", ExactPoly, "divmod_exact", ExactPoly.divmod_exact))
        out.append(("divpoly.f", DivisionTable, "f", DivisionTable.f))
        out.append(("numfield.QuotRing", QuotRing, "__init__", QuotRing.__init__))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "shascope" or n.startswith("shascope.")]
        for name, owner, attr, original in self.targets():
            if isinstance(owner, type):
                wrapper = self._wrap_method(name, original)
                self._patch(owner, attr, original, wrapper)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def suspended(self):
        """Run the enclosed code (output checks) on the unwrapped functions."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- output -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path: Path) -> None:
        """One JSON header line (span names by id), then one line per span:
        [name id, start ns, end ns, parent span index or -1, op id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self._names, key=self._names.get)
        with path.open("w") as fh:
            fh.write(json.dumps({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}))
            fh.write("\n")
            cols = (self._span_name, self._span_start, self._span_end, self._span_parent, self._span_op)
            for row in zip(*cols):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
