"""Spans around calls into chevring's public functions, for traced runs.

The wrappers live here, in the benchmark, and are installed by rebinding
module attributes; nothing under src/ changes.  Spans are kept in flat
arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# The public functions timed in a traced run, by defining module, and the
# span each is recorded under.  Every module of the package that binds one
# of these function objects gets the wrapped version, so calls made across
# modules (is_prime as imported into oracles and rootdata, galois_params as
# imported into cli) and within a module are all seen.
TARGETS = {
    "cli": {"parse_args": "cli.parse_args", "run": "cli.run"},
    "arith": {
        "galois_params": "arith.galois_params",
        "multiplicative_order": "arith.multiplicative_order",
        "prime_power_base": "arith.prime_power_base",
        "is_prime": "arith.is_prime",
    },
    "rootdata": {"default_registry": "rootdata.default_registry", "lookup": "rootdata.lookup"},
    "presentations": {
        "cobordism_presentation": "presentations.cobordism_presentation",
        "chow_gl_presentation": "presentations.chow_gl_presentation",
        "poincare_series": "presentations.poincare_series",
        "compare_chow_cobordism_gl": "presentations.compare_chow_cobordism_gl",
        "render_text": "presentations.render",
        "render_latex": "presentations.render",
    },
    "poly": {
        "hilbert_series_of_free_polynomial_ring": "poly.hilbert_series_of_free_polynomial_ring",
        "multiply": "poly.multiply",
        "elementary_symmetric": "poly.elementary_symmetric",
    },
    "oracles": {
        "coinvariants_hilbert_bruteforce": "oracles.coinvariants_hilbert_bruteforce",
        "coinvariants_hilbert_closedform": "oracles.coinvariants_hilbert_closedform",
        "invariants_hilbert_bruteforce": "oracles.invariants_hilbert_bruteforce",
        "verify_restricted_chern": "oracles.verify_restricted_chern",
    },
}
SPAN_NAMES = sorted({span for funcs in TARGETS.values() for span in funcs.values()})

# Spans whose positional arguments are kept, for work counts computed later.
KEEP_ARGS = ("arith.galois_params",)


class Tracer:
    """Records one span per call of a wrapped function: its name, the span
    it was called from, the operation it belongs to, and its start and end
    in perf_counter nanoseconds."""

    def __init__(self):
        self.span = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.args: dict[str, list[tuple]] = {name: [] for name in KEEP_ARGS}
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sid = SPAN_NAMES.index(name)
        keep = self.args.get(name)
        span, parent, op, start, end, stack = (
            self.span, self.parent, self.op, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span.append(sid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            if keep is not None:
                keep.append(args)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Rebind every target function, in every loaded module of the
        package, to its traced wrapper."""
        wrappers = {}
        for modname, funcs in TARGETS.items():
            module = getattr(package, modname)
            for fname, name in funcs.items():
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name; self time is a span's
        duration minus the durations of the spans called from inside it."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(SPAN_NAMES)
        busy = [0] * len(SPAN_NAMES)
        own = [0] * len(SPAN_NAMES)
        for i, sid in enumerate(self.span):
            calls[sid] += 1
            busy[sid] += dur[i]
            own[sid] += dur[i] - child[i]
        return {
            name: {"calls": calls[k], "busy_s": busy[k] / 1e9, "self_s": own[k] / 1e9}
            for k, name in enumerate(SPAN_NAMES)
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, sid in enumerate(self.span):
                fh.write(
                    json.dumps(
                        {
                            "span": SPAN_NAMES[sid],
                            "op": self.op[i],
                            "parent": self.parent[i],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                        }
                    )
                    + "\n"
                )
