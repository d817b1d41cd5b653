"""chevring benchmark.

    python3 perfbench/run.py --workload coinvariants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run draws its operations from the seed (the first blocks_per_run blocks of
the workload's stream, see workloads.py) and serves them in passes, in a
closed loop with one client in this process, for about --seconds: it stops
after the whole pass that ends nearest the deadline, and always serves at
least one.  Every result of every pass is checked against the benchmark's
own answer.  `attempted` counts the distinct operations of the run and
`failed` those that failed in any pass, so both depend on the seed alone.
The metrics printed are the ones BENCHMARK.json declares, and the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics, with nothing traced.  Their times
are scaled to a reference machine speed read from a gauge while the run
goes on (gauge.py); the wall-clock figures are printed and recorded beside
them.  --trace 1 serves each pass twice, first untraced and then with spans
around the public functions listed in spans.py, and reports the per-layer
metrics as means per pass, the tracing overhead, and whether tracing changed
any result.  --workload all runs each workload in a process of its own, in
turn.

The program is imported from src/ of the checkout this file sits in; nothing
is installed.  Run metadata, every failure and the spans of a traced run are
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import gauge
import reference as ref
from spans import Tracer
from workloads import REFUSED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
# Times import chevring plus the first registry load in a fresh interpreter,
# and reads the gauge before and after.  The gauge is compiled from
# gauge.py's source rather than imported, so that the modules gauge.py
# imports are not loaded before chevring's own imports are timed.
SETUP_PROBE = """\
import sys, time
clock = time.perf_counter_ns
exec(sys.argv[2])
def read_gauge():
    for _ in range(5):
        gauge_loop()
    samples = []
    for _ in range(25):
        t0 = clock()
        gauge_loop()
        samples.append(clock() - t0)
    return sorted(samples)[12]
before = read_gauge()
sys.path.insert(0, sys.argv[1])
t0 = clock()
import chevring.rootdata
chevring.rootdata.default_registry()
t1 = clock()
print(t1 - t0, (before + read_gauge()) / 2, chevring.__file__)
"""


def load_chevring():
    """Import chevring from this checkout's src/, and nowhere else."""
    if not (SRC / "chevring" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chevring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chevring
    import chevring.cli

    if Path(chevring.__file__).resolve().parent != SRC / "chevring":
        sys.exit(f"perfbench: imported chevring from {chevring.__file__}, not {SRC}")
    return chevring


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds of import plus first registry load in fresh interpreters,
    scaled by the gauge and as wall time.  One untimed start comes first, so
    the bytecode cache is warm."""
    scaled, wall = [], []
    source = f"GAUGE_SIZE = {gauge.GAUGE_SIZE}\n" + inspect.getsource(gauge.gauge_loop)
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), source],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        if Path(out[2]).resolve().parent != SRC / "chevring":
            sys.exit(f"perfbench: set-up probe imported chevring from {out[2]}")
        if i:
            ns, speed = int(out[0]), float(out[1])
            wall.append(ns / 1e9)
            scaled.append(ns * gauge.REFERENCE_NS / speed / 1e9)
    return scaled, wall


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Outcomes and latencies of the operations of one kind of pass.
    Latencies are kept per operation served; outcomes per distinct
    operation of the run, an operation that failed in any pass counting
    once."""

    def __init__(self, size: int):
        self.size = size
        # arrays, not lists, so that the benchmark's own memory barely grows
        # with the number of passes and peak_rss_mb stays the program's
        self.wall_ns = array("q")
        self.scaled_ns = array("d")
        self.kinds: dict[int, str] = {}
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return self.size

    @property
    def failed(self) -> int:
        return len(self.kinds)

    def count(self, kind: str) -> int:
        return sum(k == kind for k in self.kinds.values())

    def ops_per_s(self, scaled: bool = False) -> float:
        return len(self.wall_ns) / (sum(self.scaled_ns if scaled else self.wall_ns) / 1e9)

    def add(self, i: int, wall_ns: int, scaled_ns: float, kind: str | None, detail: str) -> None:
        self.wall_ns.append(wall_ns)
        self.scaled_ns.append(scaled_ns)
        if kind is None or i in self.kinds:
            return
        self.kinds[i] = kind
        self.failures.append(f"{kind}: {detail}"[:400])


def judge(workload, op, result) -> tuple[str | None, str]:
    """Classify a returned result as right (None), refused or wrong."""
    try:
        verdict = workload.check(op, result)
    except Exception as exc:  # output the check cannot even parse is wrong
        verdict = f"{op}: unreadable output: {type(exc).__name__}: {exc}"
    if verdict is None:
        return None, ""
    return ("refused", f"{op}") if verdict == REFUSED else ("wrong", verdict)


def run_pass(workload, chevring, ops, tally: Tally, digests=None, tracer=None, meter=None) -> None:
    """Serve ops one after another.  Only the call into the program is
    timed; the check of its result runs after the clock stops.  With a
    meter, each latency is also scaled by the gauge readings around it."""
    mark = meter.mark if meter is not None else time.perf_counter_ns
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op += 1
        t0 = mark()
        try:
            result = workload.execute(chevring, op)
        except chevring.ResourceLimitError as exc:
            t1 = mark()
            result, kind, detail = exc, "refused", f"{op}: {exc}"
        except Exception as exc:  # a traceback is a failed operation, not the end of the run
            t1 = mark()
            result, kind, detail = exc, "raised", f"{op}: {type(exc).__name__}: {exc}"
        else:
            t1 = mark()
            kind, detail = judge(workload, op, result)
        wall, scaled = meter.scaled(t0, t1) if meter is not None else (t1 - t0, t1 - t0)
        tally.add(i, wall, scaled, kind, detail)
        if digests is not None:
            digests.append(hashlib.blake2b(repr(result).encode(), digest_size=16).digest())


def run_inputs(workload, seed: int) -> list:
    """The operations of one run: the first blocks_per_run blocks."""
    return [op for k in range(workload.blocks_per_run) for op in workload.block(seed, k)]


def passes(seconds: float):
    """Yield pass numbers 0, 1, ... while the next pass is expected to end
    nearer the deadline than the last one did; always yield 0."""
    start = time.perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k / 2 >= seconds:
            return


def unload_registry(chevring) -> None:
    """Drop the loaded registry, so the next lookup pays the first load as a
    fresh process would.  Every pass starts this way."""
    getattr(chevring.rootdata.default_registry, "cache_clear", lambda: None)()


def latency_metrics(tally: Tally, scaled: bool) -> dict:
    latency = tally.scaled_ns if scaled else tally.wall_ns
    return {
        "ops_per_s": tally.ops_per_s(scaled),
        "op_p50_ms": statistics.median(latency) / 1e6,
        "op_p99_ms": statistics.quantiles(latency, n=100, method="inclusive")[98] / 1e6,
    }


def end_to_end(workload, chevring, seed, seconds):
    ops = run_inputs(workload, seed)
    setup, setup_wall = measure_setup()
    tally = Tally(len(ops))
    with gauge.Speedometer() as meter:
        for served in passes(seconds):
            unload_registry(chevring)
            run_pass(workload, chevring, ops, tally, meter=meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sorting latencies
    metrics = {
        "setup_s": statistics.median(setup),
        **latency_metrics(tally, scaled=True),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {"setup_s": statistics.median(setup_wall), **latency_metrics(tally, scaled=False)}
    samples = {"setup_s": len(setup), "ops_per_s": len(tally.wall_ns), "op_p50_ms": len(tally.wall_ns),
               "op_p99_ms": len(tally.wall_ns)}
    extra = {"wall_clock": wall, "gauge_readings": len(meter.readings),
             "gauge_median_ns": statistics.median(meter.readings)}
    return metrics, samples, [tally], served + 1, extra


def qr_bits(calls) -> int:
    """Sum over galois_params(p, q, l) calls of the bit length of q^r - 1,
    from r * log2(q) without forming q^r; calls with l = p have no r and
    count 0."""
    total = 0
    for _, q, l in calls:
        if q % l:
            r = ref.order(q, l)
            total += r * (q.bit_length() - 1) if q & (q - 1) == 0 else math.floor(r * math.log2(q)) + 1
    return total


def traced(workload, chevring, seed, seconds):
    ops = run_inputs(workload, seed)
    plain, traced_tally, tracer = Tally(len(ops)), Tally(len(ops)), Tracer()
    changed = set()
    for served in passes(seconds):
        before, after = [], []
        unload_registry(chevring)
        run_pass(workload, chevring, ops, plain, before)
        unload_registry(chevring)
        tracer.install(chevring)
        try:
            run_pass(workload, chevring, ops, traced_tally, after, tracer)
        finally:
            tracer.uninstall()
        changed.update(str(op) for op, a, b in zip(ops, before, after) if a != b)
    served += 1
    metrics = {
        f"{span}.{kind}": value / served
        for span, values in tracer.summary().items()
        for kind, value in values.items()
    }
    untraced_rate, traced_rate = plain.ops_per_s(), traced_tally.ops_per_s()
    metrics.update({
        "oracles.monomials": sum(workload.monomials(op) for op in ops),
        "arith.qr_bits": qr_bits(tracer.args["arith.galois_params"]) / served,
        "oracles.refused": traced_tally.count("refused"),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1,
    })
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"{workload.name}.spans.jsonl")
    extra = {"tracing_changed_results": sorted(changed)[:20], "tracing_changed_count": len(changed)}
    return metrics, {}, [plain, traced_tally], served, extra


def run_all(args) -> int:
    """Run every workload in a process of its own and merge the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chevring benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chevring = load_chevring()
    workload = WORKLOADS[args.workload]()
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine(), "loadavg_start": os.getloadavg()}
    measure = traced if args.trace else end_to_end
    values, samples, tallies, served, extra = measure(workload, chevring, args.seed, args.seconds)
    meta["loadavg_end"] = os.getloadavg()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = tallies[0].attempted
    kinds = {i: k for t in reversed(tallies) for i, k in t.kinds.items()}
    failed = len(kinds)
    outcomes = {kind: sum(k == kind for k in kinds.values()) for kind in ("raised", "refused", "wrong")}
    correct = outcomes["wrong"] == 0 and not extra.get("tracing_changed_count")
    failures = [f for t in tallies for f in t.failures]

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "passes": served, "attempted": attempted, "outcomes": outcomes,
              "metrics": metrics, "samples": samples, "failures": failures[:100], **extra}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {served} passes over "
          f"{attempted} operations; python {meta['python']}, {meta['cpu']}, nproc {meta['nproc']}, "
          f"load {meta['loadavg_start'][0]:.2f} -> {meta['loadavg_end'][0]:.2f}")
    for name, m in metrics.items():
        n = f"  (n = {samples[name]})" if name in samples else ""
        wall = extra.get("wall_clock", {}).get(name)
        n += f"  (wall clock {wall:.6g})" if wall is not None else ""
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':<55} {failed / attempted:>14.6g} share  ({failed} of {attempted}: "
          + ", ".join(f"{v} {k}" for k, v in outcomes.items()) + ")")
    if args.trace:
        print(f"  tracing changed {extra['tracing_changed_count']} results")
    for line in failures[:3]:
        print(f"  {line[:200]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
