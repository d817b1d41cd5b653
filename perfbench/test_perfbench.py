"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import gauge
import run
from spans import TARGETS, Tracer
from workloads import OVERSIZED, WORKLOADS, oversized

chevring = run.load_chevring()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Prefix:
    """A workload cut down to the first `size` operations of each block."""

    def __init__(self, workload, size):
        self.workload, self.size = workload, size

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def block(self, seed, k):
        return self.workload.block(seed, k)[: self.size]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b = WORKLOADS[name](), WORKLOADS[name]()
    assert a.block(7, 0) == b.block(7, 0)
    assert a.block(7, 1) == b.block(7, 1)
    assert a.block(7, 0) != a.block(8, 0)
    assert a.block(7, 0) != a.block(7, 1)


def test_wrong_oracle_series_is_a_failure(monkeypatch):
    real = chevring.oracles.coinvariants_hilbert_bruteforce

    def off_by_one(problem):
        series = real(problem)
        return type(series)(series.cutoff, (series[0] + 1,) + series.coefficients[1:])

    monkeypatch.setattr(chevring.oracles, "coinvariants_hilbert_bruteforce", off_by_one)
    workload = WORKLOADS["coinvariants"]()
    tally = run.Tally(25)
    for _ in range(2):
        run.run_pass(workload, chevring, workload.block(1, 0)[:25], tally)
    assert (tally.attempted, tally.count("wrong"), tally.failed) == (25, 25, 25)
    assert len(tally.wall_ns) == 50


def test_every_queries_block_has_the_same_oversized_count():
    workload = WORKLOADS["queries"]()
    for seed in (1, 2, 3):
        assert sum(map(oversized, workload.block(seed, 0))) == OVERSIZED


def test_oversized_predicts_the_int_to_str_failures():
    workload = WORKLOADS["queries"]()
    ops = [op for op in workload.block(4, 0) if op.command == "params"]
    tally = run.Tally(len(ops))
    run.run_pass(workload, chevring, ops, tally)
    assert {i for i, op in enumerate(ops) if oversized(op)} == set(tally.kinds)
    assert set(tally.kinds.values()) == {"raised"}


def test_scaled_time_leaves_out_the_gauge():
    with gauge.Speedometer() as meter:
        start = meter.mark()
        for _ in range(500):
            gauge.gauge_loop()
        end = meter.mark()
    wall, scaled = meter.scaled(start, end)
    assert end[1] > start[1] and end[2] > start[2]
    assert 0 < wall < end[0] - start[0]
    assert scaled == wall * gauge.REFERENCE_NS / statistics.median(meter.readings[start[1] - 2 : end[1]])


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("params", lambda out: out.replace("\nh = ", "\nh = 1")),
        ("present", lambda out: out.replace("topological degree ", "topological degree 1", 1)),
        ("series", lambda out: "2" + out if out[0] != "{" else out.replace('"coefficients": [\n', '"coefficients": [\n 7', 1)),
        ("compare", lambda out: out.replace("equal", "MISMATCH").replace("true", "false")),
    ],
)
def test_wrong_cli_output_is_caught(command, corrupt):
    workload = WORKLOADS["queries"]()
    ops = [
        op for op in workload.block(3, 0)
        if op.command == command and op.fmt != "latex" and op.l < 1000 and op.rank < 100
    ]
    checked = 0
    for op in ops:
        result = workload.execute(chevring, op)
        if result[0] != 0 or run.judge(workload, op, result)[0] is not None:
            continue
        code, out, diagnostic = result
        bad = corrupt(out)
        if bad != out:
            assert run.judge(workload, op, (code, bad, diagnostic))[0] == "wrong", (op, bad)
            checked += 1
    assert checked >= 3


def test_unexpected_exit_code_is_a_failure():
    workload = WORKLOADS["queries"]()
    op = next(op for op in workload.block(3, 0) if op.command == "params" and op.l != op.p)
    assert run.judge(workload, op, (2, "", "hypothesis violated: no"))[0] == "wrong"
    assert run.judge(workload, op, (1, "", "resource limit: h too large"))[0] == "refused"


@pytest.mark.parametrize("name, size", [("coinvariants", 200), ("invariants", 6), ("queries", 150)])
def test_tracing_leaves_results_unchanged(name, size):
    workload = WORKLOADS[name]()
    ops = [op for op in workload.block(5, 0) if getattr(op, "m", 0) < 5][:size]
    plain, traced, before, after = run.Tally(len(ops)), run.Tally(len(ops)), [], []
    run.run_pass(workload, chevring, ops, plain, before)
    originals = {(m, f): getattr(getattr(chevring, m), f) for m, funcs in TARGETS.items() for f in funcs}
    tracer = Tracer()
    tracer.install(chevring)
    try:
        run.run_pass(workload, chevring, ops, traced, after, tracer)
    finally:
        tracer.uninstall()
    assert before == after
    assert plain.count("wrong") == traced.count("wrong") == 0
    assert sum(v["calls"] for v in tracer.summary().values()) > len(ops)
    assert all(getattr(getattr(chevring, m), f) is fn for (m, f), fn in originals.items())


def test_traced_run_reports_every_declared_layer_metric():
    workload = Prefix(WORKLOADS["queries"](), 60)
    metrics, _, tallies, served, extra = run.traced(workload, chevring, 1, 0)
    assert served == 1 and extra["tracing_changed_count"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert metrics["cli.parse_args.calls"] == 60 * workload.blocks_per_run
    assert metrics["cli.run.self_s"] > 0
    assert 0 < metrics["arith.galois_params.self_s"] < metrics["arith.galois_params.busy_s"]


def test_end_to_end_run_reports_every_declared_metric():
    metrics, samples, tallies, served, _ = run.end_to_end(Prefix(WORKLOADS["coinvariants"](), 50), chevring, 1, 0)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values())
    assert tallies[0].attempted == 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
