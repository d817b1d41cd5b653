"""The names and call shapes that the benchmark under perfbench/ uses from the
package.  perfbench/workloads.py and perfbench/run.py drive the package through
these, and perfbench/spans.py wraps the functions its TARGETS table names, so
a deletion or a changed signature here breaks the benchmark; these tests fail
first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import chevring
from chevring import arith, cli, oracles, rootdata

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # spans.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    assert spans.TARGETS
    for modname, funcs in spans.TARGETS.items():
        module = importlib.import_module(f"chevring.{modname}")
        assert getattr(chevring, modname) is module, modname
        missing = [name for name in funcs if not callable(getattr(module, name, None))]
        assert not missing, (modname, missing)


def test_the_tracer_wraps_and_restores_the_targets(spans):
    parse_args = cli.parse_args
    tracer = spans.Tracer()
    tracer.install(chevring)
    try:
        assert cli.parse_args is not parse_args
        code, _, _ = cli.run(cli.parse_args(["params", "--q", "3", "--l", "5"]))
        params = arith.galois_params(3, 3, 5)
        multiplies = []
        for m in (1, 2, 5):
            assert oracles.verify_restricted_chern(m, params).passed
            multiplies.append(tracer.summary()["poly.multiply"]["calls"])
        problem = oracles.GradedActionProblem(
            weights=(1, 1, 1), l=5, q=3, cutoff=4, permutation=oracles.FULL_SYMMETRIC
        )
        oracles.invariants_hilbert_bruteforce(problem)
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.parse_args is parse_args
    summary = tracer.summary()
    assert summary["cli.parse_args"]["calls"] == 1
    assert summary["arith.galois_params"]["calls"] == 2
    assert summary["oracles.verify_restricted_chern"]["calls"] == 3
    assert summary["oracles.invariants_hilbert_bruteforce"]["calls"] == 1
    # the Chern check multiplies out one block, one linear factor at a time:
    # r = 4 products at every m, so it never expands the m-variable class
    assert multiplies == [4, 8, 12]
    assert summary["poly.multiply"]["calls"] == 12


def test_the_coinvariants_workload_shape():
    problem = oracles.GradedActionProblem(weights=(1, 2), l=5, q=3, cutoff=8)
    brute = oracles.coinvariants_hilbert_bruteforce(problem)
    assert brute.coefficients == oracles.coinvariants_hilbert_closedform(problem).coefficients


def test_the_invariants_workload_shape():
    problem = oracles.GradedActionProblem(
        weights=(1, 1), l=5, q=3, cutoff=8, permutation=oracles.FULL_SYMMETRIC
    )
    brute = oracles.invariants_hilbert_bruteforce(problem)
    assert brute.coefficients == oracles.invariants_hilbert_closedform(problem).coefficients
    report = oracles.verify_restricted_chern(2, arith.galois_params(3, 3, 5))
    assert report.passed is True
    assert dict(report.parameters)["r"] == 4


def test_the_queries_workload_shape():
    result = cli.run(cli.parse_args(["present", "--family", "Sp", "--rank", "4", "--q", "3",
                                     "--l", "5", "--theory", "cobordism", "--format", "json"]))
    code, out, diagnostic = result
    assert (code, diagnostic) == (0, "")
    assert isinstance(out, str) and out.startswith("{")


def test_the_runner_reaches_the_registry_and_the_error_type():
    assert isinstance(rootdata.default_registry(), rootdata.Registry)
    assert issubclass(chevring.ResourceLimitError, Exception)
