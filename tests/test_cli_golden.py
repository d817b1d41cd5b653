"""Golden CLI outputs: each invocation's exit code, stdout and stderr are
pinned in cli_golden.json.

To rewrite the golden file from the current code, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from chevring.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = [
    # params
    ("params", "--q", "3", "--l", "5", "--n", "3"),
    ("params", "--q", "3", "--l", "5", "--n", "3", "--format", "json"),
    ("params", "--q", "81", "--l", "5", "--n", "7"),
    ("params", "--q", "4", "--l", "3", "--format", "json"),
    ("params", "--q", "7", "--l", "101"),
    ("params", "--q", "3", "--l", "10007", "--n", "20000", "--format", "json"),
    ("params", "--q", "3", "--l", "1000003"),
    ("params", "--q", "3", "--l", "1000003", "--format", "json"),
    ("params", "--q", "1000000000000000003", "--l", "5"),
    ("params", "--q", "5", "--l", "5"),
    ("params", "--q", "2", "--l", "2", "--format", "json"),
    ("params", "--q", "9", "--l", "3", "--p", "2"),
    ("params", "--q", "12", "--l", "5"),
    ("params", "--q", "3", "--l", "9"),
    ("params", "--q", "1", "--l", "5"),
    # present
    ("present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5", "--theory", "cobordism"),
    ("present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5", "--theory", "cobordism",
     "--cutoff", "16", "--format", "json"),
    ("present", "--family", "E6", "--rank", "6", "--q", "4", "--l", "7", "--theory", "cobordism",
     "--format", "latex"),
    ("present", "--family", "GL", "--rank", "6", "--q", "19", "--l", "3", "--theory", "chow",
     "--b", "2", "--cutoff", "6"),
    ("present", "--family", "Sp", "--rank", "40", "--q", "3", "--l", "1000003", "--theory", "cobordism"),
    ("present", "--family", "E8", "--rank", "8", "--q", "4", "--l", "5", "--theory", "cobordism"),
    ("present", "--family", "GL", "--rank", "3", "--q", "2", "--l", "2", "--theory", "chow"),
    ("present", "--family", "SO_even", "--rank", "1", "--q", "3", "--l", "5", "--theory", "cobordism"),
    ("present", "--family", "GL", "--rank", "2", "--q", "4", "--l", "3", "--theory", "chow",
     "--b", "100000000"),
    # series
    ("series", "--family", "Sp", "--rank", "1", "--q", "81", "--l", "5", "--theory", "cobordism",
     "--cutoff", "8", "--grading", "topological"),
    ("series", "--family", "GL", "--rank", "4", "--q", "4", "--l", "3", "--theory", "chow",
     "--cutoff", "12", "--format", "json"),
    ("series", "--family", "G2", "--rank", "2", "--q", "9", "--l", "7", "--theory", "cobordism",
     "--cutoff", "24", "--format", "latex"),
    ("series", "--family", "GL", "--rank", "5", "--q", "3", "--l", "1000003", "--theory", "chow",
     "--cutoff", "10"),
    ("series", "--family", "GL", "--rank", "5", "--q", "19", "--l", "3", "--theory", "chow",
     "--b", "3", "--cutoff", "10"),
    # compare
    ("compare", "--rank", "4", "--q", "3", "--l", "5"),
    ("compare", "--rank", "9", "--q", "7", "--l", "19", "--format", "json"),
    ("compare", "--rank", "5", "--q", "3", "--l", "1000003"),
    ("compare", "--rank", "3", "--q", "3", "--l", "2"),
    # verify
    ("verify",),
    ("verify", "--format", "json"),
    ("verify", "--primes", "7,11", "--max-weight-len", "4", "--max-m", "3", "--cutoff", "10",
     "--format", "json"),
    ("verify", "--monomial-limit", "5"),
    ("verify", "--primes", "0"),
    ("verify", "--primes", "1"),
    ("verify", "--monomial-limit", "-3", "--max-m", "0", "--max-weight-len", "0",
     "--sp-max-rank", "0"),
    ("verify", "--cutoff", "-1", "--max-m", "0", "--max-weight-len", "0", "--sp-max-rank", "0"),
    ("verify", "--primes", "3,3"),
]


def invoke(argv) -> dict:
    """Run the CLI in process; an uncaught exception is recorded by type."""
    out, err = io.StringIO(), io.StringIO()
    record = {"argv": list(argv)}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["exit"] = main(list(argv))
        except Exception as exc:  # pinned too: a traceback is part of the behaviour
            record["exit"] = None
            record["raises"] = type(exc).__name__
    record.update(stdout=out.getvalue(), stderr=err.getvalue())
    return record


def _golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def _case_id(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv)


def test_golden_covers_every_case():
    assert set(_golden()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_cli_output_is_golden(argv):
    assert invoke(argv) == _golden()[argv]


def _json_stdouts() -> dict:
    """The nonempty stdout of each `--format json` case."""
    return {
        argv: record["stdout"]
        for argv, record in _golden().items()
        if record["stdout"] and "json" in argv and argv[argv.index("json") - 1] == "--format"
    }


def test_the_golden_file_has_json_outputs():
    assert len(_json_stdouts()) == 8


@pytest.mark.parametrize("argv", list(_json_stdouts()), ids=_case_id)
def test_golden_json_is_laid_out_as_the_stdlib_lays_it_out(argv):
    # the layout contract, pinned apart from the writer that produced it
    stdout = _json_stdouts()[argv]
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([invoke(argv) for argv in CASES], indent=1) + "\n")
