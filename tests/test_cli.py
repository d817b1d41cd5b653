import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chevring
from chevring import cli, oracles, verify
from chevring.arith import GaloisParams, galois_params, is_prime
from chevring.cli import UsageError, build_parser, main, parse_args, run
from chevring.errors import InputError
from chevring.presentations import comparison_from_json_dict, presentation_from_json_dict


def run_cli(*argv):
    return run(parse_args(list(argv)))


# -- golden outputs -----------------------------------------------------------


def test_present_sp_golden_text():
    code, out, err = run_cli(
        "present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5",
        "--theory", "cobordism", "--format", "text",
    )
    assert (code, err) == (0, "")
    assert out == (
        "F_5[q_2, q_4]\n"
        "  q_2: algebraic degree 4, topological degree 8\n"
        "  q_4: algebraic degree 8, topological degree 16"
    )


def test_present_gl_trivial_golden_text():
    code, out, err = run_cli(
        "present", "--family", "GL", "--rank", "3", "--q", "3", "--l", "5",
        "--theory", "chow",
    )
    assert (code, err) == (0, "")
    assert out == "Z/5\n  (no generators; m = 0)"


def test_present_latex():
    code, out, _ = run_cli(
        "present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5",
        "--theory", "cobordism", "--format", "latex",
    )
    assert (code, out) == (0, "\\mathbb{F}_5[q_2, q_4]")


def test_params_golden_text():
    code, out, _ = run_cli("params", "--q", "3", "--l", "5", "--n", "3")
    assert code == 0
    assert out == "p = 3\nq = 3\nl = 5\nr = 4\na = 1\nh = 16\nn = 3\nm = 0\ne = 3"


def test_series_golden_text():
    code, out, _ = run_cli(
        "series", "--family", "Sp", "--rank", "1", "--q", "81", "--l", "5",
        "--theory", "cobordism", "--cutoff", "8", "--grading", "topological",
    )
    assert (code, out) == (0, "1, 0, 0, 0, 1, 0, 0, 0, 1")


def test_series_latex():
    code, out, _ = run_cli(
        "series", "--family", "Sp", "--rank", "1", "--q", "81", "--l", "5",
        "--theory", "cobordism", "--cutoff", "8", "--grading", "topological",
        "--format", "latex",
    )
    assert (code, out) == (0, "1 + t^4 + t^8 + O(t^{9})")


def test_compare_golden_text():
    code, out, _ = run_cli("compare", "--rank", "4", "--q", "3", "--l", "5")
    assert code == 0
    assert out.splitlines()[0] == "GL_4, q = 3, l = 5: equal"


# -- exit codes ---------------------------------------------------------------


def test_exit_2_for_even_l_in_chow():
    code, out, err = run_cli(
        "present", "--family", "GL", "--rank", "2", "--q", "3", "--l", "2",
        "--theory", "chow",
    )
    assert code == 2
    assert out == ""
    assert "l must be odd" in err


def test_exit_2_for_l_equal_p():
    code, _, err = run_cli("params", "--q", "25", "--l", "5")
    assert code == 2
    assert "characteristic" in err


def test_exit_2_for_torsion_prime():
    code, _, err = run_cli(
        "present", "--family", "Spin", "--rank", "3", "--q", "3", "--l", "2",
        "--theory", "cobordism",
    )
    assert code == 2
    assert "torsion" in err


def _degrees(document):
    return [g["algebraic_degree"] for g in json.loads(document)["generators"]]


@pytest.mark.xfail(
    strict=True,
    reason="the registry's Spin row gives the torsion prime 2 at every rank, "
    "but Spin_3 and Spin_5 have torsion-free cohomology",
)
@pytest.mark.parametrize("rank, family, twin_rank", [(1, "SL", 1), (2, "Sp", 2)])
def test_spin_below_rank_3_has_no_2_torsion(rank, family, twin_rank):
    # Spin_3 = SL_2 and Spin_5 = Sp_4, so l = 2 is no torsion prime of either
    rest = ("--q", "3", "--l", "2", "--theory", "cobordism", "--format", "json")
    code, out, err = run_cli("present", "--family", "Spin", "--rank", str(rank), *rest)
    assert (code, err) == (0, "")
    _, twin, _ = run_cli("present", "--family", family, "--rank", str(twin_rank), *rest)
    assert _degrees(out) == _degrees(twin)


def test_exit_2_for_missing_roots_of_unity():
    code, _, err = run_cli(
        "present", "--family", "GL", "--rank", "2", "--q", "11", "--l", "5",
        "--theory", "chow", "--b", "2",
    )
    assert code == 2
    assert "roots of unity" in err


def test_exit_1_for_bad_inputs():
    code, _, err = run_cli("params", "--q", "12", "--l", "5")
    assert code == 1 and "prime power" in err
    code, _, err = run_cli("params", "--q", "9", "--l", "5", "--p", "5")
    assert code == 1 and "is not a power of p" in err
    code, _, err = run_cli(
        "present", "--family", "SU", "--rank", "2", "--q", "3", "--l", "5",
        "--theory", "cobordism",
    )
    assert code == 1 and "unknown family" in err
    code, _, err = run_cli(
        "present", "--family", "Sp", "--rank", "2", "--q", "3", "--l", "5",
        "--theory", "chow",
    )
    assert (code, err) == (1, "input error: chow presentations are available for the GL family only")
    code, _, err = run_cli(
        "present", "--family", "Sp", "--rank", "2", "--q", "3", "--l", "5",
        "--theory", "cobordism", "--b", "2",
    )
    assert (code, err) == (1, "input error: --b is meaningful for the chow theory only")


@pytest.mark.parametrize(
    "q, l, code, err",
    [
        (12, 2, 1, "input error: 12 is not a prime power"),
        (2, 2, 2, "hypothesis violated: l = p = 2: "
                  "the coefficient prime must differ from the field characteristic"),
    ],
)
def test_present_chow_and_compare_refuse_alike(q, l, code, err):
    field = ("--q", str(q), "--l", str(l))
    assert run_cli("present", "--family", "GL", "--rank", "3", *field, "--theory", "chow") == (
        code, "", err
    )
    assert run_cli("compare", "--rank", "3", *field) == (code, "", err)


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_present_refuses_a_negative_cutoff_in_every_format(fmt):
    argv = ["present", "--family", "GL", "--rank", "2", "--q", "3", "--l", "5",
            "--theory", "chow", "--format", fmt]
    assert run_cli(*argv, "--cutoff", "-1") == (1, "", "input error: cutoff must be >= 0, got -1")
    code, out, err = run_cli(*argv, "--cutoff", "0")
    assert (code, err) == (0, "") and out


def test_present_latex_computes_no_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("the latex form prints no series")

    monkeypatch.setattr(cli.presentations, "poincare_series", no_series)
    code, out, err = run_cli(
        "present", "--family", "GL", "--rank", "2", "--q", "3", "--l", "5",
        "--theory", "chow", "--format", "latex", "--cutoff", "8",
    )
    assert (code, err) == (0, "") and out.startswith("\\mathbb{Z}/5")


@pytest.fixture
def set_digit_limit():
    """sys.set_int_max_str_digits, with the limit restored afterwards."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_params_refuses_an_h_too_long_to_print(fmt, set_digit_limit):
    set_digit_limit(4300)
    start = time.perf_counter()
    code, out, err = run_cli("params", "--q", "3", "--l", "1000003", "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "resource limit: h has 159035 decimal digits, more than this interpreter prints "
        "(limit 4300)"
    )


def test_params_refuses_exactly_from_ten_to_the_limit(set_digit_limit):
    # h has 640 digits for (q, l) = (7, 761) and 641 for (2, 2141); 640 is
    # the smallest limit CPython accepts, and 0 means no limit
    set_digit_limit(640)
    code, out, _ = run_cli("params", "--q", "7", "--l", "761", "--format", "json")
    assert code == 0 and len(str(json.loads(out)["h"])) == 640
    code, _, err = run_cli("params", "--q", "2", "--l", "2141")
    assert code == 1 and err.startswith("resource limit: h has 641 decimal digits")
    set_digit_limit(0)
    code, out, _ = run_cli("params", "--q", "2", "--l", "2141")
    assert code == 0 and len(out.splitlines()[5]) == len("h = ") + 641


# q and its characteristic
_FIELDS = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}


def _params_near(limit):
    """(params, digits of h) for every q of _FIELDS and odd prime l < 5000
    where q^r has within a fifth of limit digits; call with no limit in force."""
    near = []
    for l in filter(is_prime, range(3, 5000, 2)):
        for q, p in _FIELDS.items():
            if p != l:
                params = galois_params(p, q, l)
                if abs(params.r * math.log10(q) - limit) <= limit / 5:
                    near.append((params, len(str(params.h))))
    return near


@pytest.mark.parametrize("limit", [640, 1000])
def test_params_refuses_exactly_the_h_over_the_limit(limit, set_digit_limit):
    set_digit_limit(0)
    near = _params_near(limit)
    # the sweep straddles the limit, and holds an h under it that the
    # bit-length bound does not clear, so that the logarithm decides
    assert {digits > limit for _, digits in near} == {False, True}
    assert any(
        digits <= limit and 1000 * params.r * params.q.bit_length() > 3321 * limit
        for params, digits in near
    )
    set_digit_limit(limit)
    for params, digits in near:
        code, out, err = run_cli("params", "--q", str(params.q), "--l", str(params.l))
        if digits > limit:
            assert (code, out, err) == (1, "", (
                f"resource limit: h has {digits} decimal digits, more than this "
                f"interpreter prints (limit {limit})"
            ))
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[5] == f"h = {params.h}"


def test_params_skips_the_logarithm_for_a_short_h(monkeypatch):
    def no_logarithm(self):
        raise AssertionError("h_digits called")

    monkeypatch.setattr(GaloisParams, "h_digits", no_logarithm)
    code, out, _ = run_cli("params", "--q", "3", "--l", "10007", "--format", "json")
    assert code == 0 and json.loads(out)["r"] == 5003


def test_params_with_a_large_prime_q_is_fast():
    start = time.perf_counter()
    code, out, _ = run_cli("params", "--q", "1000000000000000003", "--l", "5")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[:4] == [
        "p = 1000000000000000003", "q = 1000000000000000003", "l = 5", "r = 4"
    ]


def test_base_beyond_exact_primality_exits_1():
    code, out, err = run_cli("params", "--q", str(10**25 + 13), "--l", "5")
    assert (code, out) == (1, "")
    assert err.startswith("input error:") and "3.317e24" in err


def test_a_rank_past_the_address_space_exits_1():
    code, out, err = run_cli(
        "present", "--family", "GL", "--rank", str(2**63), "--q", "4", "--l", "5",
        "--theory", "cobordism",
    )
    assert (code, out) == (1, "")
    assert err.startswith("resource limit: GL rank 9223372036854775808:") and "\n" not in err


@pytest.mark.parametrize("argv", [
    ("present", "--family", "GL", "--rank", "2", "--q", "2", "--theory", "cobordism"),
    ("params", "--q", "2"),
    ("params", "--q", "2", "--format", "json"),
])
def test_l_beyond_exact_primality_exits_1(argv):
    # 1287836182261 * 2575672364521, a strong pseudoprime to all 13 witnesses
    code, out, err = run_cli(*argv, "--l", "3317044064679887385961981")
    assert (code, out) == (1, "")
    assert err == (
        "input error: cannot tell whether l = 3317044064679887385961981 is prime: "
        "it is not below 3.317e24, the bound up to which the primality test is exact"
    )


def test_usage_errors_exit_1(capsys):
    assert main(["present", "--family", "Sp"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["nonsense"]) == 1


def test_run_refuses_an_unknown_subcommand():
    request = argparse.Namespace(subcommand="nonsense")
    assert run(request) == (1, "", "usage error: unknown subcommand 'nonsense'")


# more digits than int() converts by default (4300), so int() raises ValueError
_DIGITS_5000 = "9" * 5000


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["params", "--q", "\u0663", "--l", "5"], "--q", "\u0663"),  # Arabic-Indic three
        (["params", "--q", "1_1", "--l", "5"], "--q", "1_1"),
        (["params", "--q", "+3", "--l", "5"], "--q", "+3"),
        (["params", "--q", "3", "--l", "1_1"], "--l", "1_1"),
        (["params", "--q", "3", "--l", " 5"], "--l", " 5"),
        (["params", "--q", "3", "--l", "5", "--n", "\u0662"], "--n", "\u0662"),
        (["present", "--family", "GL", "--rank", "\u0662", "--q", "3", "--l", "5",
          "--theory", "chow"], "--rank", "\u0662"),
        (["series", "--family", "GL", "--rank", "2", "--q", "3", "--l", "5", "--theory", "chow",
          "--cutoff", "1_0"], "--cutoff", "1_0"),
        (["compare", "--rank", "+4", "--q", "3", "--l", "5"], "--rank", "+4"),
        (["verify", "--cutoff", "-\u0661"], "--cutoff", "-\u0661"),
        (["params", "--q", "abc", "--l", "5"], "--q", "abc"),
        pytest.param(["params", "--q", _DIGITS_5000, "--l", "5"], "--q", _DIGITS_5000,
                     id="q-past-the-int-digit-limit"),
    ],
)
def test_integer_options_read_ascii_digits_only(argv, flag, value, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"usage error: argument {flag}: invalid int value: {value!r}\n"
    )


def test_main_routes_streams(capsys):
    assert main(["params", "--q", "3", "--l", "5"]) == 0
    captured = capsys.readouterr()
    assert "r = 4" in captured.out and captured.err == ""
    assert main(["params", "--q", "25", "--l", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "hypothesis violated" in captured.err


# -- json output and round trips ------------------------------------------------


def test_present_json_round_trip():
    code, out, _ = run_cli(
        "present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5",
        "--theory", "cobordism", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    pres = presentation_from_json_dict(payload)
    assert pres.named_degrees == ((4, "q_2"), (8, "q_4"))

    from chevring.arith import galois_params
    from chevring.presentations import cobordism_presentation
    from chevring.rootdata import lookup

    direct = cobordism_presentation(lookup("Sp", 4), galois_params(3, 3, 5))
    assert pres == direct


def test_present_json_with_series():
    code, out, _ = run_cli(
        "present", "--family", "GL", "--rank", "4", "--q", "3", "--l", "5",
        "--theory", "chow", "--format", "json", "--cutoff", "8",
    )
    payload = json.loads(out)
    assert payload["series"]["coefficients"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert payload["series"]["grading"] == "chow"


def test_compare_json_round_trip():
    code, out, _ = run_cli("compare", "--rank", "4", "--q", "3", "--l", "5", "--format", "json")
    report = comparison_from_json_dict(json.loads(out))
    assert report.equal and report.params.m == 1


def test_params_json():
    code, out, _ = run_cli("params", "--q", "3", "--l", "5", "--format", "json")
    payload = json.loads(out)
    assert (payload["r"], payload["a"], payload["h"]) == (4, 1, 16)


# -- determinism ----------------------------------------------------------------


def test_identical_requests_render_identically():
    args = (
        "present", "--family", "Sp", "--rank", "6", "--q", "27", "--l", "5",
        "--theory", "cobordism", "--format", "json",
    )
    assert run_cli(*args) == run_cli(*args)
    args = ("verify", "--primes", "3", "--max-weight-len", "2", "--cutoff", "4")
    assert run_cli(*args) == run_cli(*args)


# -- the shared parser ------------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """The process's parser cleared before and after, so that the test builds it."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


_ONE_OF_EACH = [
    ("params", "--q", "3", "--l", "5", "--n", "3"),
    ("present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5", "--theory", "chow"),
    ("series", "--family", "GL", "--rank", "2", "--q", "4", "--l", "3", "--theory", "chow",
     "--cutoff", "6", "--format", "json"),
    ("compare", "--rank", "4", "--q", "3", "--l", "5"),
    ("verify", "--primes", "3,5", "--cutoff", "4"),
]


def test_the_parser_is_built_once_per_process(fresh_parser, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    for i in range(50):
        parse_args(list(_ONE_OF_EACH[i % len(_ONE_OF_EACH)]))
    # one root parser, and the five subcommand parsers it makes in its build
    assert built == ["chevring"] + [f"chevring {argv[0]}" for argv in _ONE_OF_EACH]


def test_a_reused_parser_parses_as_a_new_one(fresh_parser):
    params = _ONE_OF_EACH[0]
    parse_args(list(_ONE_OF_EACH[1]))
    request = vars(parse_args(list(params)))
    assert "theory" not in request and "family" not in request
    assert request == vars(build_parser.__wrapped__().parse_args(params))


def test_a_refused_parse_leaves_the_next_one_correct(fresh_parser):
    with pytest.raises(UsageError):
        parse_args(["present", "--family", "Sp", "--rank", "4", "--theory", "bogus"])
    with pytest.raises(UsageError):
        parse_args(["verify", "--cutoff", "x"])
    for argv in _ONE_OF_EACH[:4]:
        assert vars(parse_args(list(argv))) == vars(build_parser.__wrapped__().parse_args(argv))
    assert parse_args(["verify"]).cutoff is None


def parse_outcome(parse, argv):
    """What parse(argv) gives: a Namespace, a UsageError's text, or the code
    of a SystemExit (help) with what it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "parsed", vars(parse(list(argv)))
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def two_pass_outcome(argv):
    return parse_outcome(build_parser().parse_args, argv)


def one_pass_outcome(argv):
    return parse_outcome(cli._parse, argv)


_GOLDEN_ARGV = [
    record["argv"]
    for record in json.loads(Path(__file__).with_name("cli_golden.json").read_text())
]


@pytest.mark.parametrize(
    "argv",
    _GOLDEN_ARGV + [
        [], ["nonsense"], ["nonsense", "--q", "3"], ["-h"], ["--help"], ["--q", "3"],
        ["param"], ["PARAMS", "--q", "3"], ["present", "-h"], ["verify", "--help"],
        ["params", "--q", "3", "--l", "5", "--he"], ["params"], ["compare", "--rank"],
        ["params", "--q", "3", "--l", "5", "--bogus"], ["params", "--q=3", "--l=5"],
        ["series", "--family", "GL", "--rank", "2", "--q", "3", "--l", "5", "--theory", "x"],
    ],
)
def test_one_argparse_pass_parses_as_two(argv):
    assert one_pass_outcome(argv) == two_pass_outcome(argv)


def test_the_one_pass_runs_only_the_subcommand_parser(monkeypatch):
    root = build_parser()
    monkeypatch.setattr(root, "parse_known_args", None)  # fails if called
    assert cli._parse(list(_ONE_OF_EACH[0])).subcommand == "params"
    with pytest.raises(TypeError):
        cli._parse(["nonsense"])


# one request of each (command, format) pair, in the shapes of the `queries`
# workload of perfbench/: the required options with others, in its order
_PAIRS = [
    ("params", "--q", "3", "--l", "5", "--format", "text"),
    ("params", "--n", "7", "--q", "9", "--l", "7", "--format", "json"),
    ("present", "--family", "GL", "--rank", "3", "--theory", "chow", "--q", "4", "--l", "3",
     "--format", "text"),
    ("present", "--family", "Sp", "--rank", "4", "--theory", "cobordism", "--cutoff", "8",
     "--grading", "chow", "--q", "3", "--l", "5", "--format", "json"),
    ("present", "--family", "E8", "--rank", "8", "--theory", "cobordism", "--q", "11",
     "--l", "7", "--format", "latex"),
    ("series", "--family", "GL", "--rank", "5", "--theory", "chow", "--cutoff", "12",
     "--q", "7", "--l", "3", "--format", "text"),
    ("series", "--family", "SO_odd", "--rank", "3", "--theory", "cobordism", "--cutoff", "9",
     "--grading", "topological", "--q", "8", "--l", "5", "--format", "json"),
    ("series", "--family", "G2", "--rank", "2", "--theory", "cobordism", "--cutoff", "10",
     "--q", "5", "--l", "13", "--format", "latex"),
    ("compare", "--rank", "4", "--q", "3", "--l", "5", "--format", "text"),
    ("compare", "--rank", "6", "--q", "16", "--l", "5", "--format", "json"),
]


def test_a_well_formed_request_runs_no_argparse_pass(fresh_parser, monkeypatch):
    for sub in build_parser().subcommands.values():
        monkeypatch.setattr(sub, "parse_known_args", None)  # fails if called
    for argv in _ONE_OF_EACH + _PAIRS:
        request = vars(cli._parse(list(argv)))
        assert request == vars(build_parser.__wrapped__().parse_args(argv))
    with pytest.raises(TypeError):
        cli._parse(["params", "--q=3", "--l=5"])


def test_the_env_variable_limit_is_read_on_every_request(fresh_parser, monkeypatch):
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", "10")
    assert parse_args(["verify"]).monomial_limit == 10
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", "20000")
    assert parse_args(["verify"]).monomial_limit == 20000
    monkeypatch.delenv("CHEVRING_MONOMIAL_LIMIT")
    assert parse_args(["verify"]).monomial_limit is None


# -- verify -----------------------------------------------------------------------


def test_verify_small_sweep_passes():
    code, out, err = run_cli(
        "verify", "--primes", "3,5", "--max-weight-len", "2", "--max-weight-entry", "3",
        "--cutoff", "6", "--max-m", "2", "--sp-max-rank", "2",
    )
    assert (code, err) == (0, "")
    assert out.endswith("all clauses passed")
    assert "registry-invariants: PASS" in out


def test_verify_json_summary():
    code, out, _ = run_cli(
        "verify", "--primes", "3", "--max-weight-len", "1", "--max-weight-entry", "2",
        "--cutoff", "4", "--max-m", "1", "--sp-max-rank", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verification-summary"
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["clauses"])
    names = [c["name"] for c in payload["clauses"]]
    assert names == [
        "registry-invariants",
        "coinvariants-oracle-vs-closed-form",
        "invariants-oracle-vs-closed-form",
        "restricted-chern-class",
        "cobordism-oracle-vs-presentation",
        "gl-chow-oracle-vs-presentation",
    ]


def test_verify_monomial_limit_resource_error():
    code, out, err = run_cli("verify", "--monomial-limit", "10")
    assert code == 1
    assert out == ""
    assert "resource limit" in err and "degree" in err


def test_verify_env_variable_limit(monkeypatch, capsys):
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", "10")
    code, _, err = run_cli("verify", "--primes", "3")
    assert code == 1 and "resource limit" in err
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", "not-a-number")
    with pytest.raises(UsageError):
        parse_args(["verify"])
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", "-3")
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: monomial_limit must be >= 1, got -3\n")
    # the flag takes precedence over the variable
    assert parse_args(["verify", "--monomial-limit", "7"]).monomial_limit == 7


@pytest.mark.parametrize(
    "flag", ["--max-m", "--max-weight-len", "--max-weight-entry", "--sp-max-rank", "--cutoff"]
)
def test_verify_refuses_a_negative_sweep_size(flag, capsys):
    assert main(["verify", flag, "-1"]) == 1
    captured = capsys.readouterr()
    field = flag[2:].replace("-", "_")
    assert (captured.out, captured.err) == ("", f"input error: {field} must be >= 0, got -1\n")


def test_verify_sweep_sizes_of_zero_skip_their_clauses():
    code, out, err = run_cli(
        "verify", "--primes", "3", "--max-m", "0", "--max-weight-len", "0",
        "--max-weight-entry", "0", "--sp-max-rank", "0",
    )
    assert (code, err) == (0, "")
    for clause in (
        "coinvariants-oracle-vs-closed-form", "invariants-oracle-vs-closed-form",
        "restricted-chern-class", "cobordism-oracle-vs-presentation",
        "gl-chow-oracle-vs-presentation",
    ):
        assert f"{clause}: PASS (0 instances)" in out.splitlines()


@pytest.mark.parametrize(
    "primes, l", [("0", 0), ("1", 1), ("1,1", 1), ("4", 4), ("3,9", 9), ("3,3,4", 4)]
)
def test_verify_refuses_a_non_prime_before_any_clause(primes, l, capsys):
    assert main(["verify", "--primes", primes]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: l = {l} is not prime\n")


@pytest.mark.parametrize(
    "primes",
    ["\u0663", "3,1_1", "+3", "3, \u0665", "3,,5", "",
     pytest.param("3," + _DIGITS_5000, id="past-the-int-digit-limit")],
)
def test_verify_primes_read_ascii_digits_only(primes, capsys):
    assert main(["verify", "--primes", primes]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"usage error: --primes must be a comma-separated integer list, got {primes!r}\n"
    )
    assert parse_args(["verify", "--primes", " 3, 5 "]).primes == (3, 5)


@pytest.mark.parametrize(
    "raw", ["\u0663", "1_000", "+3", " 3", pytest.param(_DIGITS_5000, id="past-the-int-digit-limit")]
)
def test_the_env_variable_limit_reads_ascii_digits_only(raw, monkeypatch, capsys):
    monkeypatch.setenv("CHEVRING_MONOMIAL_LIMIT", raw)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"usage error: CHEVRING_MONOMIAL_LIMIT must be an integer, got {raw!r}\n"
    )


@pytest.mark.parametrize("primes, l", [("3,3", 3), ("5,3,5", 5), ("7,07", 7)])
def test_verify_refuses_a_repeated_prime_before_any_clause(primes, l, capsys):
    assert main(["verify", "--primes", primes]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: l = {l} is repeated in --primes\n")


@pytest.mark.parametrize("limit", ["-3", "0"])
def test_verify_refuses_a_monomial_limit_below_1_when_no_sweep_uses_it(limit, capsys):
    argv = ["verify", "--monomial-limit", limit, "--max-m", "0", "--max-weight-len", "0",
            "--sp-max-rank", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"input error: monomial_limit must be >= 1, got {limit}\n"
    )


@pytest.fixture
def broken_oracles(monkeypatch):
    """Make every verify clause but the registry's fail: the engine's r | d
    rule keeps every degree, which both closed forms, the cobordism
    presentation and the comparison read, and the restricted Chern check
    fails at l = 5 only.  Each clause passes at r = 1, so a first witness is
    not always the first instance."""
    from chevring import presentations

    def report(passed):
        return oracles.VerificationReport((), (oracles.Clause("forced", passed),))

    monkeypatch.setattr(
        presentations, "_divisible_degrees", lambda degrees, r: list(enumerate(degrees, start=1))
    )
    monkeypatch.setattr(oracles, "verify_restricted_chern", lambda m, params: report(params.l != 5))


FAILING_SWEEP = (
    "verify", "--primes", "3,5", "--max-weight-len", "1", "--max-weight-entry", "2",
    "--cutoff", "4", "--max-m", "1", "--sp-max-rank", "1",
)
FAILING_CLAUSES = [
    ("registry-invariants", True, 77, None),
    ("coinvariants-oracle-vs-closed-form", False, 10,
     "weights (1,), l = 3, q = 2: 1, 0, 0, 0, 0 != 1, 1, 1, 1, 1"),
    ("invariants-oracle-vs-closed-form", False, 5,
     "m = 1, l = 3, q = 2: 1, 0, 1, 0, 1 != 1, 1, 2, 2, 3"),
    ("restricted-chern-class", False, 5, "m = 1, q = 11, l = 5: forced"),
    ("cobordism-oracle-vs-presentation", False, 44,
     "GL rank 1, q = 2, l = 3: 1, 0, 0, 0, 0 != 1, 1, 1, 1, 1"),
    ("gl-chow-oracle-vs-presentation", False, 10,
     "GL rank 1, q = 2, l = 3: compare finds the Chow and cobordism degrees unequal"),
]


def test_verify_reports_every_failing_clause_in_text(broken_oracles):
    code, out, err = run_cli(*FAILING_SWEEP)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "registry-invariants: PASS (77 instances)",
        "coinvariants-oracle-vs-closed-form: FAIL (10 instances) "
        "[weights (1,), l = 3, q = 2: 1, 0, 0, 0, 0 != 1, 1, 1, 1, 1]",
        "invariants-oracle-vs-closed-form: FAIL (5 instances) "
        "[m = 1, l = 3, q = 2: 1, 0, 1, 0, 1 != 1, 1, 2, 2, 3]",
        "restricted-chern-class: FAIL (5 instances) [m = 1, q = 11, l = 5: forced]",
        "cobordism-oracle-vs-presentation: FAIL (44 instances) "
        "[GL rank 1, q = 2, l = 3: 1, 0, 0, 0, 0 != 1, 1, 1, 1, 1]",
        "gl-chow-oracle-vs-presentation: FAIL (10 instances) "
        "[GL rank 1, q = 2, l = 3: compare finds the Chow and cobordism degrees unequal]",
        "SOME CLAUSES FAILED",
    ]


def test_verify_reports_every_failing_clause_in_json(broken_oracles):
    code, out, err = run_cli(*FAILING_SWEEP, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "schema_version": 1,
        "kind": "verification-summary",
        "passed": False,
        "clauses": [
            {"name": name, "passed": passed, "instances": instances, "witness": witness}
            for name, passed, instances, witness in FAILING_CLAUSES
        ],
    }


def _rows(clauses):
    return [(c.name, c.passed, c.instances, c.witness) for c in clauses]


def test_the_library_sweep_gives_the_clauses_of_the_cli(monkeypatch):
    monkeypatch.delenv("CHEVRING_MONOMIAL_LIMIT", raising=False)
    code, out, _ = run_cli("verify", "--format", "json")
    assert code == 0
    expected = [tuple(c.values()) for c in json.loads(out)["clauses"]]
    assert _rows(verify.run(verify.Sweep())) == expected


def test_the_library_sweep_reads_the_oracles_at_call_time(broken_oracles):
    sweep = verify.Sweep(
        primes=(3, 5), max_weight_len=1, max_weight_entry=2, cutoff=4, max_m=1, sp_max_rank=1
    )
    assert _rows(verify.run(sweep)) == FAILING_CLAUSES


def test_the_verify_defaults_are_the_sweep_defaults(fresh_parser, monkeypatch):
    monkeypatch.delenv("CHEVRING_MONOMIAL_LIMIT", raising=False)
    request = parse_args(["verify"])
    assert [getattr(request, name) for name in verify.Sweep._fields] == [None] * 7
    sweeps = []
    monkeypatch.setattr(verify, "run", lambda sweep: sweeps.append(sweep) or ())
    assert run(request) == (0, "all clauses passed", "")
    assert sweeps == [verify.Sweep()]


def test_the_field_table_has_a_prime_field_of_each_order():
    table = verify._field_table(verify.Sweep(primes=(13,)))
    assert [(p.p, p.q, p.l, p.r) for p in table] == [
        (53, 53, 13, 1), (103, 103, 13, 2), (3, 3, 13, 3), (5, 5, 13, 4), (17, 17, 13, 6),
        (2, 2, 13, 12),
    ]
    assert len(verify._field_table(verify.Sweep())) == 19


def test_a_run_finds_the_residues_of_each_prime_once(monkeypatch):
    calls = []
    original = verify.residues_one_per_order
    monkeypatch.setattr(verify, "residues_one_per_order", lambda l: calls.append(l) or original(l))
    verify.run(verify.Sweep(primes=(3, 5), max_weight_len=1, cutoff=2, sp_max_rank=1))
    assert calls == [3, 5]


def test_a_sweep_checks_its_primes():
    with pytest.raises(InputError, match="^l = 3 is repeated in --primes$"):
        verify.Sweep(primes=(3, 3))
    with pytest.raises(InputError, match="^l = 4 is not prime$"):
        verify.Sweep(primes=(4,))
    assert verify.Sweep(primes=[3, 5]) == verify.Sweep(primes=(3, 5))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"max_weight_entry": -1}, "max_weight_entry must be >= 0, got -1"),
        ({"max_weight_len": -2}, "max_weight_len must be >= 0, got -2"),
        ({"max_m": -1}, "max_m must be >= 0, got -1"),
        ({"cutoff": -3}, "cutoff must be >= 0, got -3"),
        ({"sp_max_rank": -5}, "sp_max_rank must be >= 0, got -5"),
        ({"monomial_limit": 0}, "monomial_limit must be >= 1, got 0"),
        ({"monomial_limit": -3}, "monomial_limit must be >= 1, got -3"),
        ({"primes": ()}, "primes must not be empty"),
        # the first negative size, in field order, is named
        ({"primes": (3,), "max_m": -1, "sp_max_rank": -5}, "max_m must be >= 0, got -1"),
    ],
)
def test_a_sweep_checks_its_sizes(changes, message):
    with pytest.raises(InputError) as excinfo:
        verify.Sweep(**changes)
    assert str(excinfo.value) == message


def test_a_sweep_of_zero_sizes_runs_only_the_size_free_clauses():
    sweep = verify.Sweep(
        primes=(3,), max_weight_entry=0, max_weight_len=0, max_m=0, cutoff=0, sp_max_rank=0,
        monomial_limit=1,
    )
    counts = {c.name: c.instances for c in verify.run(sweep) if c.passed}
    assert counts == {
        "registry-invariants": 77,
        "coinvariants-oracle-vs-closed-form": 0,
        "invariants-oracle-vs-closed-form": 0,
        "restricted-chern-class": 0,
        "cobordism-oracle-vs-presentation": 0,
        "gl-chow-oracle-vs-presentation": 0,
    }


def test_a_sweep_to_m_19_passes_every_clause():
    # the restricted Chern clause reads one block of r + 1 coefficients per
    # field, so m = 19 forms no product of 2^19 terms
    clauses = verify.run(verify.Sweep(primes=(13,), max_m=19, cutoff=2))
    assert [(c.name, c.passed) for c in clauses] == [(name, True) for name, _ in verify.CLAUSES]
    # six fields of l = 13, each at m = 1..19
    assert clauses[3].instances == 6 * 19


def test_the_chern_block_is_formed_as_often_at_m_19_as_at_m_1(monkeypatch):
    # the restricted Chern verdict is the same at every m, so the clause
    # forms each field's block once, whatever max_m is
    original, calls = oracles._chern_block, []

    def counted(q, r, l):
        calls.append((q, r, l))
        return original(q, r, l)

    monkeypatch.setattr(oracles, "_chern_block", counted)
    counts = []
    for max_m in (1, 19):
        calls.clear()
        verify.run(verify.Sweep(primes=(13,), max_m=max_m, cutoff=2))
        counts.append(len(calls))
    # six fields of l = 13, one per order r | 12
    assert counts == [6, 6]


def test_verify_at_l_2_skips_the_checks_stated_for_odd_l():
    # l = 2 has one order, r = 1, at q = 3; the l-part of the group order and
    # the GL Chow clause are checked for odd l only
    code, out, err = run_cli("verify", "--primes", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "registry-invariants: PASS (77 instances)",
        "coinvariants-oracle-vs-closed-form: PASS (34 instances)",
        "invariants-oracle-vs-closed-form: PASS (2 instances)",
        "restricted-chern-class: PASS (2 instances)",
        "cobordism-oracle-vs-presentation: PASS (12 instances)",
        "gl-chow-oracle-vs-presentation: PASS (0 instances)",
        "all clauses passed",
    ]


# -- dependencies -------------------------------------------------------------------

def _modules_loaded_by(code):
    """The modules a fresh interpreter loads to run code, diffed against the
    modules it had loaded before, since site hooks load some of their own
    first."""
    probe = "import sys\nbefore = set(sys.modules)\n" + code + (
        "\nprint('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chevring.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# dataclasses and the inspect module it imports (with ast, dis and tokenize)
# took longer to load than the rest of `import chevring.rootdata` together
_SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def test_cli_imports_only_the_standard_library():
    loaded = _modules_loaded_by("""
from chevring.cli import parse_args, run
for code, argv in [
    (0, ["verify", "--primes", "3", "--max-weight-len", "1", "--cutoff", "4"]),
    (0, ["params", "--q", "3", "--l", "5"]),
    (1, ["params", "--q", "3", "--l", "1000003"]),
    (0, ["present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5",
         "--theory", "cobordism", "--format", "latex"]),
]:
    assert run(parse_args(argv))[0] == code, argv
""")
    assert "chevring.cli" in loaded
    outside = [
        name for name in loaded
        if name.partition(".")[0] not in {"chevring", *sys.stdlib_module_names}
    ]
    assert outside == []
    assert _SLOW_TO_IMPORT.isdisjoint(loaded)


def test_a_module_loads_only_its_own_imports():
    def ours(code):
        return {name for name in _modules_loaded_by(code) if name.partition(".")[0] == "chevring"}

    loaded = _modules_loaded_by("import chevring.rootdata\nchevring.rootdata.default_registry()")
    registry = {name for name in loaded if name.partition(".")[0] == "chevring"}
    assert registry == {"chevring", "chevring.errors", "chevring.arith", "chevring.rootdata"}
    assert _SLOW_TO_IMPORT.isdisjoint(loaded)
    assert ours("import chevring") == {"chevring"}
    assert ours("import chevring\nassert not hasattr(chevring, 'no_such_name')") == {"chevring"}
    everything = ours("from chevring import *\nimport chevring\n"
                      "assert all(name in globals() for name in chevring.__all__)")
    assert "chevring.poly" in everything and "chevring.cli" not in everything
    requests = """
from chevring import cli
for argv in [
    ["params", "--q", "3", "--l", "5"],
    ["present", "--family", "Sp", "--rank", "4", "--q", "3", "--l", "5", "--theory", "cobordism"],
    ["series", "--family", "GL", "--rank", "4", "--q", "4", "--l", "3", "--theory", "chow",
     "--cutoff", "12"],
    ["compare", "--rank", "4", "--q", "3", "--l", "5"],
]:
    assert cli.run(cli.parse_args(argv))[0] == 0, argv
"""
    assert ours(requests) == {
        "chevring", "chevring.errors", "chevring.arith", "chevring.poly", "chevring.rootdata",
        "chevring.presentations", "chevring.cli",
    }
    sweep = 'assert cli.run(cli.parse_args(["verify", "--primes", "3", "--cutoff", "2"]))[0] == 0'
    assert {"chevring.verify", "chevring.oracles"} <= ours(requests + sweep)


def test_a_closed_pipe_ends_without_a_traceback():
    # a quarter of a megabyte in 12520 lines, far more than a pipe holds, so
    # the writer is still writing when the reader goes away after one line
    env = dict(os.environ, PYTHONPATH=str(Path(chevring.__file__).parents[1]))
    argv = [
        "present", "--family", "Sp", "--rank", "5000", "--q", "3", "--l", "5",
        "--theory", "cobordism", "--format", "json",
    ]
    with subprocess.Popen(
        [sys.executable, "-m", "chevring.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")
