"""The CLI against reference behaviour, driven by hypothesis: the indented
JSON writer against `json.dumps(value, indent=2)` over nested documents of
every scalar it encodes, and the one-pass argument parse against argparse's
two passes over drawn command lines.

hypothesis is a test-only dependency (the `test` extra); the module is
skipped where it is missing.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.cli import _json  # noqa: E402
from test_cli import one_pass_outcome, two_pass_outcome  # noqa: E402

# non-ASCII (including astral), quotes, backslashes and control characters
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\n\t '))
LEAVES = (
    TEXT
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-1)
    | st.booleans()
    | st.none()
    | st.floats()
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
@example([])
@example({})
@example({"": [[], {}, [{}]], "a": {"b": []}})
@example([float("nan"), float("inf"), -0.0, 1e300])
def test_the_writer_matches_the_indented_stdlib_encoder(value):
    assert _json(value) == json.dumps(value, indent=2)


@given(st.lists(st.integers() | TEXT, max_size=5).map(tuple))
def test_a_tuple_is_written_as_a_list(value):
    assert _json(value) == json.dumps(value, indent=2) == _json(list(value))


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [frozenset()], {"a": b"bytes"}, {1: "int key"}, {"a": {None: 1}}, {(1,): 2}],
)
def test_the_writer_refuses_what_is_not_a_json_value(value):
    with pytest.raises(TypeError):
        _json(value)


# Each subcommand's options with values it accepts, the required ones
# first.  BAD holds a value for every kind of refusal the parser makes: a bad
# choice, a non-ASCII or 1_1 integer, a word for an integer, a flag for a value.
_INT = st.integers(-3, 10**6).map(str)
_FAMILY = st.sampled_from(["GL", "Sp", "E8", "SU"])
_FORMATS = st.sampled_from(["text", "json"])
_PRESENTATION = {
    "--family": _FAMILY, "--rank": _INT, "--q": _INT, "--l": _INT,
    "--theory": st.sampled_from(["chow", "cobordism"]), "--p": _INT, "--b": _INT,
    "--grading": st.sampled_from(["chow", "topological"]),
    "--format": st.sampled_from(["text", "json", "latex"]), "--cutoff": _INT,
}
OPTIONS = {
    "params": ({"--q": _INT, "--l": _INT, "--p": _INT, "--n": _INT, "--format": _FORMATS}, 2),
    "present": (_PRESENTATION, 5),
    "series": ({"--cutoff": _INT, **_PRESENTATION}, 6),
    "compare": ({"--rank": _INT, "--q": _INT, "--l": _INT, "--p": _INT, "--format": _FORMATS}, 3),
    "verify": (
        {
            "--primes": st.sampled_from(["3", "3,5", "7,11,13", "x"]),
            **{flag: _INT for flag in ("--max-weight-len", "--max-weight-entry", "--cutoff",
                                       "--max-m", "--sp-max-rank", "--monomial-limit")},
            "--format": _FORMATS,
        },
        0,
    ),
}
BAD = st.sampled_from(["bogus", "LATEX", "1_1", "\u0663", "+3", "3.0", "", "-", "--", "--q"])
EXTRA = st.sampled_from(["--bogus", "-x", "--q=3", "--fam", "-h"])


@st.composite
def command_lines(draw):
    """A subcommand with its required options and some others, in any order;
    then at most two faults: a required option left out, a value from BAD,
    an unknown or malformed flag, a flag with no value, a repeated option,
    `--flag=value`, an abbreviated flag, the `--` separator, a flag for a
    value."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options, required = OPTIONS[command]
    flags = list(options)
    chosen = flags[:required] + draw(st.lists(st.sampled_from(flags[required:]), unique=True))
    chosen = draw(st.permutations(chosen))
    values = [draw(options[flag]) for flag in chosen]
    faults = ["drop", "bad", "extra", "bare", "repeat", "joined", "abbreviated", "separator",
              "flag value"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if fault == "drop" and chosen:
            i = draw(st.integers(0, len(chosen) - 1))
            del chosen[i], values[i]
        elif fault == "bad" and chosen:
            values[draw(st.integers(0, len(chosen) - 1))] = draw(BAD)
        elif fault == "extra":
            i = draw(st.integers(0, len(chosen)))
            chosen.insert(i, draw(EXTRA))
            values.insert(i, None)
        elif fault == "bare":
            chosen.append(draw(st.sampled_from(flags)))
            values.append(None)
        elif fault == "repeat":
            flag = draw(st.sampled_from(flags))
            chosen.append(flag)
            values.append(draw(options[flag]))
        elif fault == "joined" and chosen:
            i = draw(st.integers(0, len(chosen) - 1))
            if values[i] is not None:
                chosen[i], values[i] = f"{chosen[i]}={values[i]}", None
        elif fault == "abbreviated" and chosen:
            i = draw(st.integers(0, len(chosen) - 1))
            chosen[i] = chosen[i][: draw(st.integers(3, 5))]
        elif fault == "separator":
            i = draw(st.integers(0, len(chosen)))
            chosen.insert(i, "--")
            values.insert(i, None)
        elif fault == "flag value" and chosen:
            values[draw(st.integers(0, len(chosen) - 1))] = draw(st.sampled_from(flags))
    argv = [command]
    for flag, value in zip(chosen, values):
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["params", "--l", "5", "--q", "3"])
@example(["params", "--q", "3"])
@example(["present", "--family", "GL", "--rank", "2", "--q", "3", "--l", "5", "--theory", "x"])
@example(["params", "--q", "\u0663", "--l", "1_1"])
@example(["verify", "--cutoff", "1", "--bogus"])
@example(["compare", "--q", "3", "--l", "5", "--rank"])
@example(["params", "--q", "3", "--l", "5", "--q", "4"])
@example(["params", "--q=3", "--l", "5"])
@example(["present", "--fam", "GL", "--rank", "2", "--q", "3", "--l", "5", "--theory", "chow"])
@example(["params", "--q", "3", "--", "--l", "5"])
@example(["compare", "--rank", "--q", "--q", "3", "--l", "5"])
def test_one_argparse_pass_parses_drawn_command_lines_as_two(argv):
    assert one_pass_outcome(argv) == two_pass_outcome(argv)
