"""Command-line front end: argument parsing, rendering and the refusals only
it can make; the library computes every answer and makes every other refusal.

Subcommands: params, present, series, compare, verify.  Exit codes: 0 on
success, 1 on usage/input/resource errors, 2 when a mathematical hypothesis
of the requested computation fails (the diagnostic names the hypothesis).
The environment variable CHEVRING_MONOMIAL_LIMIT overrides the default
memory budget of the brute-force oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import presentations, rootdata
from .arith import GaloisParams, galois_params, gl_params, prime_power_base
from .errors import SCHEMA_VERSION, InputError, PreconditionError, ResourceLimitError, _integer


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


# how json.dumps writes each scalar type, by exact type: a bool is not an int
# here, and a subclass of any of these is refused
_ESCAPE = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    float: json.dumps,
}


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte.  With an indent the stdlib
    lays a document out in pure Python, one call per item; here each container
    is joined once, and a scalar item is encoded without a call of its own."""
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    inner = pad + "  "
    scalar = _SCALARS.get
    if type(value) in (list, tuple):
        items = [e(v) if (e := scalar(type(v))) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if type(value) is dict:
        items = []
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            e = scalar(type(v))
            items.append(_ESCAPE(k) + ": " + (e(v) if e else _json(v, inner)))
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _int(text: str) -> int:
    """ASCII digits with an optional minus sign; int() also reads 1_1, +3 and
    non-ASCII digits, and raises ValueError past its digit limit."""
    try:
        if text.isascii() and text.removeprefix("-").isdigit():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _monomial_limit(request: argparse.Namespace) -> int | None:
    """--monomial-limit, else CHEVRING_MONOMIAL_LIMIT, else None (the sweep's
    default); the variable is read on every call, never frozen into the parser."""
    raw = os.environ.get("CHEVRING_MONOMIAL_LIMIT")
    if request.monomial_limit is not None or raw is None:
        return request.monomial_limit
    try:
        return _int(raw)
    except argparse.ArgumentTypeError:
        raise UsageError(f"CHEVRING_MONOMIAL_LIMIT must be an integer, got {raw!r}")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: argparse leaves
    no state in it between parses, so every request reuses it.  Its
    `subcommands` attribute maps each subcommand to its parser."""
    parser = _Parser(prog="chevring", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    def add_field_args(p, with_group=True):
        if with_group:
            p.add_argument("--family", required=True, help="group family, e.g. GL, Sp, SO_odd")
            p.add_argument("--rank", required=True, type=_int)
        p.add_argument("--q", required=True, type=_int, help="field size (prime power)")
        p.add_argument("--l", required=True, type=_int, help="coefficient prime")
        p.add_argument("--p", type=_int, help="characteristic; inferred from q if omitted")

    def add_presentation_args(p):
        p.add_argument("--theory", choices=("cobordism", "chow"), required=True)
        p.add_argument("--b", type=_int, default=1, help="coefficient exponent (chow only)")
        p.add_argument("--grading", choices=("chow", "topological"))
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p_params = sub.add_parser("params", help="show the arithmetic tuple (p, q, l, r, a, h)")
    add_field_args(p_params, with_group=False)
    p_params.add_argument("--n", type=_int, help="also show the long division n = r*m + e")
    p_params.add_argument("--format", choices=("text", "json"), default="text")

    p_present = sub.add_parser("present", help="print a ring presentation")
    add_field_args(p_present)
    add_presentation_args(p_present)
    p_present.add_argument("--cutoff", type=_int, help="also compute the Poincare series up to this degree")

    p_series = sub.add_parser("series", help="Poincare series of a presentation")
    add_field_args(p_series)
    add_presentation_args(p_series)
    p_series.add_argument("--cutoff", type=_int, required=True)

    p_compare = sub.add_parser("compare", help="compare the GL chow and cobordism presentations")
    add_field_args(p_compare, with_group=False)
    p_compare.add_argument("--rank", required=True, type=_int)
    p_compare.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the built-in verification sweeps")
    p_verify.add_argument("--primes")
    p_verify.add_argument("--max-weight-entry", type=_int)
    p_verify.add_argument("--max-weight-len", type=_int)
    p_verify.add_argument("--max-m", type=_int)
    p_verify.add_argument("--cutoff", type=_int)
    p_verify.add_argument("--sp-max-rank", type=_int)
    p_verify.add_argument("--monomial-limit", type=_int)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    # _parse's table for each subcommand, read off its parser: every store
    # action by its option string, the namespace it starts from, and the
    # dests it requires
    for p in parser.subcommands.values():
        stores = [a for a in p._actions if type(a) is argparse._StoreAction and a.nargs is None]
        kept = [a for a in p._actions if argparse.SUPPRESS not in (a.dest, a.default)]
        p.table = (
            {flag: a for a in stores for flag in a.option_strings},
            {a.dest: a.default for a in kept},
            {a.dest for a in p._actions if a.required},
        )
    return parser


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), without argparse when argv[0] names a
    subcommand and the rest is well formed: `--flag value` pairs, each flag an
    exact option of that subcommand given once, each value not starting with
    `-` and passing the option's type and choices, every required option
    given.  The namespace is then built from the subcommand's table.  Any
    other argv with a subcommand goes to that subcommand's parser alone, in
    one argparse pass; any argv without one (empty, -h, an unknown word) goes
    to the root parser.  So every help text and usage message, and the order
    of the refusals, still comes from argparse."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    options, defaults, required = sub.table
    flags, values = argv[1::2], argv[2::2]
    given = {}
    if len(flags) == len(values):
        for flag, value in zip(flags, values):
            action = options.get(flag)
            if action is None or action.dest in given or value.startswith("-"):
                break
            try:
                value = action.type(value) if action.type else value
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                break
            if action.choices is not None and value not in action.choices:
                break
            given[action.dest] = value
        else:
            if required <= given.keys():
                return argparse.Namespace(subcommand=argv[0], **{**defaults, **given})
    return sub.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))


def parse_args(argv) -> argparse.Namespace:
    request = _parse(argv)
    if request.subcommand == "verify":
        if request.primes is not None:
            try:
                request.primes = tuple(_int(t.strip()) for t in request.primes.split(","))
            except argparse.ArgumentTypeError:
                raise UsageError(
                    f"--primes must be a comma-separated integer list, got {request.primes!r}"
                )
        request.monomial_limit = _monomial_limit(request)
    return request


def _field(request: argparse.Namespace) -> GaloisParams:
    """The request's field and prime: p is read off q unless --p is given,
    and `galois_params` refuses a --p that q is not a power of."""
    p = prime_power_base(request.q)[0] if request.p is None else request.p
    return galois_params(p, request.q, request.l)


def _presentation(request: argparse.Namespace) -> presentations.GradedPresentation:
    chow = request.theory == "chow"
    if chow and request.family != "GL":
        raise InputError("chow presentations are available for the GL family only")
    params = _field(request)
    if chow:
        return presentations.chow_gl_presentation(gl_params(params, request.rank), b=request.b)
    if request.b != 1:
        raise InputError("--b is meaningful for the chow theory only")
    datum = rootdata.lookup(request.family, request.rank)
    return presentations.cobordism_presentation(datum, params)


# -- subcommand implementations ---------------------------------------------


def _run_params(request: argparse.Namespace) -> str:
    params = _field(request)
    # CPython refuses to convert an int of more digits than this to str or
    # JSON (0: no limit); check before h is formed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # h < q^r < 2^(r * bitlen q), which is at most 10^limit when
    # r * bitlen q <= 3.321 * limit (log2 10 > 3.321): no logarithm needed
    short = not limit or params.r * params.q.bit_length() * 1000 <= 3321 * limit
    digits = 0 if short else params.h_digits()
    if digits > limit:
        raise ResourceLimitError(
            f"h has {digits} decimal digits, more than this interpreter prints (limit {limit})"
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "params",
        "p": params.p,
        "q": params.q,
        "l": params.l,
        "r": params.r,
        "a": params.a,
        "h": params.h,
    }
    if request.n is not None:
        glp = gl_params(params, request.n)
        payload.update(n=glp.n, m=glp.m, e=glp.e)
    if request.format == "json":
        return _json(payload)
    order = ("p", "q", "l", "r", "a", "h", "n", "m", "e")
    return "\n".join(f"{k} = {payload[k]}" for k in order if k in payload)


def _run_present(request: argparse.Namespace) -> str:
    pres = _presentation(request)
    if request.format == "latex":
        # the series is never printed here, so only its cutoff is checked
        if request.cutoff is not None:
            _integer(request.cutoff, "cutoff", 0)
        return presentations.render_latex(pres)
    series = None
    if request.cutoff is not None:
        grading = request.grading or pres.grading
        series = presentations.poincare_series(pres, request.cutoff, grading)
    if request.format == "json":
        payload = pres.to_json_dict()
        if series is not None:
            payload["series"] = {"grading": grading, **series.to_json_dict()}
        return _json(payload)
    text = presentations.render_text(pres)
    if series is not None:
        text += f"\nseries ({grading} grading, up to degree {request.cutoff}): {series}"
    return text


def _run_series(request: argparse.Namespace) -> str:
    pres = _presentation(request)
    grading = request.grading or pres.grading
    series = presentations.poincare_series(pres, request.cutoff, grading)
    if request.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "series",
            "theory": pres.theory,
            "group": {"family": pres.family, "rank": pres.rank},
            "field": {"p": pres.params.p, "q": pres.params.q},
            "prime": pres.params.l,
            "grading": grading,
            "series": series.to_json_dict(),
        }
        return _json(payload)
    if request.format == "latex":
        return _latex_series(series)
    return str(series)


def _latex_series(series) -> str:
    terms = []
    for d, c in enumerate(series.coefficients):
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
            continue
        t = f"t^{d}" if d < 10 else f"t^{{{d}}}"
        terms.append(t if c == 1 else f"{c}{t}")
    terms.append(f"O(t^{{{series.cutoff + 1}}})")
    return " + ".join(terms)


def _run_compare(request: argparse.Namespace) -> str:
    params = _field(request)
    report = presentations.compare_chow_cobordism_gl(gl_params(params, request.rank))
    if request.format == "json":
        return _json(report.to_json_dict())
    verdict = "equal" if report.equal else "MISMATCH"
    return "\n".join(
        [
            f"GL_{request.rank}, q = {params.q}, l = {params.l}: {verdict}",
            f"  chow degrees: {list(report.chow_degrees)}",
            f"  cobordism degrees: {list(report.cobordism_degrees)}",
        ]
    )


# -- verify -----------------------------------------------------------------


def _run_verify(request: argparse.Namespace) -> tuple[bool, str]:
    from . import verify  # imported here, so that only a sweep loads the oracles

    fields = verify.Sweep._fields  # a field left out takes the Sweep default
    sweep = verify.Sweep(**{f: v for f in fields if (v := getattr(request, f)) is not None})
    clauses = verify.run(sweep)
    passed = all(c.passed for c in clauses)
    if request.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification-summary",
            "passed": passed,
            "clauses": [
                {"name": c.name, "passed": c.passed, "instances": c.instances, "witness": c.witness}
                for c in clauses
            ],
        }
        return passed, _json(payload)
    lines = [
        f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.instances} instances)"
        + (f" [{c.witness}]" if c.witness else "")
        for c in clauses
    ]
    lines.append("all clauses passed" if passed else "SOME CLAUSES FAILED")
    return passed, "\n".join(lines)


def run(request: argparse.Namespace) -> tuple[int, str, str]:
    """Execute a request; returns (exit code, rendered output, diagnostic).

    The rendered output belongs on stdout, the diagnostic on stderr; exactly
    one of the two is nonempty except for a failing verify sweep, whose
    summary is a result even though the exit code is nonzero.
    """
    try:
        if request.subcommand == "params":
            return 0, _run_params(request), ""
        if request.subcommand == "present":
            return 0, _run_present(request), ""
        if request.subcommand == "series":
            return 0, _run_series(request), ""
        if request.subcommand == "compare":
            return 0, _run_compare(request), ""
        if request.subcommand == "verify":
            passed, output = _run_verify(request)
            return (0 if passed else 1), output, ""
        return 1, "", f"usage error: unknown subcommand {request.subcommand!r}"
    except PreconditionError as exc:
        return 2, "", f"hypothesis violated: {exc}"
    except InputError as exc:
        return 1, "", f"input error: {exc}"
    except ResourceLimitError as exc:
        return 1, "", f"resource limit: {exc}"


def main(argv=None) -> int:
    try:
        request = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    code, output, diagnostic = run(request)
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: point stdout at devnull, so that the flush
            # at interpreter exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if diagnostic:
        print(diagnostic, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
