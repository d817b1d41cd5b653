"""Registry of split reductive group types.

Each record supplies the Lie-theoretic constants the presentation engines
consume: rank, fundamental degrees (algebraic convention, so the generator of
topological degree 2d is recorded as d), Weyl group order, torsion primes,
and the number N of positive roots.  Records live in ``data/root_data.txt``
so the tables can be audited or extended without code changes; the loader
validates every record against the classical identities

    prod(d_i) = |W|        and        N = sum(d_i - 1).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import factorial, prod

from .arith import prime_power_base, require_prime
from .errors import InputError

__all__ = [
    "Registry",
    "RootDatum",
    "default_registry",
    "group_order",
    "lookup",
    "validate_registry",
]


@dataclass(frozen=True)
class RootDatum:
    family: str
    rank: int
    degrees: tuple[int, ...]
    weyl_order: int
    torsion_primes: frozenset[int]
    unipotent_exponent: int  # number N of positive roots


# -- integer formulas, parsed once per record -----------------------------

_FORMULA_CHARS = re.compile(r"[0-9n\s+\-*/^()!]*\Z")


class _Formula:
    """An integer formula in n, parsed when the record is loaded; calling it
    evaluates it at a rank.  Supports + - * ( ), ^ for powers, / for exact
    integer division, and ! for factorial."""

    __slots__ = ("text", "node")

    def __init__(self, text: str):
        if not _FORMULA_CHARS.match(text):
            raise InputError(f"illegal character in formula {text!r}")
        py = text.replace("^", "**")
        py = re.sub(r"\(([^()]*)\)!", r"factorial(\1)", py)
        py = re.sub(r"(\w+)!", r"factorial(\1)", py)
        try:
            tree = ast.parse(py.strip(), mode="eval")
        except SyntaxError as exc:
            raise InputError(f"cannot parse formula {text!r}: {exc}") from None
        self.text = text
        self.node = tree.body

    def __call__(self, n: int) -> int:
        return _eval_node(self.node, n, self.text)


def _eval_node(node: ast.AST, n: int, expr: str) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name) and node.id == "n":
        return n
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, n, expr)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "factorial":
        (arg,) = node.args
        v = _eval_node(arg, n, expr)
        if v < 0:
            raise InputError(f"factorial of negative value in {expr!r}")
        return factorial(v)
    if isinstance(node, ast.BinOp):
        a = _eval_node(node.left, n, expr)
        b = _eval_node(node.right, n, expr)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Pow):
            if b < 0:
                raise InputError(f"negative exponent in {expr!r}")
            return a**b
        if isinstance(node.op, ast.Div):
            if not b:
                raise InputError(f"division by zero in {expr!r}")
            q, rem = divmod(a, b)
            if rem:
                raise InputError(f"inexact division {a}/{b} in {expr!r}")
            return q
    raise InputError(f"unsupported construct in formula {expr!r}")


_RANGE_RE = re.compile(r"(?P<lo>[^.]+)\.\.(?P<hi>.+?)(?:\s+step\s+(?P<step>.+))?\Z")


def _parse_degrees(spec: str) -> tuple[tuple[str, _Formula, _Formula | None, _Formula | None], ...]:
    """The items of a degree list as (text, lo, hi, step): a formula is
    (text, f, None, None), and a range 'LO..HI step S' has step None when S
    is absent."""
    items = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise InputError(f"empty item in degree list {spec!r}")
        m = _RANGE_RE.match(item)
        if m and ".." in item:
            lo, hi, step = m.group("lo", "hi", "step")
            items.append((item, _Formula(lo), _Formula(hi), _Formula(step) if step else None))
        else:
            items.append((item, _Formula(item), None, None))
    return tuple(items)


def _expand_degrees(items: tuple, n: int) -> list[int]:
    out: list[int] = []
    for item, lo, hi, step in items:
        if hi is None:
            out.append(lo(n))
            continue
        first, last = lo(n), hi(n)
        stride = step(n) if step else 1
        if stride < 1:
            raise InputError(f"range step must be positive in {item!r}")
        out.extend(range(first, last + 1, stride))
    return out


def _product(values: tuple[int, ...]) -> int:
    """prod(values) by a balanced product tree over runs of 16, so that the
    large multiplications pair factors of like size."""
    level = [prod(values[i : i + 16]) for i in range(0, len(values), 16)]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


# -- registry records ------------------------------------------------------


@dataclass(frozen=True)
class _Record:
    family: str
    min_rank: int
    fixed_rank: bool
    degrees: tuple
    weyl: _Formula
    roots: _Formula
    torsion_primes: frozenset[int]

    def admits(self, rank: int) -> bool:
        return rank == self.min_rank if self.fixed_rank else rank >= self.min_rank

    def expand(self, rank: int) -> RootDatum:
        if not self.admits(rank):
            pat = f"= {self.min_rank}" if self.fixed_rank else f">= {self.min_rank}"
            raise InputError(f"family {self.family} needs rank {pat}, got {rank}")
        degrees = tuple(sorted(_expand_degrees(self.degrees, rank)))
        if len(degrees) != rank:
            raise InputError(
                f"{self.family} rank {rank}: {len(degrees)} fundamental degrees, expected {rank}"
            )
        if degrees and degrees[0] < 1:  # sorted, so the least degree decides
            raise InputError(f"{self.family} rank {rank}: nonpositive fundamental degree")
        weyl = self.weyl(rank)
        roots = self.roots(rank)
        degree_product = _product(degrees)
        if degree_product != weyl:
            raise InputError(
                f"{self.family} rank {rank}: prod(degrees) = {degree_product} "
                f"but the Weyl order column says {weyl}"
            )
        if sum(degrees) - rank != roots:
            raise InputError(
                f"{self.family} rank {rank}: sum(d_i - 1) = {sum(degrees) - rank} "
                f"but the positive-root column says {roots}"
            )
        return RootDatum(
            family=self.family,
            rank=rank,
            degrees=degrees,
            weyl_order=weyl,
            torsion_primes=self.torsion_primes,
            unipotent_exponent=roots,
        )


_RANK_RE = re.compile(r"n\s*(?P<op>>=|=)\s*(?P<k>[0-9]+)\Z")

# How far parametric records are expanded when validating a registry.
_VALIDATION_RANK_SPAN = 12


class Registry:
    """A parsed registry; use :func:`default_registry` for the shipped one.

    Construction expands every record over its validation rank range, raising
    on any violated identity, and keeps the number of (family, rank)
    instances so checked as ``instances``."""

    def __init__(self, records: list[_Record]):
        seen = set()
        for rec in records:
            if rec.family in seen:
                raise InputError(f"duplicate family {rec.family} in registry")
            seen.add(rec.family)
        self._records = {rec.family: rec for rec in records}
        self.instances = 0
        for rec in records:
            span = 1 if rec.fixed_rank else _VALIDATION_RANK_SPAN
            for rank in range(rec.min_rank, rec.min_rank + span):
                rec.expand(rank)
            self.instances += span

    @classmethod
    def from_text(cls, text: str) -> "Registry":
        records = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split("|")]
            if len(fields) != 6:
                raise InputError(f"line {lineno}: expected 6 fields, got {len(fields)}")
            family, rank_pat, degrees_spec, weyl_spec, roots_spec, torsion_spec = fields
            m = _RANK_RE.match(rank_pat)
            if not m:
                raise InputError(f"line {lineno}: bad rank pattern {rank_pat!r}")
            if torsion_spec == "-":
                torsion: frozenset[int] = frozenset()
            else:
                entries = [t.strip() for t in torsion_spec.split(",")]
                if not all(t.isascii() and t.isdigit() for t in entries):
                    raise InputError(f"line {lineno}: bad torsion field {torsion_spec!r}")
                torsion = frozenset(map(int, entries))
                try:
                    for t in sorted(torsion):
                        require_prime(t, "torsion entry")
                except InputError as exc:
                    raise InputError(f"line {lineno}: {exc}") from None
            records.append(
                _Record(
                    family=family,
                    min_rank=int(m.group("k")),
                    fixed_rank=m.group("op") == "=",
                    degrees=_parse_degrees(degrees_spec),
                    weyl=_Formula(weyl_spec),
                    roots=_Formula(roots_spec),
                    torsion_primes=torsion,
                )
            )
        return cls(records)

    def families(self) -> list[str]:
        return sorted(self._records)

    def lookup(self, family: str, rank: int) -> RootDatum:
        rec = self._records.get(family)
        if rec is None:
            raise InputError(
                f"unknown family {family!r}; known families: {', '.join(self.families())}"
            )
        return rec.expand(rank)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    text = resources.files("chevring").joinpath("data/root_data.txt").read_text()
    return Registry.from_text(text)


def lookup(family: str, rank: int) -> RootDatum:
    """Expand the shipped record for (family, rank)."""
    return default_registry().lookup(family, rank)


def validate_registry() -> int:
    """The number of (family, rank) instances on which the shipped registry
    was validated when it was loaded; nothing is expanded again."""
    return default_registry().instances


def group_order(datum: RootDatum, q: int) -> int:
    """Order of the group of F_q-points: q^N * prod(q^{d_i} - 1), exactly."""
    prime_power_base(q)  # rejects non prime powers
    return q**datum.unipotent_exponent * prod(q**d - 1 for d in datum.degrees)
