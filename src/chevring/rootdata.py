"""Registry of split reductive group types.

Each record supplies the Lie-theoretic constants the presentation engines
consume: the rank and the fundamental degrees (algebraic convention, so the
generator of topological degree 2d is recorded as d), and the torsion
primes.  The records are the table `_RECORDS` below, which also writes each
type's Weyl group order and number N of positive roots apart from its
degrees.  A `Registry` built from it refuses a repeated family and any
torsion entry that is not prime, and `lookup` checks every datum it
returns against the classical identities

    prod(d_i) = |W|        and        N = sum(d_i - 1).
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from functools import lru_cache
from math import factorial, prod

from .arith import prime_power_base, require_prime
from .errors import InputError, ResourceLimitError, _Frozen, _integer

__all__ = [
    "Registry",
    "RootDatum",
    "default_registry",
    "group_order",
    "lookup",
]


class RootDatum(_Frozen):
    _fields = ("family", "rank", "degrees", "torsion_primes")

    def __init__(
        self, family: str, rank: int, degrees: tuple[int, ...], torsion_primes: frozenset[int]
    ):
        self._set(family=family, rank=rank, degrees=degrees, torsion_primes=torsion_primes)


def _product(values: tuple[int, ...]) -> int:
    """prod(values) by a balanced product tree over runs of 16, so that the
    large multiplications pair factors of like size."""
    level = [prod(values[i : i + 16]) for i in range(0, len(values), 16)]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


class _Record(_Frozen):
    """One group type; `degrees`, `weyl` (|W|) and `roots` (N) are functions of
    the rank, and |W| and N are written apart from the degrees so that the
    identities check the table."""

    _fields = ("family", "min_rank", "fixed_rank", "degrees", "weyl", "roots", "torsion_primes")

    def __init__(
        self,
        family: str,
        min_rank: int,
        fixed_rank: bool,
        degrees: Callable[[int], Iterable[int]],
        weyl: Callable[[int], int],
        roots: Callable[[int], int],
        torsion_primes: frozenset[int],
    ):
        self._set(
            family=family, min_rank=min_rank, fixed_rank=fixed_rank, degrees=degrees, weyl=weyl,
            roots=roots, torsion_primes=torsion_primes,
        )

    def admits(self, rank: int) -> bool:
        return rank == self.min_rank if self.fixed_rank else rank >= self.min_rank

    def expand(self, rank: int) -> RootDatum:
        if not self.admits(rank):
            pat = f"= {self.min_rank}" if self.fixed_rank else f">= {self.min_rank}"
            raise InputError(f"family {self.family} needs rank {pat}, got {rank}")
        if rank > sys.maxsize:
            raise ResourceLimitError(
                f"{self.family} rank {rank}: more fundamental degrees than the "
                f"interpreter can list, at most {sys.maxsize}"
            )
        degrees = tuple(sorted(self.degrees(rank)))
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
                f"but the record's Weyl order is {weyl}"
            )
        if sum(degrees) - rank != roots:
            raise InputError(
                f"{self.family} rank {rank}: sum(d_i - 1) = {sum(degrees) - rank} "
                f"but the record's positive-root count is {roots}"
            )
        return RootDatum(self.family, rank, degrees, self.torsion_primes)


def _fixed(family: str, degrees: tuple[int, ...], weyl: int, roots: int, torsion: tuple[int, ...]):
    """The record of a type of the one rank len(degrees)."""
    return _Record(family, len(degrees), True, lambda n: degrees, lambda n: weyl,
                   lambda n: roots, frozenset(torsion))


def _type_bc(family: str, torsion: tuple[int, ...]):
    """The record of a type B_n or C_n, n >= 1, which share their Weyl group:
    degrees 2, 4, ..., 2n, |W| = 2^n n! and N = n^2."""
    return _Record(family, 1, False, lambda n: range(2, 2 * n + 1, 2),
                   lambda n: factorial(n) << n, lambda n: n * n, frozenset(torsion))


# Rank conventions (rank = dimension of a split maximal torus):
#   GL       rank n <-> GL_n             (reductive, center included)
#   SL       rank n <-> SL_{n+1}         (type A_n)
#   Sp       rank n <-> Sp_{2n}          (type C_n)
#   SO_odd   rank n <-> SO_{2n+1}        (type B_n)
#   SO_even  rank n <-> split SO_{2n}    (type D_n)
#   Spin     rank n <-> Spin_{2n+1}      (type B_n, simply connected)
#
# Degrees and Weyl orders: Bourbaki, Groupes et algebres de Lie, ch. V-VI
# (planches).  Torsion primes of the compact groups: Borel, "Sous-groupes
# commutatifs et torsion des groupes de Lie compacts connexes", Tohoku Math.
# J. 13 (1961); summarized per type as A, C: none; B, D, G2: {2};
# F4, E6, E7: {2, 3}; E8: {2, 3, 5}.
_RECORDS = (
    _Record("GL", 1, False, lambda n: range(1, n + 1), factorial,
            lambda n: n * (n - 1) // 2, frozenset()),
    _Record("SL", 1, False, lambda n: range(2, n + 2), lambda n: factorial(n + 1),
            lambda n: n * (n + 1) // 2, frozenset()),
    _type_bc("Sp", ()),
    _type_bc("SO_odd", (2,)),
    _Record("SO_even", 2, False, lambda n: (*range(2, 2 * n - 1, 2), n),
            lambda n: factorial(n) << (n - 1), lambda n: n * (n - 1), frozenset({2})),
    _type_bc("Spin", (2,)),
    _fixed("G2", (2, 6), 12, 6, (2,)),
    _fixed("F4", (2, 6, 8, 12), 1152, 24, (2, 3)),
    _fixed("E6", (2, 5, 6, 8, 9, 12), 51840, 36, (2, 3)),
    _fixed("E7", (2, 6, 8, 10, 12, 14, 18), 2903040, 63, (2, 3)),
    _fixed("E8", (2, 8, 12, 14, 18, 20, 24, 30), 696729600, 120, (2, 3, 5)),
)

class Registry:
    """The records by family; use :func:`default_registry` for the shipped one.

    Construction refuses a repeated family and a torsion entry that is not
    prime, and expands no record: `lookup` checks each datum it returns."""

    def __init__(self, records: Iterable[_Record]):
        self._records: dict[str, _Record] = {}
        for rec in records:
            if rec.family in self._records:
                raise InputError(f"duplicate family {rec.family} in registry")
            for t in sorted(rec.torsion_primes):
                require_prime(t, f"{rec.family} torsion entry")
            self._records[rec.family] = rec

    def families(self) -> list[str]:
        return sorted(self._records)

    def lookup(self, family: str, rank: int) -> RootDatum:
        rank = _integer(rank, "rank")
        rec = self._records.get(family)
        if rec is None:
            raise InputError(
                f"unknown family {family!r}; known families: {', '.join(self.families())}"
            )
        return rec.expand(rank)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return Registry(_RECORDS)


def lookup(family: str, rank: int) -> RootDatum:
    """Expand the shipped record for (family, rank), checking both identities."""
    return default_registry().lookup(family, rank)


def group_order(datum: RootDatum, q: int) -> int:
    """Order of the group of F_q-points: q^N * prod(q^{d_i} - 1), exactly,
    with N = sum(d_i - 1), the identity `lookup` checks."""
    q = _integer(q, "q")
    prime_power_base(q)  # rejects non prime powers
    return q ** (sum(datum.degrees) - len(datum.degrees)) * prod(q**d - 1 for d in datum.degrees)
