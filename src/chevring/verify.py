"""The sweeps behind `chevring verify`, as a library: `run(Sweep(...))`.

Each clause is a generator that yields None for each instance of a `Sweep`
that passes and a witness (a one-line description) for each that fails;
`CLAUSES` is their ordered table.  The oracles are looked up on the
`oracles` module at each call, never bound at import.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat

from . import oracles, presentations, rootdata
from .arith import galois_params, require_prime, residues_one_per_order
from .errors import InputError, ResourceLimitError, _Frozen, _integer

__all__ = ["SIZES", "Sweep", "run"]

# the fields of a Sweep that size it, each refused below 0
SIZES = ("max_weight_entry", "max_weight_len", "max_m", "cutoff", "sp_max_rank")

# concrete fields driven through the Sp-pattern clause
_SP_FIELDS = ((2, 2), (2, 4), (3, 3), (3, 9), (3, 27), (3, 81), (5, 5))


class Sweep(_Frozen):
    """The coefficient primes and sizes of one run; defaults as `chevring verify`.
    `primes` is kept as a tuple.  When the sweep is made, these are refused: a
    size, monomial limit or prime that is not an integer, a negative size, a
    monomial limit below 1, no primes, and an entry of `primes` that
    `require_prime` refuses or that is repeated."""

    _fields = ("primes", *SIZES, "monomial_limit")

    def __init__(
        self,
        primes: tuple[int, ...] = (3, 5, 7, 11, 13),
        max_weight_entry: int = 4,
        max_weight_len: int = 3,
        max_m: int = 2,
        cutoff: int = 8,
        sp_max_rank: int = 4,
        monomial_limit: int = oracles.DEFAULT_MONOMIAL_LIMIT,
    ):
        primes = tuple(_integer(l, "l") for l in primes)
        sizes = dict(zip(SIZES, (max_weight_entry, max_weight_len, max_m, cutoff, sp_max_rank)))
        for name, value in sizes.items():
            sizes[name] = value = _integer(value, name)
            if value < 0:
                raise InputError(f"{name} must be >= 0, got {value}")
        monomial_limit = _integer(monomial_limit, "monomial_limit")
        if monomial_limit < 1:
            raise InputError(f"monomial_limit must be >= 1, got {monomial_limit}")
        if not primes:
            raise InputError("primes must not be empty")
        for l in primes:
            require_prime(l, "l")
        for i, l in enumerate(primes):
            if l in primes[:i]:
                raise InputError(f"l = {l} is repeated in --primes")
        self._set(primes=primes, **sizes, monomial_limit=monomial_limit)


def _fields(sweep: Sweep):
    """(l, q) for each prime l and the smallest q of each order mod l."""
    return ((l, q) for l in sweep.primes for q in residues_one_per_order(l))


def _sp_fields(sweep: Sweep):
    """(q, l, params) for each concrete Sp field and each prime not dividing q."""
    return ((q, l, galois_params(p, q, l)) for p, q in _SP_FIELDS for l in sweep.primes if q % l)


def _mismatch(where: str, got, expected) -> str | None:
    return None if got == expected else f"{where}: {got} != {expected}"


def _problem(sweep: Sweep, weights, l: int, q: int, permutation=oracles.NO_PERMUTATION):
    limit = sweep.monomial_limit
    return oracles.GradedActionProblem(weights, l, q, sweep.cutoff, permutation, limit)


def _oracle_witness(kind: str, where: str, problem, bruteforce, closedform) -> str | None:
    try:
        brute = bruteforce(problem)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{kind} sweep at {where}: {exc}") from None
    return _mismatch(where, brute, closedform(problem))


def _registry(sweep: Sweep):
    # the registry raises when a record fails; each record it counts passed
    return repeat(None, rootdata.validate_registry())


def _coinvariants(sweep: Sweep):
    for l, q in _fields(sweep):
        for k in range(1, sweep.max_weight_len + 1):
            for weights in combinations_with_replacement(range(1, sweep.max_weight_entry + 1), k):
                yield _oracle_witness(
                    "coinvariant",
                    f"weights {weights}, l = {l}, q = {q}",
                    _problem(sweep, weights, l, q),
                    oracles.coinvariants_hilbert_bruteforce,
                    oracles.coinvariants_hilbert_closedform,
                )


def _invariants(sweep: Sweep):
    for l, q in _fields(sweep):
        for m in range(1, sweep.max_m + 1):
            yield _oracle_witness(
                "invariant",
                f"m = {m}, l = {l}, q = {q}",
                _problem(sweep, (1,) * m, l, q, oracles.FULL_SYMMETRIC),
                oracles.invariants_hilbert_bruteforce,
                oracles.invariants_hilbert_closedform,
            )


def _chern_scalar(sweep: Sweep):
    for l in sweep.primes:
        for q in range(1, l):
            yield None if oracles.chern_scalar_checks(l, q).passed else f"l = {l}, q = {q}"


def _restricted_chern(sweep: Sweep):
    for q, l, params in _sp_fields(sweep):
        for m in range(1, sweep.max_m + 1):
            report = oracles.verify_restricted_chern(m, params)
            yield None if report.passed else f"m = {m}, q = {q}, l = {l}"


def _sp_pattern(sweep: Sweep):
    for q, l, params in _sp_fields(sweep):
        for n in range(1, sweep.sp_max_rank + 1):
            datum = rootdata.lookup("Sp", n)
            closed = oracles.coinvariants_hilbert_closedform(_problem(sweep, datum.degrees, l, q))
            pres = presentations.cobordism_presentation(datum, params)
            series = presentations.poincare_series(pres, sweep.cutoff, presentations.CHOW)
            yield _mismatch(f"Sp rank {n}, q = {q}, l = {l}", closed, series)


CLAUSES = (
    ("registry-invariants", _registry),
    ("coinvariants-oracle-vs-closed-form", _coinvariants),
    ("invariants-oracle-vs-closed-form", _invariants),
    ("chern-scalar-identities", _chern_scalar),
    ("restricted-chern-class", _restricted_chern),
    ("sp-pattern-consistency", _sp_pattern),
)


def run(sweep: Sweep) -> tuple[oracles.Clause, ...]:
    """Every clause of `CLAUSES` over the sweep, in order, each with the
    number of instances it checked and its first witness, if any."""
    clauses = []
    for name, witnesses in CLAUSES:
        instances, first = 0, None
        for witness in witnesses(sweep):
            instances += 1
            if first is None:
                first = witness
        clauses.append(oracles.Clause(name, first is None, first, instances))
    return tuple(clauses)
