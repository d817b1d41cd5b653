"""The sweeps behind `chevring verify`, as a library: `run(Sweep(...))`.

Each clause is a generator that yields None for each instance of a `Sweep`
that passes and a witness (a one-line description) for each that fails;
`CLAUSES` is their ordered table.  Every clause reads one table of fields,
built once per run, and the oracles are compared with the presentations the
CLI prints, for every type of the registry.  Oracles and engines are looked
up on their modules at each call, never bound at import.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import oracles, presentations, rootdata
from .arith import (
    GaloisParams, galois_params, gl_params, is_prime, require_prime, residues_one_per_order,
)
from .errors import InputError, ResourceLimitError, _Frozen, _integer

__all__ = ["SIZES", "Sweep", "run"]

# the fields of a Sweep that size it, each refused below 0
SIZES = ("max_weight_entry", "max_weight_len", "max_m", "cutoff", "sp_max_rank")


class Sweep(_Frozen):
    """The coefficient primes and sizes of one run; defaults as `chevring verify`.
    `max_weight_entry` and `max_weight_len` size the weights of the
    coinvariant clause, `max_m` the invariant and Chern clauses, `cutoff`
    every series, and `sp_max_rank` the two presentation clauses: each
    parametric type at that many ranks from its least, each fixed type when
    it is at least 1, and GL_n for n up to twice it.  `primes` is kept as a
    tuple.  When the sweep is made, these are refused: a size, monomial
    limit or prime that is not an integer, a negative size, a monomial limit
    below 1, no primes, and an entry of `primes` that `require_prime`
    refuses or that is repeated."""

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


def _field_table(sweep: Sweep) -> tuple[GaloisParams, ...]:
    """galois_params(q, q, l) for each prime l of the sweep and each order r
    dividing l - 1, with q the least prime congruent mod l to the smallest
    residue of order r: a real field, which the engines accept, while the
    oracles read only q mod l."""
    table = []
    for l in sweep.primes:
        for q in residues_one_per_order(l):
            while not is_prime(q):
                q += l
            table.append(galois_params(q, q, l))
    return tuple(table)


def _mismatch(where: str, got, expected) -> str | None:
    return None if got == expected else f"{where}: {got} != {expected}"


def _problem(sweep: Sweep, weights, params, permutation=oracles.NO_PERMUTATION):
    return oracles.GradedActionProblem(
        weights, params.l, params.q, sweep.cutoff, permutation, sweep.monomial_limit
    )


def _oracle_witness(kind: str, where: str, problem, bruteforce, expected) -> str | None:
    try:
        brute = bruteforce(problem)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{kind} sweep at {where}: {exc}") from None
    return _mismatch(where, brute, expected)


def _valuation(n: int, l: int) -> int:
    """v_l(n) for n != 0."""
    v = 0
    while n % l == 0:
        n, v = n // l, v + 1
    return v


# how many ranks of each parametric record the registry clause looks up
_REGISTRY_RANKS = 12


def _ranks(record, count: int) -> range:
    """count ranks of a parametric record from its least, or the one rank of
    a fixed record when count >= 1."""
    if record.fixed_rank:
        count = min(count, 1)
    return range(record.min_rank, record.min_rank + count)


def _lookups(count: int):
    """Each record of the registry at count ranks from its least, or at its
    fixed rank when count >= 1: the datum `lookup` returns, having checked
    both identities, or the text of its refusal."""
    for record in rootdata._RECORDS:
        for rank in _ranks(record, count):
            try:
                yield rootdata.lookup(record.family, rank)
            except InputError as exc:
                yield str(exc)


def _registry(sweep: Sweep, table):
    """Each record of the registry at its first 12 ranks, or its fixed one:
    None for a datum, the refusal for a lookup refused."""
    for datum in _lookups(_REGISTRY_RANKS):
        yield datum if isinstance(datum, str) else None


def _coinvariants(sweep: Sweep, table):
    for params in table:
        for k in range(1, sweep.max_weight_len + 1):
            for weights in combinations_with_replacement(range(1, sweep.max_weight_entry + 1), k):
                problem = _problem(sweep, weights, params)
                yield _oracle_witness(
                    "coinvariant",
                    f"weights {weights}, l = {params.l}, q = {params.q}",
                    problem,
                    oracles.coinvariants_hilbert_bruteforce,
                    oracles.coinvariants_hilbert_closedform(problem),
                )


def _invariants(sweep: Sweep, table):
    for params in table:
        for m in range(1, sweep.max_m + 1):
            problem = _problem(sweep, (1,) * m, params, oracles.FULL_SYMMETRIC)
            yield _oracle_witness(
                "invariant",
                f"m = {m}, l = {params.l}, q = {params.q}",
                problem,
                oracles.invariants_hilbert_bruteforce,
                oracles.invariants_hilbert_closedform(problem),
            )


def _restricted_chern(sweep: Sweep, table):
    """The restricted Chern check at each field and m = 1..max_m, then, for
    odd l, the printed Chow degrees of GL_{m*r} against the positive
    degrees of the m-block class.  No term of that class cancels (see
    `oracles.verify_restricted_chern`), so its degrees are the m-fold
    sumset of the block's support."""
    for params in table:
        block = oracles._chern_block(params.q, params.r, params.l)
        support = [k for k, b in enumerate(block) if b]
        degrees = {0}
        for m in range(1, sweep.max_m + 1):
            degrees = {d + k for d in degrees for k in support}
            where = f"m = {m}, q = {params.q}, l = {params.l}"
            failed = "; ".join(
                c.name if c.witness is None else f"{c.name}: {c.witness}"
                for c in oracles.verify_restricted_chern(m, params).clauses
                if not c.passed
            )
            if failed:
                yield f"{where}: {failed}"
            elif params.l == 2:  # the Chow presentation is stated for odd l only
                yield None
            else:
                n = m * params.r
                pres = presentations.chow_gl_presentation(gl_params(params, n))
                printed = pres.algebraic_degrees()
                yield _mismatch(
                    f"{where}, Chow degrees of GL rank {n}", printed, tuple(sorted(degrees - {0}))
                )


def _l_part(where: str, datum, params, pres) -> str | None:
    """For odd l, the witness, if any, against v_l(|G(F_q)|) being the sum
    over the generators of a + v_l(d/r).  |G(F_q)| = q^N prod(q^{d_i} - 1),
    and by lifting the exponent v_l(q^d - 1) is a + v_l(d/r) when r | d and
    0 otherwise."""
    l = params.l
    if l == 2:
        return None
    # v_l(d/r) = v_l(d), as r divides l - 1
    expected = sum(params.a + _valuation(d, l) for d in pres.algebraic_degrees())
    got = _valuation(rootdata.group_order(datum, params.q), l)
    return _mismatch(f"{where}, v_{l} of the group order", got, expected)


def _names(where: str, datum, pres) -> str | None:
    """The witness, if any, against b = 1 and against each printed name
    <prefix>_<i> naming the degree d_i of the datum, 1 <= i <= rank."""
    if pres.b != 1:
        return f"{where}: b = {pres.b}, not 1"
    for degree, name in pres.named_degrees:
        index = name.rpartition("_")[2]
        i = int(index) if index.isascii() and index.isdigit() else 0
        if not (1 <= i <= datum.rank and datum.degrees[i - 1] == degree):
            return f"{where}: generator {name} has degree {degree}, not the datum's d_{index}"
    return None


def _cobordism(sweep: Sweep, table):
    """The printed cobordism presentation of each type at each field whose
    l is not a torsion prime: its Chow series is the coinvariant brute
    force on the type's degrees, its topological series is that series on
    the even degrees and 0 on the odd ones, its generators give the l-part
    of the group order, its b is 1, and each generator <prefix>_<i> has the
    degree d_i.  A rank whose lookup is refused yields the refusal once."""
    cutoff = sweep.cutoff
    for datum in _lookups(sweep.sp_max_rank):
        if isinstance(datum, str):
            yield datum
            continue
        for params in table:
            if params.l in datum.torsion_primes:
                continue
            where = f"{datum.family} rank {datum.rank}, q = {params.q}, l = {params.l}"
            pres = presentations.cobordism_presentation(datum, params)
            chow = presentations.poincare_series(pres, cutoff, presentations.CHOW)
            topological = presentations.poincare_series(pres, 2 * cutoff, presentations.TOPOLOGICAL)
            doubled = tuple(0 if k % 2 else chow[k // 2] for k in range(2 * cutoff + 1))
            yield (
                _oracle_witness(
                    "coinvariant", where, _problem(sweep, datum.degrees, params),
                    oracles.coinvariants_hilbert_bruteforce, chow,
                )
                or _mismatch(f"{where}, topological", topological.coefficients, doubled)
                or _l_part(where, datum, params, pres)
                or _names(where, datum, pres)
            )


def _gl_chow(sweep: Sweep, table):
    """For odd l, the printed b = 1 Chow presentation of GL_n has the
    series of the coinvariant brute force on the degrees 1..n, and its
    degrees are those of the cobordism presentation; a refusal of the
    comparison's lookup is the witness."""
    for n in range(1, 2 * sweep.sp_max_rank + 1):
        for params in table:
            if params.l == 2:
                continue
            where = f"GL rank {n}, q = {params.q}, l = {params.l}"
            gl = gl_params(params, n)
            pres = presentations.chow_gl_presentation(gl)
            witness = _oracle_witness(
                "coinvariant", where, _problem(sweep, tuple(range(1, n + 1)), params),
                oracles.coinvariants_hilbert_bruteforce,
                presentations.poincare_series(pres, sweep.cutoff, presentations.CHOW),
            )
            if witness is None:
                try:
                    if not presentations.compare_chow_cobordism_gl(gl).equal:
                        witness = f"{where}: compare finds the Chow and cobordism degrees unequal"
                except InputError as exc:
                    witness = str(exc)
            yield witness


CLAUSES = (
    ("registry-invariants", _registry),
    ("coinvariants-oracle-vs-closed-form", _coinvariants),
    ("invariants-oracle-vs-closed-form", _invariants),
    ("restricted-chern-class", _restricted_chern),
    ("cobordism-oracle-vs-presentation", _cobordism),
    ("gl-chow-oracle-vs-presentation", _gl_chow),
)


def run(sweep: Sweep) -> tuple[oracles.Clause, ...]:
    """Every clause of `CLAUSES` over the sweep, in order, each with the
    number of instances it checked and its first witness, if any."""
    table = _field_table(sweep)
    clauses = []
    for name, witnesses in CLAUSES:
        instances, first = 0, None
        for witness in witnesses(sweep, table):
            instances += 1
            if first is None:
                first = witness
        clauses.append(oracles.Clause(name, first is None, first, instances))
    return tuple(clauses)
