"""Independent brute-force verifiers.

Three families of checks, all exact over F_l:

* graded coinvariants of a cyclic diagonal action, by building each
  graded piece J_d of the ideal J = (a - gamma.a) from its generators of
  degree d and the products x_i * J_{d - w_i}, which span J_d for every
  ideal with homogeneous generators; both are monomials, so J_d is closed
  as a set of monomials, with no row reduction; J_d is all of R_d at a
  degree with q^d != 1 mod l, kept as the enumerated monomials, and R is
  enumerated only when some degree has one;
* invariants of the wreath-type action (coordinate scaling plus the full
  symmetric group on the variables), by an orbit search over the monomials
  of each degree: every generator sends a monomial to a scalar times a
  monomial, so an invariant has one free coefficient on each orbit none of
  whose monomials is scaled by a q^{e_0} != 1 mod l, and none on any other
  orbit; the forward images of the m-cycle and a transposition close each
  orbit, as the group is finite, with no arithmetic over F_l; that action
  reads neither q nor l, so it is built once per (m, cutoff) as index
  arrays over each degree's monomials, and each call searches them with
  its own q;
* the total Chern class of the restricted lift on m blocks,
  prod_j B(eta_j) with one block B(eta) = prod_{i<r} (1 + q^i eta), against
  prod_j (1 + s eta_j^r) with s = (-1)^{r-1}: the two are equal exactly
  when B(eta) = 1 + s eta^r (set eta_2 = ... = eta_m = 0, as B(0) = 1), so
  the block's r linear factors are multiplied out into its r + 1
  coefficients and every clause, at every m, is read off those; at m = 1
  its clauses are the scalar identities e_j(1, q, ..., q^{r-1}) = 0 for
  0 < j < r and q^{r(r-1)/2} = (-1)^{r-1}.

None of these share logic with the engines they are compared against: the
coinvariant spanning set is the generic degree-by-degree one, which never
reads r, not the one-line diagonal shortcut, and the Chern block is
multiplied out factor by factor from the powers of q.  The two closed
forms hold no rule of their own: each reads the presentation engine's
r | d rule.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import presentations
from .arith import GaloisParams, multiplicative_order, require_prime
from .errors import InputError, ResourceLimitError, _Frozen, _integer
from .poly import (
    TruncatedSeries,
    _checked_weights,
    hilbert_series_of_free_polynomial_ring,
    multiply,
    packed_monomials,
)

__all__ = [
    "Clause",
    "DEFAULT_MONOMIAL_LIMIT",
    "FULL_SYMMETRIC",
    "GradedActionProblem",
    "NO_PERMUTATION",
    "VerificationReport",
    "coinvariants_hilbert_bruteforce",
    "coinvariants_hilbert_closedform",
    "invariants_hilbert_bruteforce",
    "invariants_hilbert_closedform",
    "verify_restricted_chern",
]

DEFAULT_MONOMIAL_LIMIT = 20_000

NO_PERMUTATION = "none"
FULL_SYMMETRIC = "full_symmetric"


class GradedActionProblem(_Frozen):
    """A diagonal action of gamma (scaling a degree-w monomial by q^w) on a
    graded polynomial ring with the given variable weights, over F_l,
    optionally extended by the full symmetric group permuting the variables."""

    _fields = ("weights", "l", "q", "cutoff", "permutation", "monomial_limit")

    def __init__(
        self,
        weights: tuple[int, ...],
        l: int,
        q: int,
        cutoff: int,
        permutation: str = NO_PERMUTATION,
        monomial_limit: int = DEFAULT_MONOMIAL_LIMIT,
    ):
        weights = _checked_weights(weights)
        l, q, cutoff = _integer(l, "l"), _integer(q, "q"), _integer(cutoff, "cutoff", 0)
        monomial_limit = _integer(monomial_limit, "monomial_limit", 1)
        require_prime(l, "l")
        if q < 1 or gcd(q, l) != 1:
            raise InputError(f"q = {q} must be positive and prime to l = {l}")
        if permutation not in (NO_PERMUTATION, FULL_SYMMETRIC):
            raise InputError(f"unknown permutation component {permutation!r}")
        self._set(
            weights=weights, l=l, q=q, cutoff=cutoff, permutation=permutation,
            monomial_limit=monomial_limit,
        )


# -- monomial bookkeeping ---------------------------------------------------


def _checked_dimensions(problem: GradedActionProblem) -> list[int]:
    """Dimension of each graded piece up to the cutoff, refusing oversize
    degrees before any enumeration happens."""
    dims = hilbert_series_of_free_polynomial_ring(problem.weights, problem.cutoff)
    for d, count in enumerate(dims.coefficients):
        if count > problem.monomial_limit:
            raise ResourceLimitError(
                f"degree {d}: {count} monomials exceed the configured limit "
                f"of {problem.monomial_limit}"
            )
    return list(dims.coefficients)


# -- coinvariants -----------------------------------------------------------


def _require_cyclic(problem: GradedActionProblem):
    if problem.permutation != NO_PERMUTATION:
        raise InputError("coinvariant oracles handle the cyclic (diagonal) action only")


def _require_full_symmetric(problem: GradedActionProblem):
    if problem.permutation != FULL_SYMMETRIC:
        raise InputError("invariant oracle needs the full symmetric permutation component")


def coinvariants_hilbert_bruteforce(problem: GradedActionProblem) -> TruncatedSeries:
    """Series of the coinvariant ring R/J, J = (a - gamma.a), one degree at a
    time: the dimension of J_d over F_l is subtracted from dim R_d.

    gamma scales every monomial b of degree w by q^w, so J is generated by
    the rows b - gamma.b = v_w*b, v_w = 1 - q^w mod l.  J_d is built from the
    degrees below it (Macaulay 1916; Lazard 1983):

        J_d = span{v_d*b : deg b = d} + sum_i x_i * J_{d - w_i}.

    This holds for every ideal generated by homogeneous elements g: a
    product M*g with deg M > 0 is x_i*(M'*g) for some variable x_i dividing
    M, and M'*g lies in J_{d - w_i}.  Every generator is a monomial times a
    scalar, so every J_d is spanned by the monomials it holds.  When
    v_d != 0, J_d is all of R_d, held as the enumerated list of its packed
    keys, whose length is dim R_d.  Otherwise it is the set union over i of
    J_{d - w_i} shifted by the place of x_i, which on packed keys is the
    product by x_i.  R is enumerated once, at the first degree with
    v_d != 0, and never when q = 1 mod l, as every J_d is then empty.  A
    degree with v_d != 0 thus forms no key, and any other forms at most
    sum_i dim R_{d - w_i}, linear in the monomials the limit admits.
    """
    _require_cyclic(problem)
    weights, l, q, cutoff = problem.weights, problem.l, problem.q, problem.cutoff
    dims = _checked_dimensions(problem)
    basis = None  # R by degree, enumerated when a degree first needs it
    k = len(weights)
    shifts = [(w, (cutoff + 1) ** (k - 1 - i)) for i, w in enumerate(weights)]

    spans = []  # J_0, ..., J_{d-1} as the keys each holds
    for d in range(cutoff + 1):
        if pow(q, d, l) != 1:
            if basis is None:
                basis = packed_monomials(weights, cutoff)
            spans.append(basis[d])  # distinct keys, and only iterated later
        else:
            spans.append({a + place for w, place in shifts if w <= d for a in spans[d - w]})
    return TruncatedSeries(cutoff, tuple(dim - len(span) for dim, span in zip(dims, spans)))


def coinvariants_hilbert_closedform(problem: GradedActionProblem) -> TruncatedSeries:
    """Series of the free polynomial ring on the variables whose weight the
    cobordism engine's rule keeps for r = ord(q mod l): the closed-form
    answer for the coinvariants of the diagonal action."""
    _require_cyclic(problem)
    r = multiplicative_order(problem.q, problem.l)
    kept = [w for _, w in presentations._divisible_degrees(problem.weights, r)]
    return hilbert_series_of_free_polynomial_ring(kept, problem.cutoff)


# -- wreath-type invariants -------------------------------------------------


# a fixed number of (m, cutoff) shapes stay built; `verify` reads one per m
@lru_cache(maxsize=32)
def _action_table(m: int, cutoff: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The action of the symmetric group on the monomials of degree <= cutoff
    in m variables of weight 1: for each degree, a triple (first, sigma,
    tau) of tuples over that degree's monomials, in the order of
    `packed_monomials`.  first[i] is the exponent e_0 of monomial i, and
    sigma[i] and tau[i] are the indices of its images under the m-cycle and,
    for m >= 3, the transposition of the first two variables (tau is empty
    below 3).  The table reads neither q nor l.

    Images are formed on packed keys without unpacking: with B = cutoff + 1
    and P_i the place of variable i, sigma maps a key to (key - e_0 P_0) B +
    e_0, and tau adds (e_1 - e_0)(P_0 - P_1) to it.  With m = 0 the one key
    is 0, and with m = 1 sigma maps each key to itself."""
    base = cutoff + 1
    p0 = base ** max(m - 1, 0)
    p1 = p0 // base
    shift = p0 - p1
    table = []
    for keys in packed_monomials((1,) * m, cutoff):
        index = {key: i for i, key in enumerate(keys)}
        first, sigma, tau = [], [], []
        for key in keys:
            e0 = key // p0
            rest = key - e0 * p0
            first.append(e0)
            sigma.append(index[rest * base + e0])
            if m >= 3:
                tau.append(index[key + (rest // p1 - e0) * shift])
        table.append((tuple(first), tuple(sigma), tuple(tau)))
    return tuple(table)


def invariants_hilbert_bruteforce(problem: GradedActionProblem) -> TruncatedSeries:
    """Series of the ring of invariants under the group generated by the
    coordinate scaling eta_1 -> q*eta_1 and the full symmetric group on the
    variables: in each degree, the joint kernel of (g - id) over the monomial
    basis, for g running over the generators, counted as orbits.

    The symmetric group is generated by the m-cycle sigma and, for m >= 3,
    the transposition tau of the first two variables (at m = 2 sigma is
    tau, and at m <= 1 the identity).  Each generator sends a monomial e to
    a scalar times a monomial: the permutations with scalar 1, the scaling
    with q^{e_0}.  So the group permutes the monomials, and an invariant
    f = sum a_e e is, on each orbit, zero or a multiple of the orbit's sum.
    It is zero when some e of the orbit has q^{e_0} != 1 mod l: the scaling
    fixes e and multiplies it by q^{e_0}, so a_e = 0, and the coefficients
    along an orbit are nonzero multiples of each other.  Otherwise the
    scaling fixes every monomial of the orbit, every generator permutes it
    with scalar 1, and its sum is invariant.  The dimension of the degree
    is thus the number of orbits with no scaled key, over every field, F_2
    included.  That is dim R_d less the rank of the rows of (g - id):
    e - g(e) links e to g(e), (1 - q^{e_0}) e links e to 0, and each set of
    linked monomials not linked to 0 is an orbit, which adds one dimension.

    The action of sigma and tau reads neither q nor l, so it is built once
    per (m, cutoff), as index arrays by `_action_table`, after the monomial
    limit has admitted the problem.  Each call then searches every degree
    with its own q: from every monomial not yet seen, it follows the forward
    images of sigma and tau, marking each in a bytearray.  The group is
    finite, so the inverse of a generator is one of its powers, and the
    forward images close the orbit.  The only arithmetic mod l is the
    call's table of the e_0 with q^{e_0} != 1."""
    _require_full_symmetric(problem)
    if any(w != 1 for w in problem.weights):
        raise InputError("invariant oracle expects all variable weights equal to 1")
    _checked_dimensions(problem)
    cutoff = problem.cutoff
    scaled = [pow(problem.q, k, problem.l) != 1 for k in range(cutoff + 1)]

    coeffs = []
    for first, sigma, tau in _action_table(len(problem.weights), cutoff):
        seen, orbits = bytearray(len(first)), 0
        for start in range(len(first)):
            if seen[start]:
                continue
            seen[start] = 1
            orbit, free = [start], True
            # the loop also visits the monomials appended while it runs
            for i in orbit:
                if scaled[first[i]]:
                    free = False
                image = sigma[i]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
                if tau:
                    image = tau[i]
                    if not seen[image]:
                        seen[image] = 1
                        orbit.append(image)
            orbits += free
        coeffs.append(orbits)
    return TruncatedSeries(cutoff, tuple(coeffs))


def invariants_hilbert_closedform(problem: GradedActionProblem) -> TruncatedSeries:
    """The expected answer: a free polynomial ring on generators of degrees
    r, 2r, ..., m*r (the elementary symmetric functions of the eta_j^r),
    the degrees in 1..m*r that the engine's rule keeps.  The series ignores
    the degrees above its cutoff, so only 1..min(m*r, cutoff) are read."""
    _require_full_symmetric(problem)
    r = multiplicative_order(problem.q, problem.l)
    degrees = range(1, min(len(problem.weights) * r, problem.cutoff) + 1)
    kept = [d for _, d in presentations._divisible_degrees(degrees, r)]
    return hilbert_series_of_free_polynomial_ring(kept, problem.cutoff)


# -- Chern classes of the restricted lift -----------------------------------


class Clause(_Frozen):
    _fields = ("name", "passed", "witness", "instances")

    def __init__(self, name: str, passed: bool, witness: str | None = None, instances: int = 1):
        self._set(name=name, passed=passed, witness=witness, instances=instances)


class VerificationReport(_Frozen):
    _fields = ("parameters", "clauses")

    def __init__(self, parameters: tuple[tuple[str, int], ...], clauses: tuple[Clause, ...]):
        self._set(parameters=parameters, clauses=clauses)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def _clause(name: str, failures: list[str]) -> Clause:
    """The clause that passes when there are no failures, witnessed by all
    of them otherwise."""
    return Clause(name, not failures, "; ".join(failures) if failures else None)


def _chern_block(q: int, r: int, l: int) -> list[int]:
    """The coefficients b_0, ..., b_r of one block of the restricted lift,
    B(eta) = prod_{i<r} (1 + q^i eta) mod l, multiplied in factor by
    factor by `poly.multiply`."""
    block, power = [1], 1
    for _ in range(r):
        block = multiply(block, [1, power], l)
        power = power * q % l
    return block


def _term(coefficient: int, k: int) -> str:
    """The degree-k term of the block: 0, or eta_1^k, after its coefficient
    when that is not 1."""
    if coefficient == 0:
        return "0"
    monomial = "eta_1" if k == 1 else f"eta_1^{k}"
    return monomial if coefficient == 1 else f"{coefficient}*{monomial}"


def verify_restricted_chern(m: int, params: GaloisParams) -> VerificationReport:
    """Check the expected shape of the restricted total Chern class
    prod_{j=1..m} B(eta_j), with one block B(eta) = prod_{i<r} (1 + q^i eta),
    against prod_j (1 + s eta_j^r) with s = (-1)^{r-1}:

    1. the block's components vanish in degrees 0 < k < r;
    2. the block's degree-r coefficient is s;
    3. for m = 1, that coefficient is q^{r(r-1)/2} = s mod l.

    Clauses 1 and 2 say that B(eta) = 1 + s eta^r, which holds exactly when
    the m-block class is prod_j (1 + s eta_j^r), whose degree-i*r component
    is s^i e_i(eta_1^r, ..., eta_m^r): one way, multiply the blocks; the
    other, set eta_2 = ... = eta_m = 0, as B(0) = 1.  So the verdict of
    each clause is the same at every m, and each is read off the r + 1
    coefficients of the block.  At m = 1 the block is the class, and
    clauses 1 and 3 are the scalar identities e_j(1, q, ..., q^{r-1}) = 0
    mod l for 0 < j < r and q^{r(r-1)/2} = (-1)^{r-1} mod l.

    Each witness names the wrong terms of the block, as eta_1^k.  Failures
    are reported, not raised.
    """
    m = _integer(m, "m", 1)
    l, r = params.l, params.r
    block = _chern_block(params.q, r, l)
    sign = (-1) ** (r - 1) % l
    offenders = [f"degree {k}: {_term(block[k], k)}" for k in range(1, r) if block[k]]
    mismatches = [] if block[r] == sign else [
        f"degree {r}: got {_term(block[r], r)}, expected {_term(sign, r)}"
    ]
    clauses = [
        _clause("off_degree_components_vanish", offenders),
        _clause("symmetric_function_identity", mismatches),
    ]
    if m == 1:
        coefficient, power = block[r], pow(params.q, r * (r - 1) // 2, l)
        top = [] if coefficient == power == sign else [
            f"coefficient {coefficient}, q^{{r(r-1)/2}} = {power}, sign {sign}"
        ]
        clauses.append(_clause("top_coefficient_sign", top))
    return VerificationReport(
        parameters=(("m", m), ("p", params.p), ("q", params.q), ("l", l), ("r", r)),
        clauses=tuple(clauses),
    )
