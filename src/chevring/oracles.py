"""Independent brute-force verifiers.

Three families of checks, all exact over F_l:

* graded coinvariants of a cyclic diagonal action, by building each
  graded piece J_d of the ideal J = (a - gamma.a) from its generators of
  degree d and the products x_i * J_{d - w_i}, which span J_d for every
  ideal with homogeneous generators; both are monomials, so J_d is closed
  as a set of monomials, with no row reduction;
* invariants of the wreath-type action (coordinate scaling plus the full
  symmetric group on the variables), by joint kernels of (g - id): every
  row is a nonzero multiple of e - g(e) or of e, an edge between two
  monomials or from a monomial to a sink standing for 0, so the rank of a
  degree's rows is the size of a spanning forest of that graph, kept by
  union-find with no arithmetic over F_l; each degree takes its scaling
  rows first, then the m-cycle rows, then one transposition row per
  transposed pair of monomials, and stops once the forest spans the whole
  graded piece;
* the total Chern class of the restricted lift on m blocks,
  prod_j B(eta_j) with one block B(eta) = prod_{i<r} (1 + q^i eta): the
  block's r linear factors are multiplied out into its r + 1 coefficients,
  and since the m blocks are in distinct variables and F_l has no zero
  divisors, no term of the class cancels, so each clause against the
  generating product of the eta_j^r is read off those coefficients,
  with no polynomial in m variables formed; at m = 1 its clauses are the
  scalar identities e_j(1, q, ..., q^{r-1}) = 0 for 0 < j < r and
  q^{r(r-1)/2} = (-1)^{r-1}.

None of these share logic with the engines they are compared against: the
coinvariant spanning set is the generic degree-by-degree one, which never
reads r, not the one-line diagonal shortcut, and the Chern block is
multiplied out factor by factor from the powers of q.  The two closed
forms hold no rule of their own: each reads the presentation engine's
r | d rule.
"""

from __future__ import annotations

from math import gcd, prod

from . import presentations
from .arith import GaloisParams, multiplicative_order, require_prime
from .errors import InputError, ResourceLimitError, _Frozen, _integer
from .poly import (
    TruncatedSeries,
    _checked_weights,
    hilbert_series_of_free_polynomial_ring,
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
        l, q, cutoff = _integer(l, "l"), _integer(q, "q"), _integer(cutoff, "cutoff")
        monomial_limit = _integer(monomial_limit, "monomial_limit")
        require_prime(l, "l")
        if q < 1 or gcd(q, l) != 1:
            raise InputError(f"q = {q} must be positive and prime to l = {l}")
        if cutoff < 0:
            raise InputError(f"cutoff must be >= 0, got {cutoff}")
        if permutation not in (NO_PERMUTATION, FULL_SYMMETRIC):
            raise InputError(f"unknown permutation component {permutation!r}")
        if monomial_limit < 1:
            raise InputError("monomial limit must be positive")
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
    scalar, so every J_d is spanned by the monomials it holds, and is held
    as that set of packed keys.  When v_d != 0, J_d is all of R_d.
    Otherwise it is the union over i of J_{d - w_i} shifted by the place of
    x_i, which on packed keys is the product by x_i.  Degree d thus forms at
    most dim R_d + sum_i dim R_{d - w_i} keys, linear in the monomials the
    limit admits.
    """
    _require_cyclic(problem)
    weights, l, q, cutoff = problem.weights, problem.l, problem.q, problem.cutoff
    dims = _checked_dimensions(problem)
    basis = packed_monomials(weights, cutoff)
    k = len(weights)
    shifts = [(w, (cutoff + 1) ** (k - 1 - i)) for i, w in enumerate(weights)]

    spans = []  # J_0, ..., J_{d-1} as sets of keys
    for d in range(cutoff + 1):
        if pow(q, d, l) != 1:
            spans.append(set(basis[d]))
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


_SINK = -1


def _join(parent: dict[int, int], a: int, b: int = _SINK) -> None:
    """Add the row c*(a - b), or c*a when b is the sink, for any nonzero c,
    to the span held by ``parent``: a union-find over packed keys plus the
    sink vertex _SINK, which stands for 0, in which a root has no entry.

    The rows are the edge vectors of a graph on the keys and the sink, and
    over every field their rank is the number of edges in a spanning
    forest, so ``len(parent)`` is the rank: a merge gives one root a
    parent, and path halving only rewrites entries that already exist.
    The smaller root becomes the parent, so the sink stays a root, and a
    key joined to it is found in two lookups and no write."""
    get = parent.get
    while (up := get(a)) is not None:
        if (top := get(up)) is None:
            a = up
            break
        # path halving: point a at its grandparent and step there
        parent[a] = a = top
    while (up := get(b)) is not None:
        if (top := get(up)) is None:
            b = up
            break
        parent[b] = b = top
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


def invariants_hilbert_bruteforce(problem: GradedActionProblem) -> TruncatedSeries:
    """Series of the ring of invariants under the group generated by the
    coordinate scaling eta_1 -> q*eta_1 and the full symmetric group on the
    variables: in each degree, the joint kernel of (g - id) over the monomial
    basis, for g running over the generators.

    The symmetric group is generated by the transposition of the first two
    variables and the m-cycle (either alone suffices only for m <= 2).  Each
    generator sends a monomial e to a scalar multiple of a monomial,
    bijectively on the basis, so the rows of (g - id) are, up to a nonzero
    scalar, e - g(e) for the permutations and e for the scaling row
    (1 - q^{e_0}) e; their rank is subtracted from the dimension of the
    degree.  Images are formed on packed keys without unpacking: with
    B = cutoff + 1 and P_i the place of variable i, the transposition adds
    (e_1 - e_0)(P_0 - P_1) to a key, and the m-cycle maps it to
    (key - e_0 P_0) B + e_0.

    So the rows are the edge vectors of a graph on the monomials plus a sink
    standing for 0: e - g(e) joins e to g(e), and e joins e to the sink.
    Over every field, F_2 included, their rank is the number of edges in a
    spanning forest.  On a connected component C the edge vectors span the
    vectors on C whose entries sum to 0, and dropping the sink's coordinate
    is injective on that space.  _join keeps the forest, and its size is the
    rank.

    Each degree takes its nonzero scaling rows first (none when
    q = 1 mod l), then the m-cycle rows key by key, then the transposition
    rows.  The transposition is an involution, so the row at tau(e) is the
    row at e times -1 and adds nothing to the span: each pair {e, tau(e)}
    gives one row, from the key with e_1 > e_0.  No row is fed once the rank
    equals dim R_d: the span is then all of R_d, so no later row could grow
    it, and the rank is exact."""
    if problem.permutation != FULL_SYMMETRIC:
        raise InputError("invariant oracle needs the full symmetric permutation component")
    if any(w != 1 for w in problem.weights):
        raise InputError("invariant oracle expects all variable weights equal to 1")
    m = len(problem.weights)
    l, cutoff = problem.l, problem.cutoff
    base = cutoff + 1
    _checked_dimensions(problem)
    bases = packed_monomials(problem.weights, cutoff)
    # places of the first two variables in a packed key; with m = 0 the one
    # key is 0, whose scaling row 1 - q^0 vanishes
    p0 = base ** max(m - 1, 0)
    p1 = p0 // base
    scale = [pow(problem.q, k, l) != 1 for k in range(base)]
    # with q = 1 mod l no scaling row survives, and the pass is skipped
    scaled = any(scale)
    join = _join

    coeffs = []
    for basis in bases:
        parent, dim = {}, len(basis)
        if scaled:
            # the scaling on the first variable: e -> q^{e_0} e
            for key in basis:
                if scale[key // p0]:
                    join(parent, key)
        if m >= 3:
            # the m-cycle: e_0 moves from the first place to the last
            for key in basis:
                if len(parent) == dim:
                    # the span is all of R_d: no later row can grow it
                    break
                e0 = key // p0
                image = (key - e0 * p0) * base + e0
                if image != key:
                    join(parent, key, image)
        if m >= 2:
            # the transposition of the first two variables, once per pair
            # {e, tau(e)}: from the key with e_1 > e_0
            for key in basis:
                if len(parent) == dim:
                    break
                e0 = key // p0
                e1 = key // p1 % base
                if e1 > e0:
                    join(parent, key, key + (e1 - e0) * (p0 - p1))
        coeffs.append(dim - len(parent))
    return TruncatedSeries(cutoff, tuple(coeffs))


def invariants_hilbert_closedform(problem: GradedActionProblem) -> TruncatedSeries:
    """The expected answer: a free polynomial ring on generators of degrees
    r, 2r, ..., m*r (the elementary symmetric functions of the eta_j^r),
    the degrees in 1..m*r that the engine's rule keeps.  The series ignores
    the degrees above its cutoff, so only 1..min(m*r, cutoff) are read."""
    if problem.permutation != FULL_SYMMETRIC:
        raise InputError("invariant oracle needs the full symmetric permutation component")
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
    factor."""
    block, power = [1], 1
    for _ in range(r):
        block = [(b + power * lower) % l for b, lower in zip(block + [0], [0] + block)]
        power = power * q % l
    return block


def _monomial(exponents: tuple[int, ...]) -> str:
    return "*".join(
        f"eta_{j}" if e == 1 else f"eta_{j}^{e}" for j, e in enumerate(exponents, start=1) if e
    )


def _term(coefficient: int, exponents: tuple[int, ...]) -> str:
    """One term: 0, or the monomial, after its coefficient when that is
    not 1."""
    if coefficient == 0:
        return "0"
    monomial = _monomial(exponents)
    return monomial if coefficient == 1 else f"{coefficient}*{monomial}"


def _wrong_term(m: int, exponents: tuple[int, ...], coefficient: int, expected=None) -> str:
    """The witness for one term of the m-block class: at m = 1, where the
    term is the whole component of its degree, that component; above, the
    monomial and its coefficient."""
    degree = sum(exponents)
    if m == 1:
        got = _term(coefficient, exponents)
        if expected is None:
            return f"degree {degree}: {got}"
        return f"degree {degree}: got {got}, expected {_term(expected, exponents)}"
    text = f"degree {degree}: {_monomial(exponents)} has coefficient {coefficient}"
    return text if expected is None else f"{text}, expected {expected}"


def _sum_to_a_multiple(off: list[int], r: int, m: int) -> tuple[int, ...] | None:
    """At most m entries of ``off``, repeats allowed, whose sum is a
    multiple of r, found by a search over the residues mod r that keeps
    the first entries to reach each residue; None when there are none."""
    reached = {0: ()}
    for _ in range(m):
        layer = {}
        for residue, entries in reached.items():
            for k in off:
                layer.setdefault((residue + k) % r, entries + (k,))
        if 0 in layer:
            return layer[0]
        reached = layer
    return None


def verify_restricted_chern(m: int, params: GaloisParams) -> VerificationReport:
    """Check the expected shape of the restricted total Chern class
    prod_{j=1..m} B(eta_j), with one block B(eta) = prod_{i<r} (1 + q^i eta):

    1. homogeneous components vanish in degrees not divisible by r;
    2. the degree-i*r component is (-1)^{(r-1)i} e_i(eta_1^r, ..., eta_m^r);
    3. for m = 1, the degree-r coefficient is q^{r(r-1)/2} = (-1)^{r-1} mod l.

    The blocks are in distinct variables, so the class has the coefficient
    b_{k_1} ... b_{k_m} at eta_1^{k_1} ... eta_m^{k_m}: distinct exponent
    vectors are distinct monomials, and F_l has no zero divisors, so no
    term cancels and the clauses are read off the r + 1 coefficients b_k
    of the block alone.  With b_0 = 1, clause 1 fails exactly when some
    b_k with 0 < k < r is nonzero.  Clause 2 compares the terms whose
    exponents are all 0 or r, with coefficient a power of b_r, against
    (-1)^{(r-1)i} e_i(eta^r), which they match exactly when b_r = (-1)^{r-1};
    every other term of degree i*r is a wrong term, and one exists exactly
    when at most m of the nonzero off-degree exponents sum to a multiple of
    r.  At m = 1 the block is the class, so clauses 1 and 3 are the scalar
    identities e_j(1, q, ..., q^{r-1}) = 0 mod l for 0 < j < r and
    q^{r(r-1)/2} = (-1)^{r-1} mod l.

    Each witness names the wrong terms: at m = 1 the whole component, at
    m >= 2 one monomial for each wrong block coefficient and one for the
    search.  Failures are reported, not raised.
    """
    m = _integer(m, "m")
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    l, r = params.l, params.r
    block = _chern_block(params.q, r, l)
    sign = (-1) ** (r - 1) % l
    off = [k for k in range(1, r) if block[k]]
    offenders = [_wrong_term(m, (k,), block[k]) for k in off]
    mismatches = [] if block[r] == sign else [_wrong_term(m, (r,), block[r], sign)]
    if exponents := _sum_to_a_multiple(off, r, m):
        mismatches.append(_wrong_term(m, exponents, prod(block[k] for k in exponents) % l, 0))
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
