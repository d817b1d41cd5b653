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
* the total Chern class of the restricted lift on m blocks, expanded as an
  honest product of linear factors, each block's r factors multiplied
  together before the block joins the running product, and checked clause
  by clause against the components of one generating product of the
  eta_j^r.

None of these share logic with the closed forms they are compared against:
the coinvariant spanning set is the generic degree-by-degree one, which
never reads r, not the one-line diagonal shortcut, and the Chern class is
multiplied out factor by factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import GaloisParams, multiplicative_order, require_prime
from .errors import InputError, ResourceLimitError, _integer
from .poly import (
    ModPolynomial,
    TruncatedSeries,
    _checked_weights,
    generators,
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
    "brauer_chern_total_class",
    "chern_scalar_checks",
    "coinvariants_hilbert_bruteforce",
    "coinvariants_hilbert_closedform",
    "invariants_hilbert_bruteforce",
    "invariants_hilbert_closedform",
    "verify_restricted_chern",
]

DEFAULT_MONOMIAL_LIMIT = 20_000

NO_PERMUTATION = "none"
FULL_SYMMETRIC = "full_symmetric"


@dataclass(frozen=True)
class GradedActionProblem:
    """A diagonal action of gamma (scaling a degree-w monomial by q^w) on a
    graded polynomial ring with the given variable weights, over F_l,
    optionally extended by the full symmetric group permuting the variables."""

    weights: tuple[int, ...]
    l: int
    q: int
    cutoff: int
    permutation: str = NO_PERMUTATION
    monomial_limit: int = DEFAULT_MONOMIAL_LIMIT

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_weights(self.weights))
        for name in ("l", "q", "cutoff", "monomial_limit"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        require_prime(self.l, "l")
        if self.q < 1 or gcd(self.q, self.l) != 1:
            raise InputError(f"q = {self.q} must be positive and prime to l = {self.l}")
        if self.cutoff < 0:
            raise InputError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.permutation not in (NO_PERMUTATION, FULL_SYMMETRIC):
            raise InputError(f"unknown permutation component {self.permutation!r}")
        if self.monomial_limit < 1:
            raise InputError("monomial limit must be positive")


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
    """Series of the free polynomial ring on the variables whose weight is
    divisible by r = ord(q mod l): the closed-form answer for the
    coinvariants of the diagonal action."""
    _require_cyclic(problem)
    r = multiplicative_order(problem.q, problem.l)
    kept = [w for w in problem.weights if w % r == 0]
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
    r, 2r, ..., m*r (the elementary symmetric functions of the eta_j^r)."""
    if problem.permutation != FULL_SYMMETRIC:
        raise InputError("invariant oracle needs the full symmetric permutation component")
    m = len(problem.weights)
    r = multiplicative_order(problem.q, problem.l)
    return hilbert_series_of_free_polynomial_ring([i * r for i in range(1, m + 1)], problem.cutoff)


# -- Chern classes of the restricted lift -----------------------------------


def brauer_chern_total_class(m: int, params: GaloisParams) -> ModPolynomial:
    """Total Chern class of the restricted lift on m blocks:
    prod_{j=1..m} prod_{i=0..r-1} (1 + q^i eta_j) in F_l[eta_1, ..., eta_m].

    Each block's r linear factors are multiplied together first, from
    1 + eta_j, and the running product is then multiplied by the block,
    the first block being the start: the same m*r factors in m*r - 1
    products, none of them of the running product by a single factor."""
    m = _integer(m, "m")
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    l, r = params.l, params.r
    variables = tuple((f"eta_{j}", 1) for j in range(1, m + 1))
    # m*r linear factors: the product has degree exactly m*r
    total = None
    for eta in generators(l, variables, m * r):
        block = 1 + eta
        for i in range(1, r):
            block = block * (1 + pow(params.q, i, l) * eta)
        total = block if total is None else total * block
    return total


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: str | None = None
    instances: int = 1


@dataclass(frozen=True)
class VerificationReport:
    parameters: tuple[tuple[str, int], ...]
    clauses: tuple[Clause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def _clause(name: str, failures: list[str]) -> Clause:
    """The clause that passes when there are no failures, witnessed by all
    of them otherwise."""
    return Clause(name, not failures, "; ".join(failures) if failures else None)


def _top_power_failures(q: int, l: int, r: int, coefficient: int | None = None) -> list[str]:
    """The witness, if any, against q^{r(r-1)/2} = (-1)^{r-1} mod l; a
    coefficient, when given, must equal both and is named first."""
    power, sign = pow(q, r * (r - 1) // 2, l), (-1) ** (r - 1) % l
    if power == sign and coefficient in (None, sign):
        return []
    lead = "" if coefficient is None else f"coefficient {coefficient}, "
    return [f"{lead}q^{{r(r-1)/2}} = {power}, sign {sign}"]


def verify_restricted_chern(m: int, params: GaloisParams) -> VerificationReport:
    """Check the expected shape of the restricted total Chern class:

    1. homogeneous components vanish in degrees not divisible by r;
    2. the degree-i*r component is (-1)^{(r-1)i} e_i(eta_1^r, ..., eta_m^r);
    3. for m = 1, the degree-r coefficient is q^{r(r-1)/2} = (-1)^{r-1} mod l.

    The expected components of clause 2 are those of one product,
    prod_j (1 + (-1)^{r-1} eta_j^r), whose degree-i*r component is
    (-1)^{(r-1)i} e_i(eta^r); both classes are split into components once.
    Failures are reported, not raised.
    """
    l, r = params.l, params.r
    total = brauer_chern_total_class(m, params)
    components = total.homogeneous_components()
    offenders = [f"degree {d}: {comp}" for d, comp in components.items() if d % r != 0]
    sign = (-1) ** (r - 1) % l
    expected_class = total.one()
    for eta in generators(l, total.variables, total.cutoff):
        expected_class = expected_class * (1 + sign * eta**r)
    expected_components = expected_class.homogeneous_components()
    zero = ModPolynomial(l, total.variables, total.cutoff)
    mismatches = []
    for d in range(r, m * r + 1, r):
        got, expected = components.get(d, zero), expected_components.get(d, zero)
        if got != expected:
            mismatches.append(f"degree {d}: got {got}, expected {expected}")
    clauses = [
        _clause("off_degree_components_vanish", offenders),
        _clause("symmetric_function_identity", mismatches),
    ]
    if m == 1:
        top = _top_power_failures(params.q, l, r, total.coefficient((r,)))
        clauses.append(_clause("top_coefficient_sign", top))
    return VerificationReport(
        parameters=(("m", m), ("p", params.p), ("q", params.q), ("l", l), ("r", r)),
        clauses=tuple(clauses),
    )


def chern_scalar_checks(l: int, q: int) -> VerificationReport:
    """Scalar identities behind the Chern-class computation: with r the order
    of q mod l, e_j(1, q, ..., q^{r-1}) vanishes mod l for 0 < j < r, and
    q^{r(r-1)/2} = (-1)^{r-1} mod l."""
    r = multiplicative_order(q, l)
    # e_0, ..., e_{r-1} of 1, q, ..., q^{r-1} mod l in one pass: multiply out
    # prod_{i<r} (1 + q^i t) factor by factor, dropping t^r
    es = [1] + [0] * (r - 1)
    for k in range(r):
        power = pow(q, k, l)
        for j in range(min(k + 1, r - 1), 0, -1):
            es[j] = (es[j] + power * es[j - 1]) % l
    failures = [f"e_{j} = {value}" for j, value in enumerate(es) if j and value]
    return VerificationReport(
        parameters=(("q", q), ("l", l), ("r", r)),
        clauses=(
            _clause("intermediate_symmetric_values_vanish", failures),
            _clause("top_power_is_sign", _top_power_failures(q, l, r)),
        ),
    )
