"""Property tests of the packed monomial enumerator behind both oracles,
driven by hypothesis against a brute-force enumeration of exponent tuples
and against the decoding of its keys; two differential tests of the
invariant oracle's orbit count: against term-by-term reduction of every
row of (g - id), with the generator images found by unpack -> permute ->
repack, and against sympy's joint nullspace over
GF(l) of the matrices (g - id); a differential test of the coinvariant
oracle against the enumeration of every monomial pair; tests that the
coinvariant oracle enumerates the monomials once when some degree needs
them and never when q = 1 mod l; tests that the invariant oracle's
action table, built once per (m, cutoff), changes no series and no
refusal; and a differential test of the restricted Chern clauses, read
off one drawn block, against sympy's expansion of the m-block product
over GF(l).

hypothesis and sympy are test-only dependencies (the `test` extra); the
module is skipped where hypothesis is missing, and the nullspace and
Chern clause tests where sympy is.
"""

from itertools import product
from math import prod
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring import oracles  # noqa: E402
from chevring.arith import galois_params  # noqa: E402
from chevring.errors import ResourceLimitError  # noqa: E402
from chevring.oracles import (  # noqa: E402
    FULL_SYMMETRIC,
    GradedActionProblem,
    _checked_dimensions,
    coinvariants_hilbert_bruteforce,
    invariants_hilbert_bruteforce,
    verify_restricted_chern,
)
from chevring.poly import (  # noqa: E402
    TruncatedSeries,
    hilbert_series_of_free_polynomial_ring,
    packed_monomials,
)


def _exponents(key, n, base):
    """The n exponents packed in key by packed_monomials with this base."""
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        digits[i] = key % base
        key //= base
    return tuple(digits)


def _pack(exps, base):
    key = 0
    for x in exps:
        key = key * base + x
    return key


def _tuples_by_degree(weights, cutoff):
    """Every exponent tuple of weighted degree <= cutoff, by degree."""
    out = [set() for _ in range(cutoff + 1)]
    for e in product(*(range(cutoff // w + 1) for w in weights)):
        d = sum(x * w for x, w in zip(e, weights))
        if d <= cutoff:
            out[d].add(e)
    return out


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    cutoff=st.integers(0, 14),
    data=st.data(),
)
# a weight of 1 puts an exponent equal to the cutoff in the top degree,
# where a base of cutoff (not cutoff + 1) would carry
@example(weights=(1,), cutoff=14, data=None)
@example(weights=(1, 1), cutoff=1, data=None)
@example(weights=(3, 1, 2, 1), cutoff=9, data=None)
def test_packed_monomials_match_exponent_tuples(weights, cutoff, data):
    n, base = len(weights), cutoff + 1
    packed = packed_monomials(weights, cutoff)
    expected = _tuples_by_degree(weights, cutoff)
    unpack = {k: _exponents(k, n, base) for keys in packed for k in keys}

    assert len(packed) == cutoff + 1
    for d, keys in enumerate(packed):
        assert len(set(keys)) == len(keys)
        assert {unpack[k] for k in keys} == expected[d]
        assert keys == sorted(keys)
    # key order is lexicographic order of exponents, across degrees too
    keys = sorted(unpack)
    assert [unpack[k] for k in keys] == sorted(unpack.values())

    # the sum of two keys is the product, for every product of degree <= cutoff:
    # always the lexicographically largest pair, which puts the most on one
    # variable, and some drawn pairs besides
    pairs = [(packed[i][-1], packed[cutoff - i][-1])
             for i in range(cutoff + 1) if packed[i] and packed[cutoff - i]]
    if data is not None:
        for _ in range(20):
            i = data.draw(st.integers(0, cutoff))
            j = data.draw(st.integers(0, cutoff - i))
            if packed[i] and packed[j]:
                pairs.append((data.draw(st.sampled_from(packed[i])),
                              data.draw(st.sampled_from(packed[j]))))
    for a, b in pairs:
        assert _exponents(a + b, n, base) == tuple(
            x + y for x, y in zip(unpack[a], unpack[b])
        )


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    cutoff=st.integers(0, 14),
)
@example(weights=(1,), cutoff=14)
@example(weights=(1, 1), cutoff=1)
@example(weights=(3, 1, 2, 1), cutoff=9)
def test_packed_keys_are_the_exponents_of_their_degree(weights, cutoff):
    """Each key of degree d decodes to exponents e of weighted degree d, and
    re-encodes as sum e_i * B^(n-1-i); each degree holds as many keys as its
    free-ring Hilbert coefficient; and key order is the lexicographic order
    of the exponent tuples."""
    n, base = len(weights), cutoff + 1
    packed = packed_monomials(weights, cutoff)
    series = hilbert_series_of_free_polynomial_ring(weights, cutoff)
    decoded = []
    for d, keys in enumerate(packed):
        assert len(keys) == series[d]
        for k in keys:
            e = _exponents(k, n, base)
            assert sum(x * w for x, w in zip(e, weights)) == d
            assert sum(x * base ** (n - 1 - i) for i, x in enumerate(e)) == k
            decoded.append((k, e))
    decoded.sort()
    assert [e for _, e in decoded] == sorted(e for _, e in decoded)


def _generator_rows(m, l, q, cutoff):
    """Every nonzero row of (g - id) over the monomial basis, one dict
    {g: [(e, row), ...]} per degree, key by key, for g the scaling gamma of
    the first variable, the transposition tau of the first two variables
    and the m-cycle sigma (for m >= 3; at m = 2 it is tau).  The row is
    (1 - q^{e_0}) e for gamma and e - g(e) otherwise, with the image g(e)
    found by unpack -> permute -> repack.  Both rows of each pair
    {e, tau(e)} are listed."""
    base = cutoff + 1
    by_degree = []
    for keys in packed_monomials((1,) * m, cutoff):
        rows = {"gamma": [], "tau": [], "sigma": []}
        for key in keys:
            e = _exponents(key, m, base)
            scale = (1 - pow(q, e[0], l)) % l
            if scale:
                rows["gamma"].append((e, {key: scale}))
            images = {}
            if m >= 2:
                images["tau"] = (e[1], e[0], *e[2:])
            if m >= 3:
                images["sigma"] = (*e[1:], e[0])
            for g, image in images.items():
                if image != e:
                    rows[g].append((e, {key: 1, _pack(image, base): l - 1}))
        by_degree.append(rows)
    return by_degree


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    cutoff=st.integers(0, 14),
    lq=st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda l: st.tuples(st.just(l), st.integers(1, l - 1))
    ),
)
# every run holds monomials with an exponent equal to the cutoff, in each
# place; these put the largest such digits at the largest and smallest m
@example(m=1, cutoff=14, lq=(13, 2))
@example(m=2, cutoff=14, lq=(2, 1))
@example(m=3, cutoff=14, lq=(11, 10))
@example(m=6, cutoff=14, lq=(7, 3))
@example(m=6, cutoff=1, lq=(3, 2))
@example(m=4, cutoff=0, lq=(5, 1))
# q = 1 mod l, where no scaling row exists; r = 2 with m = 1, where every
# odd degree is full after its one scaling row; and the largest case
@example(m=5, cutoff=12, lq=(13, 1))
@example(m=1, cutoff=12, lq=(3, 2))
@example(m=5, cutoff=12, lq=(2, 1))
@example(m=4, cutoff=12, lq=(7, 3))
def test_the_orbit_count_is_the_rank_of_every_generator_row(m, cutoff, lq):
    """The oracle's series equals dim R_d less the rank of every row of
    (gamma - id), (tau - id) and (sigma - id), with the images found by
    unpack -> permute -> repack and both rows of each transposed pair
    included, reduced term by term."""
    l, q = lq
    problem = GradedActionProblem(
        weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
    )
    coefficients = []
    for dim, rows in zip(_checked_dimensions(problem), _generator_rows(m, l, q, cutoff)):
        pivots = {}
        for g in rows.values():
            for _, row in g:
                _general_loop(l, pivots, row)
        coefficients.append(dim - len(pivots))
    assert invariants_hilbert_bruteforce(problem) == TruncatedSeries(cutoff, tuple(coefficients))


def _generator_matrices(m, l, q, d):
    """The matrices of gamma, tau (m >= 2) and sigma (m >= 3) on the
    monomials of degree d in m variables, over GF(l), with the monomials
    listed as exponent tuples and each image found by permuting the tuple
    or scaling it by q^{e_0}."""
    basis = sorted(e for e in product(range(d + 1), repeat=m) if sum(e) == d)
    index = {e: i for i, e in enumerate(basis)}
    maps = [lambda e: (e, pow(q, e[0], l))]
    if m >= 2:
        maps.append(lambda e: ((e[1], e[0], *e[2:]), 1))
    if m >= 3:
        maps.append(lambda e: ((*e[1:], e[0]), 1))
    matrices = []
    for g in maps:
        matrix = [[0] * len(basis) for _ in basis]
        for e in basis:
            image, c = g(e)
            matrix[index[image]][index[e]] = c
        matrices.append(matrix)
    return len(basis), matrices


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l", [2, 3, 5, 7, 11, 13])
def test_the_invariant_series_is_sympys_joint_nullspace(m, l):
    """For every q < l and cutoff <= 6, each coefficient of the oracle's
    series is the dimension of sympy's nullspace over GF(l) of the stacked
    matrices (g - id), g = gamma, tau, sigma, on the monomials of that
    degree: the invariants themselves, with no rows or orbits formed."""
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    field = pytest.importorskip("sympy").GF(l)
    for q in range(1, l):
        kernel = []
        for d in range(7):
            n, matrices = _generator_matrices(m, l, q, d)
            stacked = [
                [field(c - (i == j)) for j, c in enumerate(row)]
                for matrix in matrices
                for i, row in enumerate(matrix)
            ]
            nullspace = DomainMatrix(stacked, (len(stacked), n), field).nullspace()
            kernel.append(nullspace.shape[0])
        for cutoff in range(7):
            problem = GradedActionProblem(
                weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
            )
            series = invariants_hilbert_bruteforce(problem)
            assert series.coefficients == tuple(kernel[: cutoff + 1]), (q, cutoff)


def _sweep_of_the_nullspace_grid():
    """The oracle's series over the grid of the sympy nullspace test: every
    m <= 3, l <= 13, q < l and cutoff <= 6."""
    return [
        invariants_hilbert_bruteforce(
            GradedActionProblem(
                weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
            )
        )
        for m in (1, 2, 3)
        for l in (2, 3, 5, 7, 11, 13)
        for q in range(1, l)
        for cutoff in range(7)
    ]


def test_a_cold_and_a_warm_action_table_give_the_same_series():
    oracles._action_table.cache_clear()
    cold = _sweep_of_the_nullspace_grid()
    assert oracles._action_table.cache_info().misses == 3 * 7
    warm = _sweep_of_the_nullspace_grid()
    assert warm == cold


def test_each_call_on_a_warm_table_searches_with_its_own_q():
    """The table is shared by (m, cutoff), the orbit search is not: q = 1
    keeps every orbit of F_5[eta_1, eta_2], and q = 2, of order 4, only
    the degrees divisible by 4."""
    oracles._action_table.cache_clear()
    series = {}
    for q in (1, 2):
        problem = GradedActionProblem((1, 1), 5, q, 4, permutation=FULL_SYMMETRIC)
        series[q] = invariants_hilbert_bruteforce(problem).coefficients
    assert oracles._action_table.cache_info().misses == 1
    assert series == {1: (1, 1, 2, 2, 3), 2: (1, 0, 0, 0, 1)}


def test_the_monomial_limit_refuses_before_a_table_and_beside_a_warm_one():
    """A refused problem builds no table, and one whose (m, cutoff) table is
    already built is still refused, with the same text."""
    refused = GradedActionProblem(
        (1, 1, 1), 7, 3, 6, permutation=FULL_SYMMETRIC, monomial_limit=27
    )
    text = "degree 6: 28 monomials exceed the configured limit of 27"
    oracles._action_table.cache_clear()
    with pytest.raises(ResourceLimitError) as cold:
        invariants_hilbert_bruteforce(refused)
    assert oracles._action_table.cache_info().currsize == 0
    invariants_hilbert_bruteforce(
        GradedActionProblem((1, 1, 1), 7, 3, 6, permutation=FULL_SYMMETRIC)
    )
    with pytest.raises(ResourceLimitError) as warm:
        invariants_hilbert_bruteforce(refused)
    assert oracles._action_table.cache_info().currsize == 1
    assert str(cold.value) == str(warm.value) == text


def test_the_action_table_cache_is_bounded():
    assert oracles._action_table.cache_info().maxsize is not None


# -- the coinvariant oracle -----------------------------------------------------


def _coinvariants_all_pairs(problem):
    """The coinvariant oracle as it fed every product M*b of each degree
    d: the reference for the degree-by-degree construction."""
    l, cutoff = problem.l, problem.cutoff
    q0 = problem.q % l
    dims = _checked_dimensions(problem)
    basis = packed_monomials(problem.weights, cutoff)

    coeffs = []
    for d in range(cutoff + 1):
        dim = dims[d]
        pivots = {}
        for w in range(d, 0, -1):
            if len(pivots) == dim:
                break
            v = (1 - pow(q0, w, l)) % l
            if not v:
                continue
            for b in basis[w]:
                for mono in basis[d - w]:
                    _general_loop(l, pivots, {b + mono: v})
                if len(pivots) == dim:
                    break
        coeffs.append(dim - len(pivots))
    return TruncatedSeries(cutoff, tuple(coeffs))


@settings(max_examples=150, deadline=None)
@given(
    weights=st.lists(st.integers(1, 9), max_size=4).map(tuple),
    lq=st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda l: st.tuples(st.just(l), st.integers(1, 4 * l).filter(lambda q: q % l))
    ),
    cutoff=st.integers(0, 13),
)
# no variables; weights above the cutoff, alone and beside small ones; and
# q = 1 mod l, where no generator row survives
@example(weights=(), lq=(5, 2), cutoff=13)
@example(weights=(9,), lq=(7, 3), cutoff=5)
@example(weights=(9, 1, 8), lq=(3, 2), cutoff=7)
@example(weights=(1, 1, 2), lq=(11, 12), cutoff=13)
def test_coinvariants_match_the_all_pairs_enumeration(weights, lq, cutoff):
    l, q = lq
    problem = GradedActionProblem(weights=weights, l=l, q=q, cutoff=cutoff)
    assert coinvariants_hilbert_bruteforce(problem) == _coinvariants_all_pairs(problem)


def _counted_monomials():
    """Patch the coinvariant oracle's enumerator to count its calls."""
    return patch.object(oracles, "packed_monomials", wraps=packed_monomials)


@pytest.mark.parametrize("q", [1, 11])
def test_q_one_mod_l_enumerates_no_monomial(q):
    """With q = 1 mod l every J_d is empty: R is never enumerated and the
    series is that of the free ring on the weights."""
    weights = (1, 2, 2, 3)
    problem = GradedActionProblem(weights, 5, q, 12)
    with _counted_monomials() as counted:
        series = coinvariants_hilbert_bruteforce(problem)
    assert counted.call_count == 0
    assert series == hilbert_series_of_free_polynomial_ring(weights, 12)


@pytest.mark.parametrize("l, q", [(5, 2), (5, 4), (5, 12), (7, 2), (7, 6), (13, 3)])
def test_q_not_one_mod_l_enumerates_the_monomials_once(l, q):
    problem = GradedActionProblem((1, 2, 2, 3), l, q, 12)
    with _counted_monomials() as counted:
        series = coinvariants_hilbert_bruteforce(problem)
    assert counted.call_count == 1
    assert series == _coinvariants_all_pairs(problem)


def test_the_monomial_limit_refuses_q_one_mod_l_before_any_enumeration():
    """No degree needs the monomials when q = 1 mod l, and an oversize
    problem is still refused, with the same text, before any is formed."""
    problem = GradedActionProblem((1, 1, 1), 7, 8, 6, monomial_limit=27)
    with _counted_monomials() as counted, pytest.raises(ResourceLimitError) as refused:
        coinvariants_hilbert_bruteforce(problem)
    assert counted.call_count == 0
    assert str(refused.value) == "degree 6: 28 monomials exceed the configured limit of 27"


# -- the reference rank ----------------------------------------------------------


def _general_loop(l, pivots, row):
    """Reduce row, of any number of terms, against pivots term by term: add
    its normalised remainder as a new pivot and return True, or return False
    when it reduces to zero.  The reference for every rank in this file."""
    row = dict(row)
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            inv = pow(row[lead], -1, l)
            pivots[lead] = {e: c * inv % l for e, c in row.items()}
            return True
        f = row[lead]
        for e, pc in pivot.items():
            c = (row.get(e, 0) - f * pc) % l
            if c:
                row[e] = c
            elif e in row:
                del row[e]
    return False


@st.composite
def drawn_blocks(draw):
    """(l, q, block): a prime field F_q with q < 30 and l <= 13, and a block
    b_0 = 1, b_1, ..., b_r of any residues mod l, r <= 6."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if q != l]))
    r = draw(st.integers(1, 6))
    return l, q, [1] + draw(st.lists(st.integers(0, l - 1), min_size=r, max_size=r))


@settings(max_examples=200, deadline=None)
@given(drawn_blocks())
# a wrong top coefficient alone; off-degree exponents 1 + 2 = r, which
# m = 2 reaches; 1 + 1 + 1 = r, which only m = 3 reaches; and the true
# block at q = 3, l = 5, which passes
@example((5, 3, [1, 0, 0, 0, 1]))
@example((3, 2, [1, 1, 2, 2]))
@example((7, 2, [1, 1, 0, 1]))
@example((5, 3, [1, 0, 0, 0, 4]))
def test_the_chern_verdicts_match_the_expanded_block_product(case):
    """With the block replaced by a drawn one, `verify_restricted_chern`
    passes at each m <= 3 exactly when sympy's expansion of prod_j B(eta_j)
    over GF(l) is prod_j (1 + s eta_j^r), s = (-1)^{r-1}, and, at m = 1,
    q^{r(r-1)/2} = s; and at m = 1, the one-variable class, each clause has
    the verdict that sympy gives it."""
    sympy = pytest.importorskip("sympy")
    l, q, block = case
    r = len(block) - 1
    sign = (-1) ** (r - 1)
    power_is_sign = pow(q, r * (r - 1) // 2, l) == sign % l
    params = galois_params(q, q, l)
    object.__setattr__(params, "r", r)

    def degrees(poly):
        """The degree of each nonzero term."""
        return [sum(exps) for exps, c in poly.terms() if int(c) % l]

    for m in (1, 2, 3):
        with patch.object(oracles, "_chern_block", lambda q, r, l: block):
            report = verify_restricted_chern(m, params)
        etas = sympy.symbols(f"eta_1:{m + 1}")

        def over_etas(factor):
            """prod_j factor(eta_j), multiplied as polynomials over GF(l)."""
            return prod(sympy.Poly(factor(eta), *etas, modulus=l) for eta in etas)

        total = over_etas(lambda eta: sum(b * eta**k for k, b in enumerate(block)))
        expected = over_etas(lambda eta: 1 + sign * eta**r)
        assert report.passed == (total == expected and (m > 1 or power_is_sign)), (block, m)
        if m == 1:
            coefficient = int(total.coeff_monomial(etas[0] ** r)) % l
            want = {
                "off_degree_components_vanish": all(d % r == 0 for d in degrees(total)),
                "symmetric_function_identity": all(
                    d % r or d == 0 for d in degrees(total - expected)
                ),
                "top_coefficient_sign": coefficient == sign % l and power_is_sign,
            }
            assert {c.name: c.passed for c in report.clauses} == want, (block, want)
