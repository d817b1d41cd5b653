"""Property tests of the packed monomial enumerator behind both oracles,
of the degree-led keys ModPolynomial stores, and of the generator images
the invariant oracle forms on packed keys, driven by hypothesis against a
brute-force enumeration of exponent tuples; a differential test of the
coinvariant oracle against the enumeration of every monomial pair; a
differential test of the invariant oracle's spanning forest, _join,
against sympy's rank over GF(l) and against term-by-term reduction of
dict rows, the reference every rank here is checked against; and a
differential test of the restricted Chern clauses, read off one drawn
block, against sympy's expansion of the m-block product over GF(l).

hypothesis and sympy are test-only dependencies (the `test` extra); the
module is skipped where hypothesis is missing, and the forest's and the
Chern clauses' tests where sympy is.
"""

from itertools import product
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring import oracles  # noqa: E402
from chevring.arith import galois_params  # noqa: E402
from chevring.errors import InputError  # noqa: E402
from chevring.oracles import (  # noqa: E402
    FULL_SYMMETRIC,
    GradedActionProblem,
    _SINK,
    _checked_dimensions,
    _join,
    coinvariants_hilbert_bruteforce,
    invariants_hilbert_bruteforce,
    verify_restricted_chern,
)
from chevring.poly import (  # noqa: E402
    ModPolynomial,
    TruncatedSeries,
    generators,
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
def test_polynomial_keys_are_degree_then_packed_exponents(weights, cutoff):
    """The ModPolynomial monomial with exponents e of degree d, a product of
    generator powers, is stored under d * (cutoff + 1)^n plus the
    packed_monomials key of e: both sides share one layout.  A context with
    a weight above the cutoff refuses its generators, so there only 1 is
    built, under key 0."""
    n, base = len(weights), cutoff + 1
    variables = tuple((f"x{i}", w) for i, w in enumerate(weights))
    one = ModPolynomial(7, variables, cutoff).one()
    assert one.terms == {0: 1}
    if max(weights) > cutoff:
        with pytest.raises(InputError, match="exceeds the cutoff"):
            generators(7, variables, cutoff)
        return
    gens = generators(7, variables, cutoff)
    for d, keys in enumerate(packed_monomials(weights, cutoff)):
        for k in keys:
            monomial = one
            for x, e in zip(gens, _exponents(k, n, base)):
                monomial = monomial * x**e
            assert monomial.terms == {d * base**n + k: 1}


def _rows_fed_to_forest(problem):
    """Every row invariants_hilbert_bruteforce gives _join, in order, as
    (a, b) pairs, one list per degree that has rows: each new parent dict
    starts a degree.  The recorder never merges, so the oracle never reaches
    full rank and feeds every row."""
    parents, rows = [], []

    def recorder(parent, a, b=_SINK):
        assert not parent
        if not parents or parent is not parents[-1]:
            parents.append(parent)
            rows.append([])
        rows[-1].append((a, b))

    with patch.object(oracles, "_join", recorder):
        invariants_hilbert_bruteforce(problem)
    return rows


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


def _edge(row):
    """The (key, image) pair of e - g(e), or (key, _SINK) for a one-term
    row, with key the packed e, which each row lists first."""
    key, *image = row
    return (key, image[0] if image else _SINK)


def _expected_rows(m, l, q, cutoff):
    """Every row the invariant oracle forms, as the pairs it gives _join,
    one list per degree that has rows, in its order: the scaling rows
    (1 - q^{e_0}) e, then the m-cycle rows key by key, then one
    transposition row per pair {e, tau(e)}, from the key with e_1 > e_0."""
    expected = [
        [_edge(row) for _, row in rows["gamma"]]
        + [_edge(row) for _, row in rows["sigma"]]
        + [_edge(row) for e, row in rows["tau"] if e[1] > e[0]]
        for rows in _generator_rows(m, l, q, cutoff)
    ]
    return [rows for rows in expected if rows]


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
def test_invariant_rows_are_unpack_permute_repack(m, cutoff, lq):
    l, q = lq
    problem = GradedActionProblem(
        weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
    )
    assert _rows_fed_to_forest(problem) == _expected_rows(m, l, q, cutoff)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    cutoff=st.integers(0, 12),
    lq=st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda l: st.tuples(st.just(l), st.integers(1, l - 1))
    ),
)
# q = 1 mod l, where no scaling row exists; r = 2 with m = 1, where every
# odd degree is full after its one scaling row; and the largest case
@example(m=5, cutoff=12, lq=(13, 1))
@example(m=1, cutoff=12, lq=(3, 2))
@example(m=5, cutoff=12, lq=(2, 1))
@example(m=4, cutoff=12, lq=(7, 3))
def test_the_full_rank_stop_loses_nothing(m, cutoff, lq):
    """The oracle's series equals the one from every row of (gamma - id),
    (tau - id) and (sigma - id), both rows of each transposed pair
    included, reduced term by term with no stop; and no row reaches _join
    once the rank is the dimension of the degree."""
    l, q = lq
    problem = GradedActionProblem(
        weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
    )
    dims = _checked_dimensions(problem)
    base = cutoff + 1

    def checked(parent, a, b=_SINK):
        assert len(parent) < dims[sum(_exponents(a, m, base))]
        _join(parent, a, b)

    with patch.object(oracles, "_join", checked):
        series = invariants_hilbert_bruteforce(problem)

    coefficients = []
    for dim, rows in zip(dims, _generator_rows(m, l, q, cutoff)):
        pivots = {}
        for g in rows.values():
            for _, row in g:
                _general_loop(l, pivots, row)
        coefficients.append(dim - len(pivots))
    assert series == TruncatedSeries(cutoff, tuple(coefficients))


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


# -- the spanning forest ---------------------------------------------------------

KEYS = 8


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
def edge_rows(draw):
    """(l, rows): rows c*(e_a - e_b) and c*e_a, with c != 0 drawn at random,
    on the keys 0..KEYS-1, key 0 included, as (a, b, c) with b = _SINK for
    a one-term row."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    coefficient = st.integers(1, l - 1)
    one = st.tuples(st.integers(0, KEYS - 1), st.just(_SINK), coefficient)
    two = st.tuples(
        st.lists(st.integers(0, KEYS - 1), min_size=2, max_size=2, unique=True),
        coefficient,
    ).map(lambda t: (*t[0], t[1]))
    return l, draw(st.lists(st.one_of(one, two), min_size=1, max_size=24))


@settings(max_examples=150, deadline=None)
@given(edge_rows())
# rows on key 0: as the lone term, as an edge's second key, and as the key
# a path of edges ends on
@example((7, [(0, _SINK, 3), (2, 0, 1), (0, _SINK, 5)]))
@example((5, [(1, 0, 2), (2, 1, 3), (2, _SINK, 3), (1, _SINK, 1)]))
def test_forest_matches_sympy_rank_and_the_general_loop(case):
    """Rows fed as key pairs through _join give, row by row, sympy's rank
    over GF(l) of the rows so far as len(parent), and term-by-term
    reduction of the same rows as dicts grows to the same rank."""
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    GF = pytest.importorskip("sympy").GF
    l, rows = case
    field = GF(l)
    parent, pivots, fed = {}, {}, []
    for a, b, c in rows:
        row = {a: c} if b == _SINK else {a: c, b: -c % l}
        fed.append(row)
        _join(parent, a, b)
        _general_loop(l, pivots, row)
        matrix = DomainMatrix(
            [[field(r.get(k, 0)) for k in range(KEYS)] for r in fed], (len(fed), KEYS), field
        )
        assert len(parent) == matrix.rank() == len(pivots)


@st.composite
def drawn_blocks(draw):
    """(l, q, m, block): a prime field F_q with q < 30 and l <= 13, m <= 3,
    and a block b_0 = 1, b_1, ..., b_r of any residues mod l, r <= 6."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if q != l]))
    r = draw(st.integers(1, 6))
    block = [1] + draw(st.lists(st.integers(0, l - 1), min_size=r, max_size=r))
    return l, q, draw(st.integers(1, 3)), block


@settings(max_examples=200, deadline=None)
@given(drawn_blocks())
# a wrong top coefficient alone, off-degree exponents 1 + 2 = r at m = 2,
# and 1 + 1 + 1 = r, which only m = 3 reaches
@example((5, 3, 2, [1, 0, 0, 0, 1]))
@example((3, 2, 2, [1, 1, 2, 2]))
@example((7, 2, 3, [1, 1, 0, 1]))
@example((7, 2, 2, [1, 1, 0, 1]))
def test_the_chern_verdicts_match_the_expanded_block_product(case):
    """With the block replaced by a drawn one, each clause of
    `verify_restricted_chern` has the verdict that sympy's expansion of
    prod_j B(eta_j) over GF(l) gives it."""
    sympy = pytest.importorskip("sympy")
    l, q, m, block = case
    r = len(block) - 1
    params = galois_params(q, q, l)
    object.__setattr__(params, "r", r)
    with patch.object(oracles, "_chern_block", lambda q, r, l: block):
        report = verify_restricted_chern(m, params)
    got = {c.name: c.passed for c in report.clauses}

    etas = sympy.symbols(f"eta_1:{m + 1}")
    sign = (-1) ** (r - 1)
    total = sympy.Poly(
        sympy.Mul(*(sum(b * eta**k for k, b in enumerate(block)) for eta in etas)),
        *etas, modulus=l,
    )
    expected = sympy.Poly(sympy.Mul(*(1 + sign * eta**r for eta in etas)), *etas, modulus=l)

    def degrees(poly):
        """The degree of each nonzero term."""
        return [sum(exps) for exps, c in poly.terms() if int(c) % l]

    want = {
        "off_degree_components_vanish": all(d % r == 0 for d in degrees(total)),
        "symmetric_function_identity": all(d % r or d == 0 for d in degrees(total - expected)),
    }
    if m == 1:
        coefficient = int(total.coeff_monomial(etas[0] ** r)) % l
        want["top_coefficient_sign"] = (
            coefficient == pow(q, r * (r - 1) // 2, l) == sign % l
        )
    assert got == want, (block, got, want)
