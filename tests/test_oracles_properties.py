"""Property tests of the packed monomial enumerator behind both oracles,
of the degree-led keys ModPolynomial stores, and of the generator images
the invariant oracle forms on packed keys, driven by hypothesis against a
brute-force enumeration of exponent tuples; a differential test of the
coinvariant oracle against the enumeration of every monomial pair; and
differential tests of the F_l eliminator's one entry, add_terms, against
sympy's rank over GF(l) and against term-by-term reduction of dict rows.

hypothesis and sympy are test-only dependencies (the `test` extra); the
module is skipped where hypothesis is missing, and the eliminator's test
where sympy is.
"""

from itertools import product
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring import oracles  # noqa: E402
from chevring.oracles import (  # noqa: E402
    FULL_SYMMETRIC,
    GradedActionProblem,
    _checked_dimensions,
    _SpanAccumulator,
    coinvariants_hilbert_bruteforce,
    invariants_hilbert_bruteforce,
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
    """The ModPolynomial monomial with exponents e of degree d is stored
    under d * (cutoff + 1)^n plus the packed_monomials key of e: both sides
    share one layout."""
    n, base = len(weights), cutoff + 1
    variables = tuple((f"x{i}", w) for i, w in enumerate(weights))
    for d, keys in enumerate(packed_monomials(weights, cutoff)):
        for k in keys:
            monomial = ModPolynomial(7, variables, cutoff, {_exponents(k, n, base): 1})
            assert monomial.terms == {d * base**n + k: 1}
    if max(weights) <= cutoff:
        for i, x in enumerate(generators(7, variables, cutoff)):
            unit = tuple(int(j == i) for j in range(n))
            assert x == ModPolynomial(7, variables, cutoff, {unit: 1})


def _rows_fed_to_eliminator(problem):
    """Every row invariants_hilbert_bruteforce gives its eliminator, in
    order, one list per degree.  The recorder's pivots stay empty, so the
    oracle never reaches full rank and feeds every row."""
    rows = []

    class Recorder:
        def __init__(self, l):
            self.l = l
            self.pivots = {}
            rows.append([])

        def add_terms(self, a, ca, b=0, cb=0):
            assert 0 < ca < self.l and 0 <= cb < self.l
            assert not cb or a > b
            rows[-1].append({a: ca, b: cb} if cb else {a: ca})

    with patch.object(oracles, "_SpanAccumulator", Recorder):
        invariants_hilbert_bruteforce(problem)
    return rows


def _expected_rows(m, l, q, cutoff):
    """Every nonzero row of the invariant oracle, one list per degree, in
    the order it forms them: the scaling rows (1 - q^{e_0}) e first, then
    the rows e - g(e) of the transposition and the m-cycle, key by key,
    with the images found by unpack -> permute -> repack."""
    base = cutoff + 1
    by_degree = []
    for keys in packed_monomials((1,) * m, cutoff):
        scaling, permutation = [], []
        for key in keys:
            e = _exponents(key, m, base)
            scale = (1 - pow(q, e[0], l)) % l
            if scale:
                scaling.append({key: scale})
            images = []
            if m >= 2:
                images.append((e[1], e[0], *e[2:]))
            if m >= 3:
                images.append((*e[1:], e[0]))
            permutation += [{key: 1, _pack(g, base): l - 1} for g in images if g != e]
        by_degree.append(scaling + permutation)
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
def test_invariant_rows_are_unpack_permute_repack(m, cutoff, lq):
    l, q = lq
    problem = GradedActionProblem(
        weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
    )
    assert _rows_fed_to_eliminator(problem) == _expected_rows(m, l, q, cutoff)


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
    """The oracle's series equals the one from every expected row fed to a
    fresh eliminator with no stop, and no row reaches its eliminator once
    the rank is the dimension of the degree."""
    l, q = lq
    problem = GradedActionProblem(
        weights=(1,) * m, l=l, q=q, cutoff=cutoff, permutation=FULL_SYMMETRIC
    )
    dims = _checked_dimensions(problem)
    degrees = []

    class Checked(_SpanAccumulator):
        def __init__(self, l):
            super().__init__(l)
            self.dim = dims[len(degrees)]
            degrees.append(self)

        def add_terms(self, a, ca, b=0, cb=0):
            assert len(self.pivots) < self.dim
            return super().add_terms(a, ca, b, cb)

    with patch.object(oracles, "_SpanAccumulator", Checked):
        series = invariants_hilbert_bruteforce(problem)
    assert len(degrees) == cutoff + 1

    coefficients = []
    for dim, rows in zip(dims, _expected_rows(m, l, q, cutoff)):
        acc = _SpanAccumulator(l)
        for row in rows:
            (a, ca), *rest = sorted(row.items(), reverse=True)
            acc.add_terms(a, ca, *(rest[0] if rest else ()))
        coefficients.append(dim - acc.rank)
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
        acc = _SpanAccumulator(l)
        add_terms = acc.add_terms
        for w in range(d, 0, -1):
            if acc.rank == dim:
                break
            v = (1 - pow(q0, w, l)) % l
            if not v:
                continue
            for b in basis[w]:
                for mono in basis[d - w]:
                    add_terms(b + mono, v)
                if acc.rank == dim:
                    break
        coeffs.append(dim - acc.rank)
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


# -- the eliminator -------------------------------------------------------------

KEYS = 8


def _flat(pivots):
    """Pivots stored as dicts {lead: 1, k1: c1, ...}, as _general_loop
    stores them, in the eliminator's flat form {lead: (k1, c1, ...)} with
    the tail keys decreasing."""
    flat = {}
    for lead, pivot in pivots.items():
        assert pivot[lead] == 1 and max(pivot) == lead
        tail = sorted((e for e in pivot if e != lead), reverse=True)
        flat[lead] = tuple(x for e in tail for x in (e, pivot[e]))
    return flat


def _general_loop(l, pivots, row):
    """Reduce row, of any number of terms, against pivots term by term: add
    its normalised remainder as a new pivot and return True, or return False
    when it reduces to zero.  The reference for add_terms."""
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
def short_rows(draw):
    """(l, rows): rows of one or two terms on the keys 0..KEYS-1, key 0
    included, as (a, c_a, b, c_b) with a > b and c_b = 0 for one term."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    coefficient = st.integers(1, l - 1)
    one = st.tuples(st.integers(0, KEYS - 1), coefficient, st.just(0), st.just(0))
    two = st.tuples(
        st.lists(st.integers(0, KEYS - 1), min_size=2, max_size=2, unique=True),
        coefficient,
        coefficient,
    ).map(lambda t: (max(t[0]), t[1], min(t[0]), t[2]))
    return l, draw(st.lists(st.one_of(one, two), min_size=1, max_size=24))


@settings(max_examples=150, deadline=None)
@given(short_rows())
@example((7, [(0, 3, 0, 0), (2, 1, 0, 4), (0, 5, 0, 0)]))
def test_eliminator_matches_sympy_rank_and_the_general_loop(case):
    """Rows fed as scalars through add_terms give, row by row, sympy's rank
    of the rows so far and grow exactly when that rank does, as
    term-by-term reduction does."""
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    GF = pytest.importorskip("sympy").GF
    l, rows = case
    field = GF(l)
    acc = _SpanAccumulator(l)
    reference = {}
    fed = []
    rank = 0
    for a, ca, b, cb in rows:
        row = {a: ca, b: cb} if cb else {a: ca}
        fed.append(row)
        grew = acc.add_terms(a, ca, b, cb)
        matrix = DomainMatrix(
            [[field(r.get(k, 0)) for k in range(KEYS)] for r in fed], (len(fed), KEYS), field
        )
        before, rank = rank, matrix.rank()
        assert acc.rank == rank
        assert grew == (rank > before)
        assert grew == _general_loop(l, reference, row)


@settings(max_examples=150, deadline=None)
@given(short_rows())
# rows on key 0: as the lone term, as the second term, and as the lead that
# a chain of two-term pivots ends on
@example((7, [(0, 3, 0, 0), (2, 1, 0, 4), (0, 5, 0, 0)]))
@example((5, [(1, 2, 0, 3), (2, 1, 1, 4), (2, 3, 0, 0), (1, 1, 0, 0)]))
def test_add_terms_matches_add_on_a_dict(case):
    """Rows fed as scalars through add_terms and as dicts, smaller key
    first, through term-by-term reduction give the same grow flags, the
    same pivots and the same rank, row by row; every pivot tail keeps zero
    or two entries."""
    l, rows = case
    acc = _SpanAccumulator(l)
    reference = {}
    for a, ca, b, cb in rows:
        row = {b: cb, a: ca} if cb else {a: ca}
        grew = acc.add_terms(a, ca, b, cb)
        assert grew == _general_loop(l, reference, row)
        assert acc.pivots == _flat(reference)
        assert acc.rank == len(reference)
        assert all(len(tail) in (0, 2) for tail in acc.pivots.values())
