"""Differential tests of the arithmetic against sympy, driven by hypothesis.

Both are test-only dependencies (the `test` extra); the module is skipped
where either is missing.
"""

import math

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.arith import (  # noqa: E402
    galois_params,
    multiplicative_order,
    prime_power_base,
    residues_one_per_order,
)
from chevring.errors import InputError  # noqa: E402
from chevring.rootdata import _product  # noqa: E402


def primes(lo, hi):
    """The least prime above a uniform draw from [lo, hi]."""
    return st.integers(lo, hi).map(sympy.nextprime)


@settings(max_examples=150, deadline=None)
@given(l=primes(1, 10**6), q=st.integers(1, 10**9))
def test_order_matches_sympy(l, q):
    assume(q % l)
    assert multiplicative_order(q, l) == sympy.n_order(q, l)


@settings(max_examples=20, deadline=None)
@given(l=primes(10**12, 10**18), q=st.integers(2, 10**6))
@example(l=1000000000039, q=3)
def test_order_matches_sympy_above_1e12(l, q):
    assume(q % l)
    assert multiplicative_order(q, l) == sympy.n_order(q, l)


prime_powers = st.builds(pow, primes(1, 10**6), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(q=st.one_of(st.integers(1, 3 * 10**24), prime_powers))
def test_prime_power_base_matches_sympy(q):
    base, k = sympy.perfect_power(q) or (q, 1)
    if q >= 2 and sympy.isprime(base):
        assert prime_power_base(q) == (base, k)
    else:
        with pytest.raises(InputError):
            prime_power_base(q)


@settings(max_examples=40, deadline=None)
@given(l=primes(1, 3000))
def test_residues_one_per_order_match_sympy(l):
    first = {}
    for q in range(1, l):
        first.setdefault(sympy.n_order(q, l), q)
    assert residues_one_per_order(l) == [first[r] for r in sorted(first)]


# b^k for a b above the trial-division bound and a k with composite values
# common: the roots prime_power_base skips must never be needed
powers = st.builds(pow, st.integers(64, 10**4), st.sampled_from([4, 6, 8, 9, 10, 12, 15, 16, 25]))


@settings(max_examples=150, deadline=None)
@given(q=powers | st.builds(pow, primes(64, 10**4), st.integers(2, 40)))
@example(q=67**12)
@example(q=101**30)
def test_prime_power_base_matches_sympy_on_high_powers(q):
    base, k = sympy.perfect_power(q)
    if sympy.isprime(base):
        assert prime_power_base(q) == (base, k)
    else:
        with pytest.raises(InputError):
            prime_power_base(q)


@settings(max_examples=100, deadline=None)
@given(l=primes(1, 3000), p=primes(1, 300), k=st.integers(1, 3))
def test_a_and_h_match_sympy(l, p, k):
    assume(l != p)
    q = p**k
    gp = galois_params(p, q, l)
    assert gp.r == sympy.n_order(q, l)
    qr1 = q**gp.r - 1
    assert gp.a == sympy.multiplicity(l, qr1)
    assert gp.h == qr1 // l**gp.a
    digits = gp.h_digits()
    assert 10 ** (digits - 1) <= gp.h < 10**digits


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 10**6), max_size=300))
def test_product_tree_matches_prod(values):
    assert _product(tuple(values)) == math.prod(values)
