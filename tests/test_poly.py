import random
from itertools import product
from math import comb

import pytest

from chevring.errors import InputError
from chevring.poly import (
    TruncatedSeries,
    elementary_symmetric,
    hilbert_series_of_free_polynomial_ring,
    multiply,
)


def test_multiply_example_mod5():
    # (1 + eta)(1 + 4 eta) = 1 + 4 eta^2: the cross terms 5 eta vanish mod 5
    assert multiply([1, 1], [1, 4], 5) == [1, 0, 4]


def test_multiply_identity_and_squares():
    f = [2, 3, 1]
    assert multiply(f, [1], 5) == multiply([1], f, 5) == f
    assert multiply(f, [], 5) == multiply([], f, 5) == multiply([], [], 5) == []
    assert multiply([0, 1], [0, 1], 5) == [0, 0, 1]
    # coefficients of either sign are reduced, and trailing zeros are kept
    assert multiply([-1, 7], [3, 5], 5) == [2, 1, 0]


def test_ring_axioms_on_random_triples():
    rng = random.Random(20250809)

    def random_poly():
        return [rng.randrange(-7, 14) for _ in range(rng.randrange(0, 6))]

    def add(f, g):
        n = max(len(f), len(g))
        return [((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % 7 for i in range(n)]

    def trimmed(f):
        while f and f[-1] == 0:
            f = f[:-1]
        return f

    for _ in range(1000):
        f, g, h = random_poly(), random_poly(), random_poly()
        assert multiply(f, g, 7) == multiply(g, f, 7)
        assert multiply(multiply(f, g, 7), h, 7) == multiply(f, multiply(g, h, 7), 7)
        assert trimmed(multiply(f, add(g, h), 7)) == trimmed(
            add(multiply(f, g, 7), multiply(f, h, 7))
        )


def test_multiply_by_a_constant_scales_and_reduces():
    f = [2, 3, 1, 4]
    assert multiply([3], f, 5) == [1, 4, 3, 2]
    assert multiply([8], f, 5) == multiply([3], f, 5)
    assert multiply([5], f, 5) == multiply([0], f, 5) == [0, 0, 0, 0]
    assert multiply([-1], f, 5) == [3, 2, 4, 1]


def test_multiply_keeps_the_zero_divisors_of_a_composite_modulus():
    # 2 * 3 = 0 mod 6: the product keeps its length, all coefficients zero
    assert multiply([0, 2], [0, 3], 6) == [0, 0, 0]
    assert multiply([1, 2], [1, 3], 6) == [1, 5, 0]


def test_powers_of_one_plus_eta_are_binomials_mod_p():
    for p in (2, 3, 5, 7, 11):
        power = [1]
        for n in range(1, 2 * p + 1):
            power = multiply(power, [1, 1], p)
            assert power == [comb(n, k) % p for k in range(n + 1)], (p, n)
            if n == p:
                # Frobenius: (1 + eta)^p = 1 + eta^p
                assert power == [1] + [0] * (p - 1) + [1]


def test_multiplying_out_linear_factors_gives_elementary_symmetric_functions():
    # prod_i (1 + a_i eta) has e_k(a) as its degree-k coefficient
    rng = random.Random(20261022)
    for l in (2, 3, 5, 7, 13):
        for r in range(6):
            roots = [rng.randrange(-20, 20) for _ in range(r)]
            block = [1]
            for a in roots:
                block = multiply(block, [1, a], l)
            assert block == [elementary_symmetric(k, roots) % l for k in range(r + 1)]


def test_multiply_leaves_its_arguments_unchanged():
    f, g = [1, -2, 9], [4, 7]
    product_ = multiply(f, g, 5)
    assert f == [1, -2, 9] and g == [4, 7]
    assert product_ is not f and product_ is not g
    assert multiply(f, [1], 5) is not f


def test_multiply_takes_no_str():
    for bad in (lambda: multiply(["x"], [1], 5), lambda: multiply([1], ["x", 1], 5)):
        with pytest.raises(TypeError):
            bad()


def test_multiply_reduces_mod_a_large_modulus():
    modulus = 2**61 - 1
    assert multiply([2**40, 3], [2**40, 5], modulus) == [
        2**80 % modulus, (5 * 2**40 + 3 * 2**40) % modulus, 15,
    ]
    assert multiply([modulus + 1], [modulus - 1], modulus) == [modulus - 1]


def test_elementary_symmetric_polynomials():
    assert elementary_symmetric(1, [2, 3, 4]) == 9
    assert elementary_symmetric(2, [2, 3, 4]) == 2 * 3 + 2 * 4 + 3 * 4
    assert elementary_symmetric(3, [2, 3, 4]) == 24
    assert elementary_symmetric(2, [-1, 5]) == -5
    assert elementary_symmetric(0, [2, 3]) == 1
    assert elementary_symmetric(0, []) == 1
    with pytest.raises(InputError):
        elementary_symmetric(3, [2, 3])
    with pytest.raises(InputError):
        elementary_symmetric(-1, [2])


def test_elementary_symmetric_scalar_roots_of_unity():
    # 1, 3, 9, 27 are the fourth roots of unity mod 5
    values = [1, 3, 9, 27]
    assert elementary_symmetric(2, values) % 5 == 0
    assert elementary_symmetric(1, values) % 5 == 0
    assert elementary_symmetric(3, values) % 5 == 0


def test_hilbert_series_examples():
    assert hilbert_series_of_free_polynomial_ring([], 4).coefficients == (1, 0, 0, 0, 0)
    assert hilbert_series_of_free_polynomial_ring([4], 8).coefficients == (
        1, 0, 0, 0, 1, 0, 0, 0, 1,
    )
    assert hilbert_series_of_free_polynomial_ring([1, 2], 4).coefficients == (1, 1, 2, 2, 3)
    with pytest.raises(InputError):
        hilbert_series_of_free_polynomial_ring([0], 4)
    with pytest.raises(InputError):
        hilbert_series_of_free_polynomial_ring([1], -1)


def _count_monomials_directly(weights, cutoff):
    counts = [0] * (cutoff + 1)
    ranges = [range(cutoff // w + 1) for w in weights]
    for exps in product(*ranges):
        d = sum(e * w for e, w in zip(exps, weights))
        if d <= cutoff:
            counts[d] += 1
    return tuple(counts)


def test_hilbert_series_agrees_with_direct_enumeration():
    from itertools import combinations_with_replacement

    for k in range(1, 5):
        for weights in combinations_with_replacement(range(1, 7), k):
            series = hilbert_series_of_free_polynomial_ring(weights, 12)
            assert series.coefficients == _count_monomials_directly(weights, 12), weights


def test_truncated_series_validation_and_json():
    s = TruncatedSeries(4, (1, 0, 2, 0, 1))
    assert s[2] == 2
    assert str(s) == "1, 0, 2, 0, 1"
    assert TruncatedSeries.from_json_dict(s.to_json_dict()) == s
    with pytest.raises(InputError):
        TruncatedSeries(4, (1, 0))
    with pytest.raises(InputError):
        TruncatedSeries(1, (1, -1))
