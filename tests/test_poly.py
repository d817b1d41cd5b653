import random
from itertools import product

import pytest

from chevring.errors import InputError
from chevring.poly import (
    ModPolynomial,
    TruncatedSeries,
    elementary_symmetric,
    generators,
    hilbert_series_of_free_polynomial_ring,
    multiply,
)

ETA = (("eta", 1),)


def eta_poly(modulus=5, cutoff=8):
    (g,) = generators(modulus, ETA, cutoff)
    return g


def test_multiply_example_mod5():
    eta = eta_poly()
    f = 1 + eta
    g = 1 + 4 * eta
    assert f * g == 1 + 4 * eta**2  # the cross terms 5*eta vanish mod 5


def test_multiply_identity_and_squares():
    eta = eta_poly()
    f = 2 + 3 * eta + eta**2
    assert f * f.one() == f
    assert eta * eta == eta**2


def test_multiply_rejects_mixed_contexts():
    a = eta_poly(5)
    b = eta_poly(7)
    with pytest.raises(InputError):
        multiply(a, b)
    c = generators(5, (("x", 1), ("y", 2)), 8)[0]
    with pytest.raises(InputError):
        a * c
    with pytest.raises(InputError):
        a + eta_poly(5, cutoff=9)
    assert a.one() != eta_poly(5, cutoff=9).one()


def test_products_above_the_cutoff_are_refused():
    eta = eta_poly(cutoff=4)
    assert (1 + eta) ** 4 == (1 + eta) ** 2 * (1 + eta) ** 2
    with pytest.raises(InputError, match="degree 5 exceeds the cutoff 4"):
        multiply(eta**3, 1 + eta**2)
    with pytest.raises(InputError, match="cutoff 4"):
        eta**5
    # with two variables and cutoff 3, the key of x^3 * x carries from the
    # exponent digits into the degree digit, which then reads 5
    x, y = generators(5, (("x", 1), ("y", 1)), 3)
    assert x**2 * y == multiply(x**2, y)
    with pytest.raises(InputError) as refused:
        x**3 * x
    assert "degree 4 exceeds the cutoff 3" in str(refused.value)
    assert "5" not in str(refused.value)
    with pytest.raises(InputError, match="cutoff 3"):
        generators(5, (("x", 1), ("y", 4)), 3)


def test_elementary_symmetric_polynomials():
    e1, e2 = generators(5, (("eta_1", 1), ("eta_2", 1)), 8)
    assert elementary_symmetric(1, [e1**4, e2**4]) == e1**4 + e2**4
    assert elementary_symmetric(2, [e1, e2]) == e1 * e2
    assert elementary_symmetric(0, [e1, e2]) == 1
    assert elementary_symmetric(0, []) == 1
    with pytest.raises(InputError):
        elementary_symmetric(3, [e1, e2])
    with pytest.raises(InputError):
        elementary_symmetric(-1, [e1])


def test_elementary_symmetric_scalar_roots_of_unity():
    # 1, 3, 9, 27 are the fourth roots of unity mod 5
    values = [1, 3, 9, 27]
    assert elementary_symmetric(2, values) % 5 == 0
    assert elementary_symmetric(1, values) % 5 == 0
    assert elementary_symmetric(3, values) % 5 == 0


def test_ring_axioms_on_random_triples():
    rng = random.Random(20250809)
    vars_ = (("x", 1), ("y", 2))
    x, y = generators(7, vars_, 21)

    def random_poly():
        f = ModPolynomial(7, vars_, 21)
        for _ in range(rng.randrange(1, 5)):
            f = f + rng.randrange(7) * x ** rng.randrange(4) * y ** rng.randrange(3)
        return f

    for _ in range(1000):
        f, g, h = random_poly(), random_poly(), random_poly()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)


def test_polynomial_inspection_helpers():
    x, y = generators(5, (("x", 1), ("y", 2)), 6)
    f = 1 + x * y + 3 * x**2
    assert f.homogeneous_components() == {0: f.one(), 2: 3 * x**2, 3: x * y}
    assert f.coefficient((2, 0)) == 3
    assert f.coefficient((5, 5)) == 0
    # an exponent tuple outside the context names no monomial of it
    assert f.coefficient((2,)) == f.coefficient((1, 1, 0)) == f.coefficient((-1, 1)) == 0


def test_rendering_is_graded_lex_and_explicit():
    x, y = generators(5, (("x", 1), ("y", 2)), 4)
    f = 4 * x**2 * y + x + 3
    assert str(f) == "3 + x + 4*x^2*y"
    assert str(ModPolynomial(5, (("x", 1),), 0)) == "0"
    eta = eta_poly()
    assert str(1 + 4 * eta**4) == "1 + 4*eta^4"


def test_polynomial_equality_and_scalars():
    eta = eta_poly()
    zero = ModPolynomial(5, ETA, 8)
    assert 5 * eta == eta * 0 == eta + 4 * eta == zero
    assert 2 + (3 + eta) == eta
    assert 7 * eta == eta * 2 == eta + eta
    # a polynomial equals no int, not even its constant
    assert zero != 0 and eta.one() != 1


def test_a_polynomial_takes_no_str_and_shows_its_ring():
    eta = eta_poly()
    for bad in (lambda: eta + "x", lambda: "x" + eta, lambda: eta * "x", lambda: "x" * eta):
        with pytest.raises(TypeError):
            bad()
    assert repr(1 + 4 * eta**2) == "<ModPolynomial mod 5: 1 + 4*eta^2>"


def test_constructor_validation():
    with pytest.raises(InputError):
        ModPolynomial(1, ETA, 4)
    with pytest.raises(InputError):
        ModPolynomial(5, (("x", 0),), 4)
    with pytest.raises(InputError):
        ModPolynomial(5, (("x", 1.5),), 4)  # not truncated to weight 1
    with pytest.raises(InputError):
        ModPolynomial(5, (("x", 1), ("x", 2)), 4)
    with pytest.raises(InputError, match="cutoff must be >= 0"):
        ModPolynomial(5, ETA, -1)
    with pytest.raises(InputError, match="cutoff must be an integer"):
        ModPolynomial(5, ETA, 4.5)
    with pytest.raises(InputError, match="modulus must be an integer"):
        ModPolynomial(5.5, ETA, 4)
    zero = ModPolynomial(5, ETA, 4)
    assert zero.terms == {} and zero == 0 * eta_poly(5, 4)


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
