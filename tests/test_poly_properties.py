"""Differential tests of `multiply`, the product of one-variable
polynomials mod l, against sympy's Poly over F_l, driven by hypothesis.
Coefficient lists are drawn with either sign, unreduced, and empty.

Both are test-only dependencies (the `test` extra); the module is skipped
where either is missing.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.poly import multiply  # noqa: E402

ETA = sympy.Symbol("eta")


def _poly(coefficients, l):
    """The sympy Poly over F_l with these coefficients, from degree 0 up."""
    return sympy.Poly(list(reversed(coefficients)) or [0], ETA, modulus=l)


def _residues(poly, l):
    """A sympy Poly's coefficients from degree 0 up, as residues 0..l-1 with
    no trailing zero; [] for the zero polynomial."""
    return [] if poly.is_zero else [int(c) % l for c in reversed(poly.all_coeffs())]


def _trimmed(coefficients):
    while coefficients and coefficients[-1] == 0:
        coefficients = coefficients[:-1]
    return coefficients


coefficient_lists = st.lists(st.integers(-40, 40), max_size=8)


@settings(max_examples=200, deadline=None)
@given(l=st.sampled_from([2, 3, 5, 7, 11, 13]), f=coefficient_lists, g=coefficient_lists)
@example(l=2, f=[], g=[1, 1])
@example(l=5, f=[1, 1], g=[1, 4])
@example(l=13, f=[-1, 0, 13], g=[-13])
def test_multiply_matches_sympy(l, f, g):
    got = multiply(f, g, l)
    if f and g:
        assert len(got) == len(f) + len(g) - 1
    else:
        assert got == []
    assert all(type(c) is int and 0 <= c < l for c in got)
    assert _trimmed(got) == _residues(_poly(f, l) * _poly(g, l), l)
