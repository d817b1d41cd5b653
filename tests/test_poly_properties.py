"""Differential tests of ModPolynomial arithmetic against sympy's Poly over
F_l, driven by hypothesis.  Every polynomial below is built by arithmetic
from the generators and integers, as the package builds them.  Results
are compared through `coefficient` and the term count, never through the
stored keys, so the monomial layout may change under them.

Both are test-only dependencies (the `test` extra); the module is skipped
where either is missing.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.poly import ModPolynomial, generators  # noqa: E402

NAMES = ("x", "y", "z")


@st.composite
def polynomial_pairs(draw):
    """(l, weights, f, g): two integer term dicts in the same variables,
    with exponents up to 3 and coefficients of either sign, unreduced."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    exps = st.tuples(*(st.integers(0, 3) for _ in weights))
    terms = st.dictionaries(exps, st.integers(-30, 30), max_size=5)
    return l, weights, draw(terms), draw(terms)


def _reduced(poly, l):
    """sympy's terms as ModPolynomial stores them: residues 1..l-1, no zeros."""
    return {e: int(c) % l for e, c in poly.as_dict().items() if int(c) % l}


def _built(l, variables, cutoff, terms):
    """The polynomial with these (exponent tuple, coefficient) terms, as a
    sum of scalar multiples of products of generator powers."""
    gens = generators(l, variables, cutoff)
    f = ModPolynomial(l, variables, cutoff)
    for exps, c in terms.items():
        monomial = f.one()
        for x, e in zip(gens, exps):
            monomial = monomial * x**e
        f = f + c * monomial
    return f


def _weighted_degree(e, weights):
    return sum(x * w for x, w in zip(e, weights))


@settings(max_examples=200, deadline=None)
@given(case=polynomial_pairs(), k=st.integers(0, 4), c=st.integers(-40, 40))
def test_arithmetic_matches_sympy(case, k, c):
    l, weights, fterms, gterms = case
    variables = tuple(zip(NAMES, weights))
    # exponents up to 3 and powers up to 4 reach degree 12 * sum(weights)
    cutoff = 12 * sum(weights)
    gens = sympy.symbols(NAMES[: len(weights)])
    f, g = (_built(l, variables, cutoff, t) for t in (fterms, gterms))
    sf, sg = (sympy.Poly.from_dict(t or {(0,) * len(weights): 0}, gens, modulus=l)
              for t in (fterms, gterms))

    results = [
        (f, sf),
        (f + g, sf + sg),
        (f * g, sf * sg),
        (f**k, sf**k),
        (c * f, sf * c),
        (f * c, sf * c),
        (c + f, sf + c),
        (f + c, sf + c),
    ]
    expected_f = _reduced(sf, l)
    by_degree = {}
    for e, v in expected_f.items():
        by_degree.setdefault(_weighted_degree(e, weights), {})[e] = v
    components = f.homogeneous_components()
    assert sorted(components) == sorted(by_degree)
    results += [(h, by_degree[d]) for d, h in components.items()]

    for got, want in results:
        want = want if isinstance(want, dict) else _reduced(want, l)
        assert len(got.terms) == len(want)
        assert all(got.coefficient(e) == c for e, c in want.items())
        assert (got.modulus, got.variables, got.cutoff) == (l, variables, cutoff)
        # the same polynomial is built from sympy's terms
        assert _built(l, variables, cutoff, want) == got
