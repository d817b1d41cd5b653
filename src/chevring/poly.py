"""Polynomial helpers for the oracles and the Chern check: the packed
monomial layout, the product of one-variable polynomials mod an integer,
elementary symmetric functions and truncated Hilbert series.

The oracles compute variable places and generator images on packed keys
directly.  With base B = D + 1 for a cutoff D, the exponents of a monomial
of weighted degree <= D are base-B digits, the first variable's the most
significant (Monagan-Pearce packed exponent vectors, CASC 2007);
`packed_monomials` enumerates these keys.  No exponent of such a monomial
reaches the base, so adding two keys multiplies the monomials whenever the
product has degree <= D, and the order of keys is the lexicographic order
of exponent vectors.

The grading convention throughout the package is algebraic degree: a Chern
class c_i has degree i, a class of topological degree 2d is stored with
degree d.  Doubling happens only at the presentation layer.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from .errors import InputError, _Frozen, _integer

__all__ = [
    "TruncatedSeries",
    "elementary_symmetric",
    "hilbert_series_of_free_polynomial_ring",
    "multiply",
    "packed_monomials",
]


def packed_monomials(weights: tuple[int, ...], cutoff: int) -> list[list[int]]:
    """The monomials of each weighted degree d <= cutoff, as packed ints:
    the exponents are base-(cutoff + 1) digits, the first variable's the most
    significant.  Each degree's list is increasing, and the order of keys is
    the lexicographic order of exponents."""
    weights, cutoff = _checked_weights(weights), _integer(cutoff, "cutoff", 0)
    base = cutoff + 1
    by_degree = [[0]] + [[] for _ in range(cutoff)]
    place = 1
    for w in reversed(weights):
        by_degree = [
            [e * place + k for e in range(d // w + 1) for k in by_degree[d - e * w]]
            for d in range(cutoff + 1)
        ]
        place *= base
    return by_degree


def _checked_weights(weights) -> tuple[int, ...]:
    """The weights as a tuple of ints, refusing any that is not a positive
    integer: a weight of 1.5 is refused, not truncated to 1."""
    try:
        ws = tuple(map(index, weights))
    except TypeError as exc:
        raise InputError(f"variable weights must be positive integers: {exc}") from None
    if ws and min(ws) < 1:
        raise InputError("variable weights must be positive integers")
    return ws


def multiply(f: list[int], g: list[int], modulus: int) -> list[int]:
    """The product of two one-variable polynomials mod modulus, each a list
    of coefficients from degree 0 up; an empty list is 0.  The product of
    nonempty lists has len(f) + len(g) - 1 coefficients, in 0..modulus - 1,
    with no trailing zero removed."""
    modulus = _integer(modulus, "modulus", 2)
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    # a plain double loop, f innermost: per-output sums and slice
    # comprehensions are slower on the Chern block's linear factors
    for j, b in enumerate(g):
        i = j
        for a in f:
            out[i] += a * b
            i += 1
    return [c % modulus for c in out]


def elementary_symmetric(i: int, values):
    """The i-th elementary symmetric function of the given ring elements.

    Works for any elements supporting + and * with each other and with ints,
    such as plain integers; e_0 = 1.
    """
    i = _integer(i, "i")
    vals = list(values)
    if i < 0 or i > len(vals):
        raise InputError(
            f"elementary symmetric index {i} out of range 0..{len(vals)}"
        )
    es: list = [1] + [0] * i
    for k, v in enumerate(vals, start=1):
        for j in range(min(k, i), 0, -1):
            es[j] = es[j] + v * es[j - 1]
    return es[i]


class TruncatedSeries(_Frozen):
    """Coefficients c_0, ..., c_D of a Hilbert/Poincare series up to degree D,
    held as a tuple of ints; coefficients that are not an iterable, or a
    coefficient that is not integral or is below 0, are refused."""

    _fields = ("cutoff", "coefficients")

    def __init__(self, cutoff: int, coefficients: tuple[int, ...]):
        if type(cutoff) is not int or cutoff < 0:  # several are built per oracle call
            cutoff = _integer(cutoff, "cutoff", 0)
        try:
            coefficients = tuple(coefficients)
        except TypeError:
            raise InputError("series coefficients must be an iterable of integers") from None
        if len(coefficients) != cutoff + 1:
            raise InputError(f"expected {cutoff + 1} coefficients, got {len(coefficients)}")
        # one plain loop when every coefficient is a nonnegative int, as the
        # oracles give; it is cheaper than any() over a generator
        for c in coefficients:
            if type(c) is not int or c < 0:
                coefficients = tuple(_integer(c, "series coefficient", 0) for c in coefficients)
                break
        self._set(cutoff=cutoff, coefficients=coefficients)

    def __getitem__(self, d: int) -> int:
        return self.coefficients[d]

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coefficients)

    def to_json_dict(self) -> dict:
        return {"cutoff": self.cutoff, "coefficients": list(self.coefficients)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedSeries":
        return cls(cutoff=d["cutoff"], coefficients=d["coefficients"])


def hilbert_series_of_free_polynomial_ring(degrees: Iterable[int], cutoff: int) -> TruncatedSeries:
    """Series of a free commutative polynomial ring on generators of the given
    degrees: c_d counts multisets of the degrees summing to d."""
    cutoff = _integer(cutoff, "cutoff", 0)
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    for d in degrees:
        if type(d) is not int:
            d = _integer(d, "generator degree")
        if d < 1:
            raise InputError(f"generator degrees must be positive, got {d}")
        for t in range(d, cutoff + 1):
            coeffs[t] += coeffs[t - d]
    return TruncatedSeries(cutoff, tuple(coeffs))
