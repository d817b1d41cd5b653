"""Multivariate polynomial arithmetic over Z/l^b with weighted variables and
a bound on the weighted degree, on monomials packed into integers.

A polynomial carries its whole context: the modulus l^b, an ordered tuple
of (name, weight) variable pairs, and the cutoff D, the largest weighted
degree a term may have.  Two polynomials interoperate only when their
contexts agree exactly.  A polynomial is built from the generators of its
context and integers by +, * and **.  Arithmetic whose result would have a
term above D raises InputError; nothing is truncated.

This module defines the monomial layout; the oracles compute variable
places and generator images on its keys directly.  With base B = D + 1,
the exponents of a monomial of weighted degree <= D are
base-B digits, the first variable's the most significant (Monagan-Pearce
packed exponent vectors, CASC 2007); `packed_monomials` enumerates these
keys for the oracles.  A `ModPolynomial` term on n variables puts the
weighted degree d in front as one more digit: its key is d * B^n plus the
packed exponents.  No exponent of a monomial of degree <= D reaches the
base, so adding two keys multiplies the monomials whenever the product has
degree <= D, key // B^n is the degree, a key is below B^(n+1) exactly when
its degree is <= D, and the order of keys is graded lexicographic order on
(weighted degree, exponent vector), the order terms print in.

The grading convention throughout the package is algebraic degree: a Chern
class c_i has degree i, a class of topological degree 2d is stored with
degree d.  Doubling happens only at the presentation layer.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from .errors import InputError, _Frozen, _integer

__all__ = [
    "ModPolynomial",
    "TruncatedSeries",
    "elementary_symmetric",
    "generators",
    "hilbert_series_of_free_polynomial_ring",
    "multiply",
    "packed_monomials",
]

Variables = tuple[tuple[str, int], ...]


def packed_monomials(weights: tuple[int, ...], cutoff: int) -> list[list[int]]:
    """The monomials of each weighted degree d <= cutoff, as packed ints:
    the exponents are base-(cutoff + 1) digits, the first variable's the most
    significant.  Each degree's list is increasing, and the order of keys is
    the lexicographic order of exponents."""
    cutoff = _integer(cutoff, "cutoff")
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
    if any(w < 1 for w in ws):
        raise InputError("variable weights must be positive integers")
    return ws


def _validated_variables(variables) -> Variables:
    variables = tuple(variables)
    names = [str(name) for name, _ in variables]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variable names in {names}")
    return tuple(zip(names, _checked_weights(weight for _, weight in variables)))


class ModPolynomial:
    """Immutable polynomial over Z/modulus in a fixed weighted-variable
    context whose terms have weighted degree at most ``cutoff``.

    The constructor builds the zero polynomial of a context; every other
    polynomial is made from `generators` and integers by +, * and **.  The
    stored ``terms`` map the packed keys of the module docstring to
    coefficients, none zero mod the modulus.  Integers mix freely as
    scalars in + and *.

    No module of the package multiplies polynomials: the restricted Chern
    check reads its clauses off one block's coefficients.  The class stays
    only while the benchmark under perfbench/ traces `multiply` as a layer.
    """

    __slots__ = ("modulus", "variables", "cutoff", "terms")

    def __init__(self, modulus: int, variables, cutoff: int):
        modulus, cutoff = _integer(modulus, "modulus"), _integer(cutoff, "cutoff")
        if modulus < 2:
            raise InputError(f"modulus must be >= 2, got {modulus}")
        if cutoff < 0:
            raise InputError(f"cutoff must be >= 0, got {cutoff}")
        self.modulus = modulus
        self.variables = _validated_variables(variables)
        self.cutoff = cutoff
        self.terms: dict[int, int] = {}

    def _result(self, terms: dict) -> "ModPolynomial":
        """A polynomial in this context from terms formed by arithmetic on
        checked polynomials: the keys are valid already, so only the
        reduction mod the modulus and the dropping of zeros remain."""
        out = object.__new__(ModPolynomial)
        out.modulus, out.variables, out.cutoff = self.modulus, self.variables, self.cutoff
        out.terms = {k: r for k, c in terms.items() if (r := c % self.modulus)}
        return out

    def _place(self) -> int:
        """B^n, the place of the degree digit of a key."""
        return (self.cutoff + 1) ** len(self.variables)

    def _key(self, exps: tuple[int, ...]) -> int:
        """The key of the monomial with these n nonnegative exponents."""
        base = self.cutoff + 1
        key = sum(x * w for x, (_, w) in zip(exps, self.variables))
        for x in exps:
            key = key * base + x
        return key

    def one(self) -> "ModPolynomial":
        return self._result({0: 1})

    # -- inspection ---------------------------------------------------

    def coefficient(self, exps) -> int:
        """The coefficient of the monomial with these exponents; 0 for one
        outside the context or above the cutoff, whose key no term has."""
        e = tuple(exps)
        if len(e) != len(self.variables) or any(x < 0 for x in e):
            return 0
        return self.terms.get(self._key(e), 0)

    def homogeneous_components(self) -> dict[int, "ModPolynomial"]:
        place = self._place()
        buckets: dict[int, dict] = {}
        for k, c in self.terms.items():
            buckets.setdefault(k // place, {})[k] = c
        return {d: self._result(t) for d, t in sorted(buckets.items())}

    # -- arithmetic ---------------------------------------------------

    def _context_of(self, other: "ModPolynomial"):
        if (self.modulus, self.variables, self.cutoff) != (
            other.modulus, other.variables, other.cutoff
        ):
            raise InputError(
                "polynomial contexts differ: "
                f"mod {self.modulus} on {self.variables} up to degree {self.cutoff} vs "
                f"mod {other.modulus} on {other.variables} up to degree {other.cutoff}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = {0: other}
        elif isinstance(other, ModPolynomial):
            self._context_of(other)
            other = other.terms
        else:
            return NotImplemented
        merged = dict(self.terms)
        for k, c in other.items():
            merged[k] = merged.get(k, 0) + c
        return self._result(merged)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return self._result({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, ModPolynomial):
            return NotImplemented
        return multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ModPolynomial":
        n = _integer(n, "n")
        if n < 0:
            raise InputError("negative polynomial powers are not defined")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModPolynomial):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.variables == other.variables
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        base = self.cutoff + 1
        parts = []
        for key, coef in sorted(self.terms.items()):
            factors = []
            for name, _ in reversed(self.variables):
                key, e = divmod(key, base)
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            factors.reverse()
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<ModPolynomial mod {self.modulus}: {self}>"


def generators(modulus: int, variables, cutoff: int) -> list[ModPolynomial]:
    """The variable polynomials of a fresh context, in context order."""
    zero = ModPolynomial(modulus, variables, cutoff)
    if any(w > cutoff for _, w in zero.variables):
        raise InputError(f"a variable weight exceeds the cutoff {cutoff}")
    place = zero._place()
    return [
        zero._result({w * place + place // (cutoff + 1) ** i: 1})
        for i, (_, w) in enumerate(zero.variables, start=1)
    ]


def multiply(f: ModPolynomial, g: ModPolynomial) -> ModPolynomial:
    """Exact product, refused with InputError when the degrees of f and g
    sum past the cutoff (over a field, the degree of the product)."""
    f._context_of(g)
    if f.terms and g.terms:
        top_f, top_g = max(f.terms), max(g.terms)
        place = f._place()
        # the largest keys hold the largest degrees; their sum reaches the
        # bound B^(n+1) exactly when those degrees sum past the cutoff
        if top_f + top_g >= place * (f.cutoff + 1):
            raise InputError(
                f"a product of degree {top_f // place + top_g // place} "
                f"exceeds the cutoff {f.cutoff}"
            )
    out: dict[int, int] = {}
    for kf, cf in f.terms.items():
        for kg, cg in g.terms.items():
            k = kf + kg
            out[k] = out.get(k, 0) + cf * cg
    return f._result(out)


def elementary_symmetric(i: int, values):
    """The i-th elementary symmetric function of the given ring elements.

    Works for any elements supporting + and * with each other and with ints
    (plain integers, or ModPolynomial values sharing one context); e_0 = 1.
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
    """Coefficients c_0, ..., c_D of a Hilbert/Poincare series up to degree D."""

    _fields = ("cutoff", "coefficients")

    def __init__(self, cutoff: int, coefficients: tuple[int, ...]):
        if type(cutoff) is not int:  # several are built per oracle call
            cutoff = _integer(cutoff, "cutoff")
        if cutoff < 0:
            raise InputError(f"cutoff must be >= 0, got {cutoff}")
        if len(coefficients) != cutoff + 1:
            raise InputError(f"expected {cutoff + 1} coefficients, got {len(coefficients)}")
        if any(c < 0 for c in coefficients):
            raise InputError("series coefficients must be nonnegative")
        self._set(cutoff=cutoff, coefficients=coefficients)

    def __getitem__(self, d: int) -> int:
        return self.coefficients[d]

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coefficients)

    def to_json_dict(self) -> dict:
        return {"cutoff": self.cutoff, "coefficients": list(self.coefficients)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedSeries":
        return cls(cutoff=int(d["cutoff"]), coefficients=tuple(int(c) for c in d["coefficients"]))


def hilbert_series_of_free_polynomial_ring(degrees: Iterable[int], cutoff: int) -> TruncatedSeries:
    """Series of a free commutative polynomial ring on generators of the given
    degrees: c_d counts multisets of the degrees summing to d."""
    cutoff = _integer(cutoff, "cutoff")
    if cutoff < 0:
        raise InputError(f"cutoff must be >= 0, got {cutoff}")
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    for d in degrees:
        if d < 1:
            raise InputError(f"generator degrees must be positive, got {d}")
        for t in range(d, cutoff + 1):
            coeffs[t] += coeffs[t - d]
    return TruncatedSeries(cutoff, tuple(coeffs))
