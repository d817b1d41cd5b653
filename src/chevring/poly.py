"""Dense multivariate polynomial arithmetic over Z/l^b with weighted variables.

A polynomial carries its whole context: the modulus l^b and an ordered tuple
of (name, weight) variable pairs.  Two polynomials interoperate only when
their contexts agree exactly.  Exponent vectors are dense tuples indexed by
the context; the canonical term order (used for printing) is graded
lexicographic on (weighted degree, exponent vector).

The grading convention throughout the package is algebraic degree: a Chern
class c_i has degree i, a class of topological degree 2d is stored with
degree d.  Doubling happens only at the presentation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping

from .errors import InputError

__all__ = [
    "DiagonalAction",
    "ModPolynomial",
    "TruncatedSeries",
    "apply_diagonal",
    "elementary_symmetric",
    "generators",
    "hilbert_series_of_free_polynomial_ring",
    "multiply",
]

Variables = tuple[tuple[str, int], ...]


def _validated_variables(variables) -> Variables:
    vs = tuple((str(name), int(weight)) for name, weight in variables)
    names = [name for name, _ in vs]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variable names in {names}")
    if any(weight < 1 for _, weight in vs):
        raise InputError("variable weights must be positive integers")
    return vs


class ModPolynomial:
    """Immutable polynomial over Z/modulus in a fixed weighted-variable context.

    ``terms`` maps exponent tuples to coefficients; no stored coefficient is
    zero mod the modulus.  Integers mix freely as scalars in +, -, *.
    """

    __slots__ = ("modulus", "variables", "terms")

    def __init__(self, modulus: int, variables, terms=()):
        if modulus < 2:
            raise InputError(f"modulus must be >= 2, got {modulus}")
        vs = _validated_variables(variables)
        nvars = len(vs)
        clean: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coef in items:
            e = tuple(int(x) for x in exps)
            if len(e) != nvars:
                raise InputError(f"exponent vector {e} does not match {nvars} variables")
            if any(x < 0 for x in e):
                raise InputError(f"negative exponent in {e}")
            c = (clean.get(e, 0) + int(coef)) % modulus
            if c:
                clean[e] = c
            elif e in clean:
                del clean[e]
        self.modulus = modulus
        self.variables = vs
        self.terms = clean

    def _result(self, terms: dict) -> "ModPolynomial":
        """A polynomial in this context from terms formed by arithmetic on
        checked polynomials: the exponents are valid already, so only the
        reduction mod the modulus and the dropping of zeros remain."""
        out = object.__new__(ModPolynomial)
        out.modulus, out.variables = self.modulus, self.variables
        out.terms = {e: r for e, c in terms.items() if (r := c % self.modulus)}
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, modulus: int, variables) -> "ModPolynomial":
        return cls(modulus, variables, {})

    @classmethod
    def constant(cls, modulus: int, variables, value: int) -> "ModPolynomial":
        vs = _validated_variables(variables)
        return cls(modulus, vs, {(0,) * len(vs): value})

    def one(self) -> "ModPolynomial":
        return self._result({(0,) * len(self.variables): 1})

    # -- inspection ---------------------------------------------------

    def weights(self) -> tuple[int, ...]:
        return tuple(weight for _, weight in self.variables)

    def monomial_degree(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.weights()))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest weighted degree of a term, or -1 for the zero polynomial."""
        return max((self.monomial_degree(e) for e in self.terms), default=-1)

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def homogeneous_component(self, d: int) -> "ModPolynomial":
        return self._result({e: c for e, c in self.terms.items() if self.monomial_degree(e) == d})

    def homogeneous_components(self) -> dict[int, "ModPolynomial"]:
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(self.monomial_degree(e), {})[e] = c
        return {d: self._result(t) for d, t in sorted(buckets.items())}

    def is_homogeneous(self) -> bool:
        return len({self.monomial_degree(e) for e in self.terms}) <= 1

    # -- arithmetic ---------------------------------------------------

    def _context_of(self, other: "ModPolynomial"):
        if self.modulus != other.modulus or self.variables != other.variables:
            raise InputError(
                "polynomial contexts differ: "
                f"mod {self.modulus} on {self.variables} vs mod {other.modulus} on {other.variables}"
            )

    def _combine(self, other, sign: int) -> "ModPolynomial":
        if isinstance(other, int):
            other = {(0,) * len(self.variables): other}
        elif isinstance(other, ModPolynomial):
            self._context_of(other)
            other = other.terms
        else:
            return NotImplemented
        merged = dict(self.terms)
        for e, c in other.items():
            merged[e] = merged.get(e, 0) + sign * c
        return self._result(merged)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return self._result({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._result({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, ModPolynomial):
            return NotImplemented
        return multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ModPolynomial":
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
        if isinstance(other, int):
            return self == ModPolynomial.constant(self.modulus, self.variables, other)
        if not isinstance(other, ModPolynomial):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.modulus, self.variables, frozenset(self.terms.items())))

    # -- rendering ----------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (self.monomial_degree(ec[0]), ec[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self._sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for (name, _), e in zip(self.variables, exps)
                if e
            ]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<ModPolynomial mod {self.modulus}: {self}>"


def generators(modulus: int, variables) -> list[ModPolynomial]:
    """The variable polynomials of a fresh context, in context order."""
    vs = _validated_variables(variables)
    n = len(vs)
    return [
        ModPolynomial(modulus, vs, {tuple(1 if j == i else 0 for j in range(n)): 1})
        for i in range(n)
    ]


def multiply(f: ModPolynomial, g: ModPolynomial, cutoff: int | None = None) -> ModPolynomial:
    """Exact product; terms of weighted degree above ``cutoff`` are dropped."""
    f._context_of(g)
    weights = f.weights()
    out: dict[tuple[int, ...], int] = {}
    gdegs = None
    if cutoff is not None:
        gdegs = {e: sum(x * w for x, w in zip(e, weights)) for e in g.terms}
    for ef, cf in f.terms.items():
        fdeg = sum(x * w for x, w in zip(ef, weights)) if cutoff is not None else 0
        for eg, cg in g.terms.items():
            if cutoff is not None and fdeg + gdegs[eg] > cutoff:
                continue
            e = tuple(a + b for a, b in zip(ef, eg))
            out[e] = out.get(e, 0) + cf * cg
    return f._result(out)


def elementary_symmetric(i: int, values):
    """The i-th elementary symmetric function of the given ring elements.

    Works for any elements supporting + and * with each other and with ints
    (plain integers, or ModPolynomial values sharing one context); e_0 = 1.
    """
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


@dataclass(frozen=True)
class DiagonalAction:
    """Scaling action: a monomial of weighted degree w is multiplied by
    scalar^w.  The scalar is the image of q in Z/l^b and must be a unit."""

    scalar: int
    weights: tuple[int, ...]


def apply_diagonal(action: DiagonalAction, f: ModPolynomial) -> ModPolynomial:
    """Apply a diagonal action monomial by monomial."""
    if tuple(action.weights) != f.weights():
        raise InputError(
            f"action weights {action.weights} do not match variable weights {f.weights()}"
        )
    if gcd(action.scalar, f.modulus) != 1:
        raise InputError(
            f"scalar {action.scalar} is not a unit mod {f.modulus}"
        )
    s = action.scalar % f.modulus
    out = {
        e: c * pow(s, f.monomial_degree(e), f.modulus) for e, c in f.terms.items()
    }
    return ModPolynomial(f.modulus, f.variables, out)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0, ..., c_D of a Hilbert/Poincare series up to degree D."""

    cutoff: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.cutoff < 0:
            raise InputError(f"cutoff must be >= 0, got {self.cutoff}")
        if len(self.coefficients) != self.cutoff + 1:
            raise InputError(
                f"expected {self.cutoff + 1} coefficients, got {len(self.coefficients)}"
            )
        if any(c < 0 for c in self.coefficients):
            raise InputError("series coefficients must be nonnegative")

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
