"""The benchmark's own arithmetic and tables, used to check the program's
answers.  Nothing here calls into chevring, so a check never shares logic
with the code it checks."""

from __future__ import annotations

# Fundamental degrees (algebraic convention) of each family, from Bourbaki,
# Groupes et algebres de Lie, ch. V-VI, and the torsion primes of the compact
# groups (Borel, Tohoku Math. J. 13, 1961).
FIXED_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}
PARAMETRIC_FAMILIES = ("GL", "SL", "Sp", "SO_odd", "SO_even", "Spin")
FAMILIES = PARAMETRIC_FAMILIES + tuple(FIXED_DEGREES)
TORSION = {
    "SO_odd": {2}, "SO_even": {2}, "Spin": {2}, "G2": {2},
    "F4": {2, 3}, "E6": {2, 3}, "E7": {2, 3}, "E8": {2, 3, 5},
}


def degrees(family: str, rank: int) -> list[int]:
    """Sorted fundamental degrees of (family, rank)."""
    if family in FIXED_DEGREES:
        return list(FIXED_DEGREES[family])
    if family == "GL":
        return list(range(1, rank + 1))
    if family == "SL":
        return list(range(2, rank + 2))
    if family == "SO_even":
        return sorted(list(range(2, 2 * rank - 1, 2)) + [rank])
    return list(range(2, 2 * rank + 1, 2))


def fixed_rank(family: str) -> int | None:
    return len(FIXED_DEGREES[family]) if family in FIXED_DEGREES else None


def generator_prefix(family: str) -> str:
    return {"GL": "c", "Sp": "q"}.get(family, "s")


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only draws numbers below about 1e12."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def order(q: int, l: int) -> int:
    """Multiplicative order of q mod the prime l: start from l - 1 and divide
    out each prime factor while q^(r/f) = 1 mod l still holds."""
    r = l - 1
    for f in prime_factors(l - 1):
        while r % f == 0 and pow(q, r // f, l) == 1:
            r //= f
    return r


def is_order(q: int, l: int, r: int) -> bool:
    """The check the queries workload applies to a reported r: q^r = 1 mod l,
    and q^(r/f) != 1 mod l for every prime factor f of r."""
    return r >= 1 and pow(q, r, l) == 1 and all(pow(q, r // f, l) != 1 for f in prime_factors(r))


def residues_by_order(l: int) -> dict[int, list[int]]:
    """The units mod l grouped by their multiplicative order."""
    out: dict[int, list[int]] = {}
    for q in range(1, l):
        out.setdefault(order(q, l), []).append(q)
    return out


def free_series(degs, cutoff: int) -> list[int]:
    """Hilbert series, up to the cutoff, of a free polynomial ring on
    generators of the given degrees."""
    coeffs = [1] + [0] * cutoff
    for d in degs:
        for t in range(d, cutoff + 1):
            coeffs[t] += coeffs[t - d]
    return coeffs


def monomial_count(weights, cutoff: int) -> int:
    """Sum of dim R_d for d <= cutoff, R the polynomial ring on the weights."""
    return sum(free_series(weights, cutoff))
