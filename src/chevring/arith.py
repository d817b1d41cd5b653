"""Exact integer arithmetic underlying every other module.

All values are plain Python ``int`` (arbitrary precision), so products like
q^r - 1 never wrap.  Two immutable value classes bundle the arithmetic
attached to a choice of finite field F_q and coefficient prime l:
``GaloisParams(p, q, l)`` checks its inputs and derives r and a, and
``GLParams(base, n)`` checks n and derives m and e.  Derived fields are
computed once and never re-checked, and cannot be passed in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import count

from .errors import InputError, PreconditionError, _Frozen, _integer

__all__ = [
    "GLParams",
    "GaloisParams",
    "galois_params",
    "gl_params",
    "is_prime",
    "multiplicative_order",
    "prime_power_base",
    "require_prime",
    "residues_one_per_order",
]

# Strong-pseudoprime witnesses: the first 13 primes.  Testing against all of
# them is exact for every n below _MR_EXACT_BOUND, about 3.317e24, far beyond
# 2^64 (Sorenson-Webster, Math. Comp. 86, 2017; the first 12 alone are fooled
# by 318665857834031151167461).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981

# psi_k, the least strong pseudoprime to the first k witnesses (OEIS A014233),
# for k = 1, ..., 13: the first k witnesses are exact below psi_k, so is_prime
# tests an n with the first bisect_right(_MR_PSI, n) + 1 of them.  psi_1-psi_4
# from Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980), psi_5-psi_11
# from Jaeschke (Math. Comp. 61, 1993), psi_12 and psi_13 from Sorenson and
# Webster.
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    _MR_EXACT_BOUND,
)

# prime_power_base divides by every number below this, and takes roots only
# of what has no such factor.
_ROOT_BASE = 64

# Factor search: trial division by 2 and the odd numbers up to this bound,
# then Pollard-Brent on what is left.
_TRIAL_DIVISION_BOUND = 1000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.317e24;
    n is tested with only as many witnesses as its size needs.  An n that
    is not an integer (7.0 included) is refused, not tested."""
    if type(n) is not int:  # an int skips the call: is_prime is hot
        n = _integer(n, "n")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(n: int, name: str = "") -> None:
    """Raise InputError unless n is a prime that is_prime can vouch for.

    is_prime never rejects a prime, so an n it rejects is composite at any
    size.  From 3.317e24 on it may pass a composite, so an n there that it
    passes is refused as undecidable.  The message names n as "name = n",
    or as n alone; an n that is not an integer is refused under its name.
    """
    if type(n) is not int:
        n = _integer(n, name or "n")
    prime = is_prime(n)
    if prime and n < _MR_EXACT_BOUND:
        return
    label = f"{name} = {n}" if name else str(n)
    if not prime:
        raise InputError(f"{label} is not prime")
    raise InputError(
        f"cannot tell whether {label} is prime: it is not below 3.317e24, "
        f"the bound up to which the primality test is exact"
    )


def _power_exponent(q: int, p: int) -> int:
    """The k >= 1 with q = p^k, or 0 if there is none; p >= 2."""
    k = 0
    while q > 1 and q % p == 0:
        q //= p
        k += 1
    return k if q == 1 else 0


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above.

    The start is 2^t, t = log2(n)/k, from floating point: m, the 53-bit
    mantissa of 2^(t - e) with e = floor(t), scaled by 2^(e - 52) and rounded
    up.  The float error of t is below (e + 2) * 2^-51, so raising m by
    (e + 5) * 2^-49 of itself puts the start above the root, from where
    Newton's method converges quadratically.  (A start at a power of 2 can
    be twice the root, and each step then shrinks x by only about
    (k - 1) / k.)
    """
    t = math.log2(n) / k
    e = int(t)
    m = int(2.0 ** (t - e) * 2**52) + 1
    m += m * (e + 5) >> 49
    x = m << (e - 52) if e >= 52 else -(-m >> (52 - e))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_base(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime and k >= 1, or raise InputError.

    Trial division by 2, ..., 63 settles every q with a factor below 64; the
    least such factor is prime.  Otherwise p >= 64, so k <= log_64 q: take
    integer j-th roots for the primes j up to there, stripping every exact
    one, and q is a prime power iff the base left is prime.  A composite j
    = a * b is skipped: an exact j-th root needs an exact a-th root, which
    the prime a < j has already ruled out.  The base must lie where is_prime
    is exact.
    """
    q = _integer(q, "q")
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    for f in range(2, _ROOT_BASE):
        if q % f == 0:
            k = _power_exponent(q, f)
            if not k:
                raise InputError(f"{q} is not a prime power")
            return f, k
    p, k, j = q, 1, 2
    while _ROOT_BASE**j <= p:
        root = _iroot(p, j)
        if root**j == p:
            p, k = root, k * j
        else:
            j = next(i for i in count(j + 1) if is_prime(i))
    if p >= _MR_EXACT_BOUND:
        raise InputError(
            f"cannot tell whether {q} is a prime power: its base {p} is not below "
            f"3.317e24, the bound up to which the primality test is exact"
        )
    if not is_prime(p):
        raise InputError(f"{q} is not a prime power")
    return p, k


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho in Brent's
    form (BIT 20, 1980), with the gcd taken once per batch of steps."""
    batch = 64
    for c in count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                saved = y
                for _ in range(min(batch, r - done)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                done += batch
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, in increasing order."""
    found = set()
    f = 2
    while f <= _TRIAL_DIVISION_BOUND and f * f <= n:
        if n % f == 0:
            found.add(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _pollard_brent(m)
            rest += [d, m // d]
    return sorted(found)


def multiplicative_order(q: int, l: int) -> int:
    """Least r >= 1 with q^r = 1 mod l, for l prime not dividing q; refuses
    an l that is not prime.

    Starts from l - 1 and strips each prime factor while q to the remaining
    exponent stays 1 mod l: O(log l) modular powers once l - 1 is factored.
    """
    q, l = _integer(q, "q", 1), _integer(l, "l")
    require_prime(l, "l")
    if q % l == 0:
        raise PreconditionError(
            f"{l} divides q = {q}: the multiplicative order of q mod {l} is undefined"
        )
    return _order(q, l, _prime_factors(l - 1))


def _order(q: int, l: int, factors: list[int]) -> int:
    """The order of q mod the prime l, given the prime factors of l - 1."""
    r = l - 1
    for f in factors:
        while r % f == 0 and pow(q, r // f, l) == 1:
            r //= f
    return r


def residues_one_per_order(l: int) -> list[int]:
    """The smallest residue mod l of each multiplicative order dividing l-1;
    refuses an l that is not prime.  l is proven prime and l - 1 factored
    once, for all l - 1 residues."""
    l = _integer(l, "l")
    require_prime(l, "l")
    factors = _prime_factors(l - 1)
    seen: dict[int, int] = {}
    for q in range(1, l):
        seen.setdefault(_order(q, l, factors), q)
    return [seen[r] for r in sorted(seen)]


def _exponent_of_l(q: int, r: int, l: int) -> int:
    """a = v_l(q^r - 1) for q^r = 1 mod l, from q^r mod l^k with k doubling,
    without forming q^r."""
    k = 2
    while True:
        rest = (pow(q, r, l**k) - 1) // l
        if rest:
            a = 1
            while rest % l == 0:
                rest //= l
                a += 1
            return a
        k *= 2


class GaloisParams(_Frozen):
    """The field F_q of characteristic p and a coefficient prime l != p, with
    the derived fields r, the multiplicative order of q mod l, and a, where
    q^r - 1 = l^a * h with h prime to l.  h is formed on first read only:
    q^r can run to millions of bits, and only the params report prints it."""

    _fields = ("p", "q", "l", "r", "a")

    def __init__(self, p: int, q: int, l: int):
        p, q, l = _integer(p, "p"), _integer(q, "q"), _integer(l, "l")
        require_prime(p, "p")
        # a malformed input is refused before a failed hypothesis
        if not _power_exponent(q, p):
            prime_power_base(q)  # a q that is no prime power is reported as such
            raise InputError(f"q = {q} is not a power of p = {p}")
        if l == p:
            raise PreconditionError(
                f"l = p = {l}: the coefficient prime must differ from the field characteristic"
            )
        # proves l prime; q is a power of p != l, so l does not divide it
        r = multiplicative_order(q, l)
        self._set(p=p, q=q, l=l, r=r, a=_exponent_of_l(q, r, l))

    @cached_property
    def h(self) -> int:
        """The part (q^r - 1) / l^a of q^r - 1 prime to l."""
        return (self.q**self.r - 1) // self.l**self.a

    def h_digits(self) -> int:
        """The number of decimal digits of h, read off
        log10(h) = r log10(q) - a log10(l) without forming h.  Decimal
        logarithms are correctly rounded, so at this precision the error is
        below 1e-23; h is formed only when q^r < 2^200 or log10(h) lies
        within 1e-20 of an integer."""
        # imported here, so that importing chevring does not load decimal
        from decimal import ROUND_FLOOR, Context

        if self.r * (self.q.bit_length() - 1) < 100:
            return len(str(self.h))
        # q^r >= 2^100, so the -1 in q^r - 1 moves log10 by less than 1e-30
        ctx = Context(prec=len(str(self.r * self.q.bit_length())) + 25)
        log10_h = ctx.subtract(
            ctx.multiply(self.r, ctx.log10(self.q)), ctx.multiply(self.a, ctx.log10(self.l))
        )
        nearest = int(log10_h.to_integral_value())
        if abs(log10_h - nearest) > ctx.create_decimal("1e-20"):
            return int(log10_h.to_integral_value(ROUND_FLOOR)) + 1
        return nearest + 1 if self.h >= 10**nearest else nearest


def galois_params(p: int, q: int, l: int) -> GaloisParams:
    """GaloisParams(p, q, l): the checked inputs with r and a derived."""
    return GaloisParams(p=p, q=q, l=l)


class GLParams(_Frozen):
    """GaloisParams together with a matrix size n >= 1 and the derived long
    division n = r*m + e, 0 <= e < r."""

    _fields = ("base", "n", "m", "e")

    def __init__(self, base: GaloisParams, n: int):
        n = _integer(n, "n", 1)
        m, e = divmod(n, base.r)
        self._set(base=base, n=n, m=m, e=e)


def gl_params(params: GaloisParams, n: int) -> GLParams:
    """GLParams(params, n): the checked matrix size with m = floor(n/r) and e
    derived."""
    return GLParams(base=params, n=n)
