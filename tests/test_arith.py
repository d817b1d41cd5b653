import random
import sys
import time

import pytest

from chevring import arith
from chevring.arith import (
    GLParams,
    GaloisParams,
    galois_params,
    gl_params,
    is_prime,
    multiplicative_order,
    prime_power_base,
    require_prime,
    residues_one_per_order,
)
from chevring.errors import InputError, PreconditionError
from chevring.oracles import GradedActionProblem

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_basics():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(2**61 + 1)
    known = {n for n in range(2, 200) if all(n % d for d in range(2, n))}
    assert {n for n in range(2, 200) if is_prime(n)} == known


def test_is_prime_rejects_the_strong_pseudoprime_to_the_first_12_primes():
    n = 318665857834031151167461  # = 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(2**89 - 1)  # Mersenne prime above 3.2e23


def _strong_probable_prime(n, w):
    """Whether n passes the Miller-Rabin round at witness w."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(w, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_each_psi_k_needs_k_plus_1_witnesses():
    # psi_k passes the first k witnesses, so testing n = psi_k with k of them
    # would call it prime: is_prime must take one more there, and the table
    # is tight.  psi_13 is the exact bound, where all 13 are fooled.
    assert arith._MR_PSI[-1] == arith._MR_EXACT_BOUND
    assert list(arith._MR_PSI) == sorted(arith._MR_PSI)
    for k, psi in enumerate(arith._MR_PSI, 1):
        assert all(_strong_probable_prime(psi, w) for w in arith._MR_WITNESSES[:k]), k
        if k < len(arith._MR_PSI):
            assert not is_prime(psi), k


def test_is_prime_around_each_psi_k_matches_sympy():
    # the odd n within 10^4 of each psi_k (all odd) that lie in the exact range
    sympy = pytest.importorskip("sympy")
    for psi in sorted(set(arith._MR_PSI)):
        for n in range(psi - 10**4, min(psi + 10**4 + 1, arith._MR_EXACT_BOUND), 2):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_tests_small_n_with_few_witnesses(monkeypatch):
    # 99991 < psi_2 = 1373653: two witnesses, not thirteen
    witnesses = []
    monkeypatch.setattr(arith, "pow", lambda w, *rest: witnesses.append(w) or pow(w, *rest),
                        raising=False)
    assert is_prime(99991)
    assert witnesses == [2, 3]


def test_every_l_from_the_exact_bound_on_is_refused():
    pseudoprime = 1287836182261 * 2575672364521  # passes all 13 witnesses
    assert is_prime(pseudoprime)
    for l in (pseudoprime, 2**89 - 1):  # the second is a prime past the bound
        refusals = [
            lambda: require_prime(l),
            lambda: multiplicative_order(2, l),
            lambda: galois_params(2, 2, l),
            lambda: GaloisParams(p=2, q=2, l=l),
            lambda: GradedActionProblem(weights=(1,), l=l, q=2, cutoff=2),
        ]
        for refuse in refusals:
            with pytest.raises(InputError, match="3.317e24"):
                refuse()
    # is_prime never rejects a prime, so a rejected n is composite at any size
    with pytest.raises(InputError, match="^l = 6 is not prime$"):
        require_prime(6, "l")
    with pytest.raises(InputError, match=f"^{2**89 + 1} is not prime$"):
        require_prime(2**89 + 1)
    require_prime(2**61 - 1)


def test_every_p_from_the_exact_bound_on_is_refused():
    # the composite L passes all 13 witnesses, so only the bound of the
    # exact range can refuse it; 2^89 - 1 is a prime past that bound
    pseudoprime = 1287836182261 * 2575672364521
    for p in (pseudoprime, 2**89 - 1):
        with pytest.raises(InputError, match=f"^cannot tell whether p = {p} is prime"):
            galois_params(p, p, 5)
    with pytest.raises(InputError, match="^p = 15 is not prime$"):
        GaloisParams(p=15, q=15, l=7)


def test_prime_power_base():
    assert prime_power_base(81) == (3, 4)
    assert prime_power_base(64) == (2, 6)
    assert prime_power_base(97) == (97, 1)
    assert prime_power_base(2) == (2, 1)
    with pytest.raises(InputError):
        prime_power_base(12)
    with pytest.raises(InputError):
        prime_power_base(1)


def test_prime_power_base_with_a_composite_exponent():
    # no factor below 64, so the exponent comes from prime roots alone
    assert prime_power_base(67**12) == (67, 12)
    assert prime_power_base(101**30) == (101, 30)
    with pytest.raises(InputError, match="is not a prime power"):
        prime_power_base((67 * 71) ** 6)


def test_prime_power_base_takes_prime_roots_only(monkeypatch):
    exponents = []
    iroot = arith._iroot
    monkeypatch.setattr(arith, "_iroot", lambda n, k: exponents.append(k) or iroot(n, k))
    q = 101**30 + 2
    while any(q % f == 0 for f in range(2, 64)):
        q += 2
    with pytest.raises(InputError, match="cannot tell whether"):
        prime_power_base(q)
    assert exponents == [j for j in range(2, 60) if is_prime(j) and 64**j <= q]


def test_iroot_is_the_floor_of_the_kth_root():
    rng = random.Random(2026)
    cases = [(1, 2), (1, 97), (2**64 - 1, 2), (2**64, 2), (10**4298 - 1, 3)]
    for _ in range(2000):
        k = rng.choice([2, 3, 5, 7, 11, 13, rng.randrange(2, 400)])
        kind = rng.randrange(3)
        if kind == 0:
            n = rng.getrandbits(rng.randrange(1, 3000)) + 1
        else:  # an exact power r^k, or one below it
            n = max((rng.getrandbits(rng.randrange(1, 200)) + 1) ** k - (kind == 2), 1)
        cases.append((n, k))
    for n, k in cases:
        x = arith._iroot(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k)


def test_prime_power_base_refuses_a_4299_digit_q_quickly():
    # 4,299 digits, under the 4,300-digit int limit, and no factor below 64, so
    # a root is taken for every prime exponent up to log_64 q (about 2,380)
    q = 10**4298 + 1
    while any(q % f == 0 for f in range(2, 64)):
        q += 2
    start = time.perf_counter()
    with pytest.raises(InputError, match="^cannot tell whether"):
        prime_power_base(q)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [2809, 3127, 3869, 4087, 4307])  # 53^2, 53*59, 53*73, 61*67, 59*73
def test_pollard_brent_retraces_a_batch_that_overshoots(n, monkeypatch):
    gcds = []
    gcd = arith.math.gcd
    monkeypatch.setattr(arith.math, "gcd", lambda a, b: gcds.append(gcd(a, b)) or gcds[-1])
    d = arith._pollard_brent(n)
    assert n in gcds  # a batch's gcd was n itself, so it was retraced step by step
    assert 1 < d < n and n % d == 0


def test_multiplicative_order_examples():
    assert multiplicative_order(81, 5) == 1
    assert multiplicative_order(9, 5) == 2
    assert multiplicative_order(3, 5) == 4
    assert multiplicative_order(27, 5) == 4
    assert multiplicative_order(1, 7) == 1


def test_multiplicative_order_rejects_l_dividing_q():
    with pytest.raises(PreconditionError):
        multiplicative_order(10, 5)
    with pytest.raises(InputError, match="^l = 6 is not prime$"):
        multiplicative_order(3, 6)


def test_multiplicative_order_is_minimal_and_divides_l_minus_1():
    for l in PRIMES_TO_50:
        for q in range(1, 1001):
            if q % l == 0:
                continue
            r = multiplicative_order(q, l)
            assert pow(q, r, l) == 1
            assert all(pow(q, s, l) != 1 for s in range(1, r))
            assert (l - 1) % r == 0


def test_residues_one_per_order_match_the_orders_one_by_one():
    for l in (n for n in range(2, 300) if is_prime(n)):
        orders = {}
        for q in range(1, l):
            orders.setdefault(multiplicative_order(q, l), q)
        assert residues_one_per_order(l) == [orders[r] for r in sorted(orders)], l
    for l in (1, 4, 91):
        with pytest.raises(InputError, match=f"^l = {l} is not prime$"):
            residues_one_per_order(l)


def test_galois_params_examples():
    gp = galois_params(3, 3, 5)
    assert (gp.r, gp.a, gp.h) == (4, 1, 16)
    gp = galois_params(3, 81, 5)
    assert (gp.r, gp.a, gp.h) == (1, 1, 16)
    gp = galois_params(2, 4, 3)
    assert (gp.r, gp.a, gp.h) == (1, 1, 1)


def test_galois_params_errors():
    with pytest.raises(PreconditionError):
        galois_params(5, 5, 5)
    with pytest.raises(InputError):
        galois_params(3, 8, 5)  # 8 is not a power of 3
    with pytest.raises(InputError):
        galois_params(4, 16, 5)  # p must be prime
    with pytest.raises(InputError):
        galois_params(2, 9, 2)  # a malformed q is refused before l = p


def test_galois_params_reconstruction():
    for p, k, l in [(2, 1, 3), (2, 5, 31), (3, 4, 5), (7, 3, 11), (2, 31, 101), (5, 6, 13)]:
        q = p**k
        gp = galois_params(p, q, l)
        assert gp.l**gp.a * gp.h == q**gp.r - 1
        assert gp.h % gp.l != 0
        assert gp.a >= 1


@pytest.mark.parametrize(
    "q, l, h, digits",
    [
        (499999999999999999998781, 249999999999999999999391, 10**24 - 2440, 24),
        (500000000000000000004277, 250000000000000000002139, 10**24 + 8552, 25),
    ],
)
def test_h_digits_when_h_is_near_a_power_of_ten(q, l, h, digits):
    # q is prime and q = -1 mod l, so r = 2, a = 1 and q^r >= 2^100: the
    # logarithm branch, where log10(h) lies within 1e-20 of the integer 24
    # and the digit count must come from h itself
    gp = galois_params(q, q, l)
    assert (gp.r, gp.a) == (2, 1)
    assert gp.r * (q.bit_length() - 1) >= 100
    assert gp.h_digits() == digits
    assert gp.h == h and len(str(h)) == digits


@pytest.mark.parametrize(
    "p, q, l",
    [(2, 2, 101), (5, 25, 101), (3, 3, 1009), (3, 81, 499), (7, 7, 211), (2, 4, 1439),
     (2, 2, 8209), (13, 13**3, 2003)],
)
def test_h_digits_from_the_decimal_logarithm(p, q, l):
    gp = galois_params(p, q, l)
    # the logarithm branch, the first two fields on its edge, and an h short
    # enough to print, so that len(str(h)) can check it
    assert gp.r * (q.bit_length() - 1) >= 100
    digits = gp.h_digits()
    assert "h" not in vars(gp)  # the logarithm did not need h
    assert digits < sys.get_int_max_str_digits()
    assert digits == len(str(gp.h))
    assert gp.h is gp.h  # formed once


def test_galois_params_validates_on_direct_construction():
    with pytest.raises(PreconditionError):
        GaloisParams(p=5, q=5, l=5)
    with pytest.raises(TypeError):  # r and a are derived, never given
        GaloisParams(p=3, q=3, l=5, r=4, a=1)
    assert GaloisParams(p=3, q=3, l=5) == galois_params(3, 3, 5)


def test_galois_params_rejects_a_below_the_l_valuation():
    assert galois_params(19, 19, 3).a == 2  # 19 - 1 = 3^2 * 2


def test_galois_params_checks_each_input_once(monkeypatch):
    # 7 for p, 99991 for l once, in multiplicative_order, and 101, the factor
    # of 99990 = 2 * 3^2 * 5 * 11 * 101 that trial division leaves
    calls = []
    counted = arith.is_prime

    def is_prime(n):
        calls.append(n)
        return counted(n)

    monkeypatch.setattr(arith, "is_prime", is_prime)
    galois_params(7, 343, 99991)
    assert calls == [7, 99991, 101]


def test_gl_params_long_division():
    gp = galois_params(3, 3, 5)  # r = 4
    glp = gl_params(gp, 3)
    assert (glp.m, glp.e) == (0, 3)
    gp = galois_params(3, 9, 5)  # r = 2
    glp = gl_params(gp, 5)
    assert (glp.m, glp.e) == (2, 1)
    gp = galois_params(3, 81, 5)  # r = 1
    glp = gl_params(gp, 7)
    assert (glp.m, glp.e) == (7, 0)
    with pytest.raises(InputError):
        gl_params(gp, 0)
    with pytest.raises(TypeError):  # m and e are derived, never given
        GLParams(base=gp, n=7, m=7, e=0)
    assert GLParams(base=gp, n=7) == glp


def test_gl_params_invariant_over_ranges():
    for l in (3, 5, 7, 11, 13):
        for q in (2, 3, 4, 8, 9):
            if q % l == 0:
                continue
            gp = galois_params(prime_power_base(q)[0], q, l)
            for n in range(1, 12):
                glp = gl_params(gp, n)
                assert glp.n == gp.r * glp.m + glp.e
                assert 0 <= glp.e < gp.r

