"""Every library entry point refuses an integer argument that is not
integral with an InputError naming it, before any arithmetic on it, and an
argument outside its domain with an InputError stating the domain."""

import pytest

from chevring.arith import (
    galois_params,
    gl_params,
    is_prime,
    multiplicative_order,
    prime_power_base,
    require_prime,
    residues_one_per_order,
)
from chevring.errors import InputError
from chevring.oracles import (
    GradedActionProblem,
    invariants_hilbert_closedform,
    verify_restricted_chern,
)
from chevring.poly import (
    TruncatedSeries,
    elementary_symmetric,
    generators,
    hilbert_series_of_free_polynomial_ring,
    packed_monomials,
)
from chevring.presentations import chow_gl_presentation, cobordism_presentation, poincare_series
from chevring.rootdata import group_order, lookup
from chevring.verify import Sweep

_P = galois_params(3, 9, 5)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: Sweep(max_m=2.5), "max_m", 2.5),
        (lambda: Sweep(primes=(3.0,)), "l", 3.0),
        (lambda: Sweep(cutoff="3"), "cutoff", "3"),
        (lambda: Sweep(monomial_limit=10.0), "monomial_limit", 10.0),
        (lambda: galois_params(3.0, 9, 5), "p", 3.0),
        (lambda: galois_params(3, 9.0, 5), "q", 9.0),
        (lambda: galois_params(3, 9, 5.0), "l", 5.0),
        (lambda: gl_params(_P, 2.5), "n", 2.5),
        (lambda: chow_gl_presentation(gl_params(_P, 2), b=1.5), "b", 1.5),
        (lambda: poincare_series(cobordism_presentation(lookup("Sp", 2), _P), 2.5), "cutoff", 2.5),
        (lambda: hilbert_series_of_free_polynomial_ring((1, 2), 4.0), "cutoff", 4.0),
        (lambda: lookup("GL", 2.0), "rank", 2.0),
        (lambda: group_order(lookup("GL", 3), 9.0), "q", 9.0),
        (lambda: prime_power_base(9.0), "q", 9.0),
        (lambda: multiplicative_order(2.0, 7), "q", 2.0),
        (lambda: multiplicative_order(2, 7.0), "l", 7.0),
        (lambda: residues_one_per_order(7.0), "l", 7.0),
        (lambda: verify_restricted_chern(1.5, _P), "m", 1.5),
        (lambda: is_prime(7.0), "n", 7.0),
        (lambda: require_prime(7.0), "n", 7.0),
        (lambda: require_prime(7.0, "l"), "l", 7.0),
        (lambda: TruncatedSeries(2.0, (1, 1, 1)), "cutoff", 2.0),
        (lambda: elementary_symmetric(1.5, [1, 2]), "i", 1.5),
        (lambda: packed_monomials((1,), 2.5), "cutoff", 2.5),
        (lambda: generators(5, (("x", 1),), 4)[0] ** 2.0, "n", 2.0),
    ],
)
def test_a_non_integral_integer_is_refused(call, name, value):
    with pytest.raises(InputError) as excinfo:
        call()
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicative_order(0, 7), "q must be positive, got 0"),
        (lambda: GradedActionProblem((1,), 5, 3, 4, monomial_limit=0),
         "monomial limit must be positive"),
        (lambda: invariants_hilbert_closedform(GradedActionProblem((1, 1), 5, 3, 4)),
         "invariant oracle needs the full symmetric permutation component"),
        (lambda: verify_restricted_chern(0, _P), "m must be >= 1, got 0"),
        (lambda: generators(5, (("x", 1),), 4)[0] ** -1,
         "negative polynomial powers are not defined"),
        (lambda: TruncatedSeries(-1, ()), "cutoff must be >= 0, got -1"),
    ],
)
def test_an_argument_outside_its_domain_is_refused(call, message):
    with pytest.raises(InputError) as excinfo:
        call()
    assert str(excinfo.value) == message
