"""Every library entry point refuses an integer argument that is not
integral with an InputError naming it, before any arithmetic on it, and an
argument outside its domain with an InputError stating the domain."""

import ast
from pathlib import Path

import pytest

import chevring

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
    hilbert_series_of_free_polynomial_ring,
    multiply,
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
        (lambda: hilbert_series_of_free_polynomial_ring((1.5,), 3), "generator degree", 1.5),
        (lambda: hilbert_series_of_free_polynomial_ring(("2",), 3), "generator degree", "2"),
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
        (lambda: TruncatedSeries(2, (1, 1.5, 1)), "series coefficient", 1.5),
        (lambda: TruncatedSeries(2, (1, "a", 1)), "series coefficient", "a"),
        (lambda: TruncatedSeries.from_json_dict({"cutoff": 1.7, "coefficients": [1, 2]}),
         "cutoff", 1.7),
        (lambda: TruncatedSeries.from_json_dict({"cutoff": 1, "coefficients": [1, 1.5]}),
         "series coefficient", 1.5),
        (lambda: elementary_symmetric(1.5, [1, 2]), "i", 1.5),
        (lambda: packed_monomials((1,), 2.5), "cutoff", 2.5),
        (lambda: multiply([1, 1], [1], 1.5), "modulus", 1.5),
        (lambda: multiply([1, 1], [1], "5"), "modulus", "5"),
    ],
)
def test_a_non_integral_integer_is_refused(call, name, value):
    with pytest.raises(InputError) as excinfo:
        call()
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicative_order(0, 7), "q must be >= 1, got 0"),
        (lambda: gl_params(_P, 0), "n must be >= 1, got 0"),
        (lambda: chow_gl_presentation(gl_params(_P, 2), b=0), "b must be >= 1, got 0"),
        (lambda: GradedActionProblem((1,), 5, 3, -1), "cutoff must be >= 0, got -1"),
        (lambda: GradedActionProblem((1,), 5, 3, 4, monomial_limit=0),
         "monomial_limit must be >= 1, got 0"),
        (lambda: hilbert_series_of_free_polynomial_ring((1,), -1), "cutoff must be >= 0, got -1"),
        (lambda: hilbert_series_of_free_polynomial_ring((0,), 3),
         "generator degrees must be positive, got 0"),
        (lambda: multiply([1, 1], [1], 1), "modulus must be >= 2, got 1"),
        (lambda: multiply([1], [1], -3), "modulus must be >= 2, got -3"),
        (lambda: packed_monomials((0,), 3), "variable weights must be positive integers"),
        (lambda: packed_monomials((1.5,), 3),
         "variable weights must be positive integers: "
         "'float' object cannot be interpreted as an integer"),
        (lambda: packed_monomials((1,), -1), "cutoff must be >= 0, got -1"),
        (lambda: packed_monomials((2,), -1), "cutoff must be >= 0, got -1"),
        (lambda: invariants_hilbert_closedform(GradedActionProblem((1, 1), 5, 3, 4)),
         "invariant oracle needs the full symmetric permutation component"),
        (lambda: verify_restricted_chern(0, _P), "m must be >= 1, got 0"),
        (lambda: TruncatedSeries(-1, ()), "cutoff must be >= 0, got -1"),
        (lambda: TruncatedSeries(1, (1, -1)), "series coefficient must be >= 0, got -1"),
        (lambda: TruncatedSeries(2, 5), "series coefficients must be an iterable of integers"),
        (lambda: TruncatedSeries(2, None), "series coefficients must be an iterable of integers"),
    ],
)
def test_an_argument_outside_its_domain_is_refused(call, message):
    with pytest.raises(InputError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_a_series_holds_its_coefficients_as_a_tuple_of_ints():
    """An integral coefficient of another type is stored as its int, and a
    list of coefficients as a tuple, so the series hashes."""
    for coefficients in ([1, 1, 1], (1, True, 1)):
        series = TruncatedSeries(2, coefficients)
        assert series.coefficients == (1, 1, 1)
        assert {type(c) for c in series.coefficients} == {int}
        assert hash(series) == hash(TruncatedSeries(2, (1, 1, 1)))


def test_only_the_integer_check_writes_a_lower_bound_refusal():
    """Every "must be >= " refusal comes from `errors._integer`: no other
    module builds an InputError message with that text by hand."""
    offenders = []
    for path in sorted(Path(chevring.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "InputError"
                and "must be >= " in ast.unparse(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
