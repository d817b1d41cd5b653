import time
from itertools import combinations_with_replacement

import pytest

from chevring.arith import galois_params, prime_power_base, residues_one_per_order
from chevring.errors import InputError, ResourceLimitError
from chevring.oracles import (
    FULL_SYMMETRIC,
    Clause,
    GradedActionProblem,
    _SpanAccumulator,
    brauer_chern_total_class,
    chern_scalar_checks,
    coinvariants_hilbert_bruteforce,
    coinvariants_hilbert_closedform,
    invariants_hilbert_bruteforce,
    invariants_hilbert_closedform,
    verify_restricted_chern,
)
from chevring.poly import generators, hilbert_series_of_free_polynomial_ring
from chevring.presentations import CHOW, cobordism_presentation, poincare_series
from chevring.rootdata import lookup


def _params(q, l):
    return galois_params(prime_power_base(q)[0], q, l)


# -- coinvariants -------------------------------------------------------------


def test_coinvariants_trivial_action_is_full_ring():
    problem = GradedActionProblem(weights=(1, 1, 2), l=7, q=1, cutoff=6)
    brute = coinvariants_hilbert_bruteforce(problem)
    assert brute == hilbert_series_of_free_polynomial_ring((1, 1, 2), 6)


def test_coinvariants_single_variable_dies():
    problem = GradedActionProblem(weights=(1,), l=5, q=3, cutoff=4)
    assert coinvariants_hilbert_bruteforce(problem).coefficients == (1, 0, 0, 0, 0)


def test_coinvariants_mixed_weights():
    problem = GradedActionProblem(weights=(1, 4), l=5, q=3, cutoff=8)
    expected = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert coinvariants_hilbert_bruteforce(problem).coefficients == expected
    assert coinvariants_hilbert_closedform(problem).coefficients == expected


def test_coinvariants_closedform_keeps_divisible_weights():
    problem = GradedActionProblem(weights=(2, 4, 6, 8), l=5, q=3, cutoff=8)
    # r = 4: only the weights 4 and 8 survive
    assert coinvariants_hilbert_closedform(problem).coefficients == (
        1, 0, 0, 0, 1, 0, 0, 0, 2,
    )


def test_coinvariants_oracle_matches_closed_form_small_sweep():
    for l in (3, 5):
        for q in residues_one_per_order(l):
            for k in range(1, 4):
                for weights in combinations_with_replacement(range(1, 5), k):
                    problem = GradedActionProblem(weights=weights, l=l, q=q, cutoff=10)
                    assert coinvariants_hilbert_bruteforce(problem) == coinvariants_hilbert_closedform(problem), (weights, l, q)


def test_coinvariants_rejects_permutation_component():
    problem = GradedActionProblem(weights=(1, 1), l=5, q=3, cutoff=4, permutation=FULL_SYMMETRIC)
    with pytest.raises(InputError):
        coinvariants_hilbert_bruteforce(problem)
    with pytest.raises(InputError):
        coinvariants_hilbert_closedform(problem)


def test_resource_limit_names_the_offending_degree():
    problem = GradedActionProblem(weights=(1, 1, 1), l=3, q=1, cutoff=6, monomial_limit=10)
    # 15 monomials of degree 4 in three variables
    with pytest.raises(ResourceLimitError, match="^degree 4: 15 monomials exceed"):
        coinvariants_hilbert_bruteforce(problem)


# -- the eliminator -------------------------------------------------------------


def test_single_term_row_is_reduced_against_a_multi_term_pivot():
    # packed keys with base 10: 20 is x^2 and 11 is xy
    acc = _SpanAccumulator(5)
    assert acc.add_terms(20, 1, 11, 3)
    # 20 has a two-term pivot: 2*x^2 reduces to -6*xy = 4*xy
    assert acc.add_terms(20, 2)
    assert acc.rank == 2
    assert acc.pivots[11] == ()
    # 3*x^2 reduces to -9*xy = xy, which the new pivot cancels
    assert not acc.add_terms(20, 3)
    assert acc.rank == 2


def test_single_term_row_against_a_single_term_pivot_is_rejected():
    acc = _SpanAccumulator(7)
    assert acc.add_terms(5, 3)
    assert not acc.add_terms(5, 6)
    assert acc.rank == 1


def test_single_term_row_with_a_new_lead_is_inserted():
    acc = _SpanAccumulator(7)
    assert acc.add_terms(9, 4)
    assert acc.add_terms(4, 6)
    assert acc.pivots == {9: (), 4: ()}


def test_two_term_row_that_cancels_against_a_two_term_pivot_is_dependent():
    acc = _SpanAccumulator(7)
    assert acc.add_terms(9, 1, 4, 3)
    # c_b = 6 = c_a * x = 2 * 3: the row is twice the pivot
    assert not acc.add_terms(9, 2, 4, 6)
    assert not acc.add_terms(9, 4, 4, 5)
    assert acc.pivots == {9: (4, 3)}


def test_two_term_row_against_a_two_term_pivot_keeps_two_terms():
    acc = _SpanAccumulator(7)
    assert acc.add_terms(9, 1, 6, 2)
    # b < c: 9 + 2 reduces to -2*6 + 2, led by 6
    assert acc.add_terms(9, 1, 2, 1)
    assert acc.pivots[6] == (2, 3)
    # b > c: 9 + 7 reduces to 7 - 2*6, led by 7
    assert acc.add_terms(9, 1, 7, 1)
    assert acc.pivots[7] == (6, 5)
    # b == c: 2*9 + 6 reduces to (1 - 4)*6 = 4*6, then against 6's pivot
    # to -12*2 = 2*2
    assert acc.add_terms(9, 2, 6, 1)
    assert acc.pivots[2] == ()
    assert acc.rank == 4


def test_two_term_row_against_a_one_term_pivot_drops_its_lead():
    acc = _SpanAccumulator(5)
    assert acc.add_terms(8, 2)
    assert acc.add_terms(8, 3, 3, 2)
    assert acc.pivots == {8: (), 3: ()}
    assert not acc.add_terms(8, 1, 3, 4)


def test_single_term_row_is_chased_through_a_chain_of_two_term_pivots():
    acc = _SpanAccumulator(7)
    assert acc.add_terms(9, 1, 6, 2)
    assert acc.add_terms(6, 1, 3, 4)
    assert acc.add_terms(3, 1, 1, 5)
    # the row follows 9 -> 6 -> 3 -> 1 with coefficients 1, -2, 8 = 1 and
    # -5 = 2, and 1 has no pivot
    assert acc.add_terms(9, 1)
    assert acc.pivots[1] == ()
    assert acc.rank == 4
    # now every key of the chain is in the span
    assert not any(acc.add_terms(k, 3) for k in (9, 6, 3, 1))


def test_permutation_rows_over_f_2():
    # l = 2: the image's coefficient l - 1 is 1, so e - g(e) is e + g(e)
    acc = _SpanAccumulator(2)
    assert acc.add_terms(3, 1, 1, 1)
    assert acc.add_terms(3, 1, 2, 1)
    assert acc.pivots[2] == (1, 1)
    assert not acc.add_terms(2, 1, 1, 1)
    assert acc.add_terms(1, 1)
    assert not acc.add_terms(3, 1)
    assert acc.rank == 3


# -- invariants ---------------------------------------------------------------


def test_invariants_single_variable():
    problem = GradedActionProblem(
        weights=(1,), l=5, q=3, cutoff=8, permutation=FULL_SYMMETRIC
    )
    assert invariants_hilbert_bruteforce(problem).coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    trivial = GradedActionProblem(
        weights=(1,), l=5, q=1, cutoff=3, permutation=FULL_SYMMETRIC
    )
    assert invariants_hilbert_bruteforce(trivial).coefficients == (1, 1, 1, 1)


def test_invariants_two_blocks():
    problem = GradedActionProblem(
        weights=(1, 1), l=5, q=3, cutoff=8, permutation=FULL_SYMMETRIC
    )
    expected = (1, 0, 0, 0, 1, 0, 0, 0, 2)
    assert invariants_hilbert_bruteforce(problem).coefficients == expected
    assert invariants_hilbert_closedform(problem).coefficients == expected


def test_invariants_match_product_formula_m_up_to_5():
    for l in (3, 5, 7):
        for q in residues_one_per_order(l):
            for m in (1, 2, 3, 4, 5):
                problem = GradedActionProblem(
                    weights=(1,) * m, l=l, q=q, cutoff=10, permutation=FULL_SYMMETRIC
                )
                assert invariants_hilbert_bruteforce(problem) == invariants_hilbert_closedform(problem), (m, l, q)


def test_invariants_requires_symmetric_flag_and_unit_weights():
    with pytest.raises(InputError):
        invariants_hilbert_bruteforce(GradedActionProblem(weights=(1, 1), l=5, q=3, cutoff=4))
    with pytest.raises(InputError):
        invariants_hilbert_bruteforce(
            GradedActionProblem(weights=(1, 2), l=5, q=3, cutoff=4, permutation=FULL_SYMMETRIC)
        )


def test_problem_validation():
    with pytest.raises(InputError):
        GradedActionProblem(weights=(1,), l=6, q=1, cutoff=4)
    with pytest.raises(InputError):
        GradedActionProblem(weights=(1,), l=5, q=10, cutoff=4)  # gcd(q, l) != 1
    with pytest.raises(InputError):
        GradedActionProblem(weights=(0,), l=5, q=3, cutoff=4)
    with pytest.raises(InputError):
        GradedActionProblem(weights=(1,), l=5, q=3, cutoff=-1)
    with pytest.raises(InputError):
        GradedActionProblem(weights=(1,), l=5, q=3, cutoff=4, permutation="cyclic")
    with pytest.raises(InputError):
        GradedActionProblem(weights=(1.5, 2), l=5, q=2, cutoff=4)  # not truncated to (1, 2)
    # a non-integral l, q, cutoff or limit is refused, not carried into the
    # oracle to fail there with a TypeError or be compared as a float
    for field in ("l", "q", "cutoff", "monomial_limit"):
        args = dict(weights=(1, 1), l=5, q=2, cutoff=4, monomial_limit=10)
        args[field] += 0.5
        with pytest.raises(InputError, match=f"^{field} must be an integer"):
            GradedActionProblem(**args)


# -- Chern classes ------------------------------------------------------------


def test_total_class_m1_q3_l5():
    total = brauer_chern_total_class(1, _params(3, 5))
    (eta,) = generators(5, total.variables, total.cutoff)
    assert total == 1 + 4 * eta**4
    assert str(total) == "1 + 4*eta_1^4"


def test_total_class_r_equals_1():
    total = brauer_chern_total_class(1, _params(4, 3))
    (eta,) = generators(3, total.variables, total.cutoff)
    assert total == 1 + eta


def test_total_class_is_product_of_single_block_answers():
    params = _params(3, 5)
    total = brauer_chern_total_class(2, params)
    eta1, eta2 = generators(5, total.variables, total.cutoff)
    assert total == (1 + 4 * eta1**4) * (1 + 4 * eta2**4)


def test_total_class_is_galois_invariant():
    # q scales every eta_j, so it acts on the degree-d component by q^d
    for q, l in [(3, 5), (9, 5), (2, 7), (4, 7), (2, 13), (5, 11)]:
        params = _params(q, l)
        for m in (1, 2, 3):
            total = brauer_chern_total_class(m, params)
            components = total.homogeneous_components()
            assert len(components) > 1, (q, l, m)
            image = sum(pow(q, d, l) * h for d, h in components.items())
            assert image == total, (q, l, m)


def test_verify_restricted_chern_passes_and_reports_clauses():
    report = verify_restricted_chern(1, _params(3, 5))
    assert report.passed
    names = [c.name for c in report.clauses]
    assert names == [
        "off_degree_components_vanish",
        "symmetric_function_identity",
        "top_coefficient_sign",
    ]
    report = verify_restricted_chern(3, _params(2, 7))
    assert report.passed
    assert [c.name for c in report.clauses] == [
        "off_degree_components_vanish",
        "symmetric_function_identity",
    ]


def test_verify_restricted_chern_sweep():
    for q, l in [(3, 5), (27, 5), (81, 5), (2, 7), (4, 7), (2, 3), (3, 13), (2, 11)]:
        params = _params(q, l)
        for m in (1, 2, 3):
            assert verify_restricted_chern(m, params).passed, (q, l, m)


def test_chern_scalar_checks_spec_case():
    # q = 2, l = 7, r = 3: e_1(1,2,4) = 7 and e_2(1,2,4) = 14 vanish mod 7
    report = chern_scalar_checks(7, 2)
    assert report.passed
    assert dict(report.parameters)["r"] == 3


def test_chern_scalar_checks_every_residue_up_to_13():
    for l in (2, 3, 5, 7, 11, 13):
        for q in range(1, l):
            assert chern_scalar_checks(l, q).passed, (l, q)


def test_chern_scalar_checks_every_residue_at_211_is_fast():
    start = time.perf_counter()
    assert all(chern_scalar_checks(211, q).passed for q in range(1, 211))
    assert time.perf_counter() - start < 2


def test_chern_scalar_checks_names_each_nonvanishing_value(monkeypatch):
    # with a wrong order r = 3 for q = 2, l = 3: prod (1 + t)(1 + 2t)(1 + t)
    # = 1 + 4t + 5t^2 + 2t^3, so e_1 = 1 and e_2 = 2 mod 3
    import chevring.oracles

    monkeypatch.setattr(chevring.oracles, "multiplicative_order", lambda q, l: 3)
    report = chern_scalar_checks(3, 2)
    assert not report.passed
    assert report.clauses[0].witness == "e_1 = 1; e_2 = 2"


def test_chern_reports_name_a_wrong_top_power(monkeypatch):
    # with a wrong order r = 2 for q = 1, l = 3: q^1 = 1, but (-1)^1 = 2 mod 3
    import chevring.oracles

    monkeypatch.setattr(chevring.oracles, "multiplicative_order", lambda q, l: 2)
    assert chern_scalar_checks(3, 1).clauses[1] == Clause(
        "top_power_is_sign", False, "q^{r(r-1)/2} = 1, sign 2"
    )
    # with a wrong order r = 3 for q = 2, l = 3, the degree-3 coefficient of
    # (1 + eta)(1 + 2 eta)(1 + eta) is 2, q^3 = 2 and (-1)^2 = 1 mod 3
    params = _params(2, 3)
    object.__setattr__(params, "r", 3)
    assert verify_restricted_chern(1, params).clauses[2] == Clause(
        "top_coefficient_sign", False, "coefficient 2, q^{r(r-1)/2} = 2, sign 1"
    )


@pytest.mark.parametrize(
    "m, off_degree, symmetric",
    [
        (
            1,
            "degree 1: eta_1; degree 2: 2*eta_1^2",
            "degree 3: got 2*eta_1^3, expected eta_1^3",
        ),
        (
            2,
            "degree 1: eta_2 + eta_1; degree 2: 2*eta_2^2 + eta_1*eta_2 + 2*eta_1^2; "
            "degree 4: 2*eta_1*eta_2^3 + eta_1^2*eta_2^2 + 2*eta_1^3*eta_2; "
            "degree 5: eta_1^2*eta_2^3 + eta_1^3*eta_2^2",
            "degree 3: got 2*eta_2^3 + 2*eta_1*eta_2^2 + 2*eta_1^2*eta_2 + 2*eta_1^3, "
            "expected eta_2^3 + eta_1^3",
        ),
    ],
)
def test_chern_reports_name_every_off_degree_and_symmetric_mismatch(m, off_degree, symmetric):
    # with a wrong order r = 3 for q = 2, l = 3, the total class has terms
    # in degrees prime to 3, and its degree-3 part is not e_1(eta^3), the
    # sign (-1)^{(r-1)i} being 1; each witness names every offending degree
    params = _params(2, 3)
    object.__setattr__(params, "r", 3)
    off, sym = verify_restricted_chern(m, params).clauses[:2]
    assert off == Clause("off_degree_components_vanish", False, off_degree)
    assert sym == Clause("symmetric_function_identity", False, symmetric)


# -- cross-module consistency ---------------------------------------------------


def test_sp_pattern_links_oracle_and_presentation():
    params = _params(3, 5)
    for n in range(1, 5):
        datum = lookup("Sp", n)
        problem = GradedActionProblem(weights=datum.degrees, l=5, q=3, cutoff=12)
        closed = coinvariants_hilbert_closedform(problem)
        brute = coinvariants_hilbert_bruteforce(problem)
        series = poincare_series(cobordism_presentation(datum, params), 12, CHOW)
        assert closed == series
        assert brute == series
