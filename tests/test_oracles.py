import time
from itertools import combinations_with_replacement

import pytest

from chevring.arith import galois_params, is_prime, prime_power_base, residues_one_per_order
from chevring.errors import InputError, ResourceLimitError
from chevring.oracles import (
    FULL_SYMMETRIC,
    Clause,
    GradedActionProblem,
    _SINK,
    _chern_block,
    _join,
    coinvariants_hilbert_bruteforce,
    coinvariants_hilbert_closedform,
    invariants_hilbert_bruteforce,
    invariants_hilbert_closedform,
    verify_restricted_chern,
)
from chevring.poly import hilbert_series_of_free_polynomial_ring
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


# -- the spanning forest ---------------------------------------------------------


def test_a_cycle_adds_nothing():
    parent = {}
    _join(parent, 9, 4)
    _join(parent, 4, 6)
    assert len(parent) == 2
    # 9 - 6 is (9 - 4) + (4 - 6), in either direction
    _join(parent, 9, 6)
    _join(parent, 6, 9)
    assert len(parent) == 2


def test_a_one_term_row_joins_the_sink():
    parent = {}
    _join(parent, 5)
    assert parent == {5: _SINK}
    # 3*e and 6*e span the same line as e
    _join(parent, 5)
    assert len(parent) == 1
    _join(parent, 7, _SINK)
    assert len(parent) == 2


def test_an_edge_between_two_keys_already_joined_to_the_sink_adds_nothing():
    parent = {}
    _join(parent, 9)
    _join(parent, 4)
    _join(parent, 9, 4)
    _join(parent, 4, 9)
    assert len(parent) == 2
    # an edge that reaches the sink's tree puts every key of its own tree in
    # the span: 3 - 2 and 2 - 9 leave 3 and 2 in it, so 3 then adds nothing
    _join(parent, 3, 2)
    _join(parent, 2, 9)
    assert len(parent) == 4
    _join(parent, 3)
    assert len(parent) == 4


def test_key_0_is_an_ordinary_key_not_the_sink():
    # key 0 is the monomial 1: the row 0 - 1 is an edge, not the row -1
    parent = {}
    _join(parent, 1, 0)
    _join(parent, 1)
    assert len(parent) == 2
    _join(parent, 0)
    assert len(parent) == 2
    fresh = {}
    _join(fresh, 0)
    assert fresh == {0: _SINK}


def test_len_parent_counts_merges_after_path_halving():
    # the smaller root becomes the parent, so joining from the top down
    # builds the chain 8 -> 7 -> ... -> 1
    parent = {}
    for k in range(7, 0, -1):
        _join(parent, k, k + 1)
    assert parent == {k + 1: k for k in range(1, 8)}
    # finding 8's root halves its path: 8, 6 and 4 now skip a step
    _join(parent, 8)
    assert len(parent) == 8
    assert parent[8] == 6 and parent[6] == 4 and parent[4] == 2
    assert parent[1] == _SINK
    # every key is in the sink's tree, however long its path
    for k in range(1, 9):
        _join(parent, k)
        _join(parent, _SINK, k)
    assert len(parent) == 8


def test_the_sink_stays_a_root():
    # 9 is joined to the sink, then to 4: 4 joins the sink's tree below it
    parent = {}
    _join(parent, 9)
    _join(parent, 9, 4)
    assert parent == {9: _SINK, 4: _SINK}


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


def test_the_invariants_closed_form_does_not_scan_up_to_m_times_r():
    # r = 1428574 for q = 2 mod this l: the generators r, ..., 5r lie past
    # the cutoff, and a scan of the 7142870 degrees 1..5r would take about
    # a second
    problem = GradedActionProblem(
        weights=(1,) * 5, l=10000019, q=2, cutoff=4, permutation=FULL_SYMMETRIC
    )
    start = time.perf_counter()
    assert invariants_hilbert_closedform(problem).coefficients == (1, 0, 0, 0, 0)
    assert time.perf_counter() - start < 0.1


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


def test_the_block_at_q3_l5():
    # r = 4: (1 + eta)(1 + 3 eta)(1 + 4 eta)(1 + 2 eta) = 1 + 4 eta^4 mod 5
    assert _chern_block(3, 4, 5) == [1, 0, 0, 0, 4]


def test_the_block_at_r_equals_1():
    assert _chern_block(4, 1, 3) == [1, 1]


def test_the_block_is_the_product_of_its_linear_factors():
    # sympy's expansion over GF(l), also at orders r that are not q's
    sympy = pytest.importorskip("sympy")
    eta = sympy.Symbol("eta")
    for q, l in [(3, 5), (9, 5), (2, 7), (4, 7), (2, 13), (5, 11), (2, 3), (7, 2)]:
        for r in range(1, 9):
            factors = [1 + pow(q, i, l) * eta for i in range(r)]
            expanded = sympy.Poly(sympy.Mul(*factors), eta, modulus=l)
            coefficients = [int(c) % l for c in reversed(expanded.all_coeffs())]
            assert _chern_block(q, r, l) == coefficients, (q, l, r)


def test_the_block_is_galois_invariant():
    # q scales eta, so it acts on the degree-k coefficient by q^k; each
    # block of the m-block class is then invariant, and so is their product
    for q, l in [(3, 5), (9, 5), (2, 7), (4, 7), (2, 13), (5, 11)]:
        params = _params(q, l)
        block = _chern_block(q, params.r, l)
        assert sum(1 for b in block if b) > 1, (q, l)
        assert all(b * pow(q, k, l) % l == b for k, b in enumerate(block)), (q, l)


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


def test_the_m_1_chern_report_makes_the_scalar_checks():
    # q = 2, l = 7, r = 3: e_1(1,2,4) = 7 and e_2(1,2,4) = 14 vanish mod 7,
    # and the degree-3 coefficient 8 = q^3 = (-1)^2 mod 7
    report = verify_restricted_chern(1, galois_params(2, 2, 7))
    assert report.passed
    assert dict(report.parameters)["r"] == 3
    assert [c.name for c in report.clauses] == [
        "off_degree_components_vanish", "symmetric_function_identity", "top_coefficient_sign",
    ]


def _least_prime(c, l):
    """The least prime congruent to c mod l."""
    q = c
    while not is_prime(q):
        q += l
    return q


def test_the_m_1_chern_report_passes_in_every_residue_class_up_to_13():
    # a prime field for every q mod l, as the scalar identities were once
    # checked for every residue q < l
    cases = [(l, _least_prime(c, l)) for l in (2, 3, 5, 7, 11, 13) for c in range(1, l)]
    assert len(cases) == 35
    for l, q in cases:
        assert verify_restricted_chern(1, galois_params(q, q, l)).passed, (l, q)


def test_the_m_1_chern_report_names_each_nonvanishing_value():
    # with a wrong order r = 3 for q = 2, l = 5: prod (1 + t)(1 + 2t)(1 + 4t)
    # = 1 + 7t + 14t^2 + 8t^3, so e_1 = 2 and e_2 = 4 mod 5, each named with
    # its degree
    params = _params(2, 5)
    object.__setattr__(params, "r", 3)
    report = verify_restricted_chern(1, params)
    assert not report.passed
    assert report.clauses[0].witness == "degree 1: 2*eta_1; degree 2: 4*eta_1^2"


def test_chern_reports_name_a_wrong_top_power():
    # with a wrong order r = 2 for q = 7, l = 3: the degree-2 coefficient of
    # (1 + eta)^2 is 1, q^1 = 1, but (-1)^1 = 2 mod 3
    params = _params(7, 3)
    object.__setattr__(params, "r", 2)
    assert verify_restricted_chern(1, params).clauses[2] == Clause(
        "top_coefficient_sign", False, "coefficient 1, q^{r(r-1)/2} = 1, sign 2"
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
            "degree 1: eta_1 has coefficient 1; degree 2: eta_1^2 has coefficient 2",
            "degree 3: eta_1^3 has coefficient 2, expected 1; "
            "degree 3: eta_1*eta_2^2 has coefficient 2, expected 0",
        ),
    ],
)
def test_chern_reports_name_every_off_degree_and_symmetric_mismatch(m, off_degree, symmetric):
    # with a wrong order r = 3 for q = 2, l = 3, the total class has terms
    # in degrees prime to 3, and its degree-3 part is not e_1(eta^3), the
    # sign (-1)^{(r-1)i} being 1.  The block is 1 + eta + 2 eta^2 + 2 eta^3:
    # at m = 1 each witness names every offending component, at m = 2 a
    # monomial for each wrong block coefficient, and eta_1*eta_2^2, whose
    # exponents 1 + 2 sum to r
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
