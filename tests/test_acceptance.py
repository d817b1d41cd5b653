"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing the stated runtime budget.  Everything is exact integer
arithmetic; there are no tolerances anywhere."""

import time
from itertools import combinations_with_replacement

from chevring.arith import (
    galois_params,
    gl_params,
    multiplicative_order,
    prime_power_base,
    residues_one_per_order,
)
from chevring.errors import InputError, PreconditionError
from chevring.oracles import (
    FULL_SYMMETRIC,
    GradedActionProblem,
    brauer_chern_total_class,
    coinvariants_hilbert_bruteforce,
    coinvariants_hilbert_closedform,
    invariants_hilbert_bruteforce,
    invariants_hilbert_closedform,
)
from chevring.poly import elementary_symmetric, generators
from chevring.presentations import (
    chow_gl_presentation,
    cobordism_presentation,
    compare_chow_cobordism_gl,
    render_text,
)
from chevring.rootdata import group_order, lookup
from chevring.verify import Sweep, run

SWEEP_PRIMES = (3, 5, 7, 11, 13)


def _criterion(number, description, budget, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number} ({description}): FAIL (took {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s")


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power_base(q)
        except InputError:
            continue
        out.append(q)
    return out


def _params(q, l):
    return galois_params(prime_power_base(q)[0], q, l)


def test_criterion_1_symplectic_example_block():
    def body():
        expected_orders = {81: 1, 9: 2, 3: 4, 27: 4}
        for q, r in expected_orders.items():
            params = _params(q, 5)
            assert params.r == r, (q, params.r)
            for n in range(1, 7):
                pres = cobordism_presentation(lookup("Sp", n), params)
                if r in (1, 2):
                    kept = list(range(1, n + 1))
                else:
                    kept = list(range(2, n + 1, 2))
                assert pres.named_degrees == tuple((2 * i, f"q_{i}") for i in kept), (q, n)
        assert render_text(cobordism_presentation(lookup("Sp", 4), _params(3, 5))).splitlines()[0] == "F_5[q_2, q_4]"
        assert render_text(cobordism_presentation(lookup("Sp", 4), _params(81, 5))).splitlines()[0] == "F_5[q_1, q_2, q_3, q_4]"

    _criterion(1, "Sp example block", 1.0, body)


def test_criterion_2_gl_trivial_case():
    def body():
        for l in SWEEP_PRIMES:
            for q in _prime_powers(81):
                if q % l == 0:
                    continue
                params = _params(q, l)
                for n in range(1, 9):
                    glp = gl_params(params, n)
                    if glp.m != 0:
                        continue
                    pres = chow_gl_presentation(glp)
                    assert pres.named_degrees == (), (n, q, l)
                    assert group_order(lookup("GL", n), q) % l != 0, (n, q, l)

    _criterion(2, "GL trivial case: no generators and order prime to l", 5.0, body)


def test_criterion_3_coinvariants_oracle_sweep():
    def body():
        for l in SWEEP_PRIMES:
            for q in residues_one_per_order(l):
                for k in range(1, 5):
                    for weights in combinations_with_replacement(range(1, 7), k):
                        problem = GradedActionProblem(weights=weights, l=l, q=q, cutoff=12)
                        brute = coinvariants_hilbert_bruteforce(problem)
                        closed = coinvariants_hilbert_closedform(problem)
                        assert brute == closed, (weights, l, q, brute, closed)

    _criterion(3, "coinvariants oracle equals closed form", 60.0, body)


def test_criterion_3_largest_admitted_coinvariant_instance():
    """19,160 monomials in the top degree pass the default limit of 20,000.
    Feeding every monomial pair of each degree takes 44.7 M rows on it; the
    degree-by-degree construction takes 345 k."""

    def body():
        problem = GradedActionProblem(weights=(1, 1, 1, 1, 2), l=3, q=2, cutoff=28)
        assert coinvariants_hilbert_bruteforce(problem) == coinvariants_hilbert_closedform(problem)

    _criterion(3, "coinvariants oracle at the default monomial limit", 2.0, body)


def test_criterion_4_fixed_ring_description():
    def body():
        for l in SWEEP_PRIMES:
            for q in residues_one_per_order(l):
                for m in range(1, 6):
                    problem = GradedActionProblem(
                        weights=(1,) * m, l=l, q=q, cutoff=12, permutation=FULL_SYMMETRIC
                    )
                    brute = invariants_hilbert_bruteforce(problem)
                    closed = invariants_hilbert_closedform(problem)
                    assert brute == closed, (m, l, q, brute, closed)

    _criterion(4, "wreath invariants equal the product formula", 60.0, body)


def test_criterion_5_chern_identities():
    def body():
        for l in (2, 3, 5, 7, 11, 13):
            for q in range(1, l):
                r = multiplicative_order(q, l)
                powers = [pow(q, i, l) for i in range(r)]
                for j in range(1, r):
                    assert elementary_symmetric(j, powers) % l == 0, (l, q, j)
                assert pow(q, r * (r - 1) // 2, l) == (-1) ** (r - 1) % l, (l, q)
        total = brauer_chern_total_class(1, _params(3, 5))
        (eta,) = generators(5, total.variables, total.cutoff)
        assert total == 1 + 4 * eta**4

    _criterion(5, "Chern vanishing and sign identities", 1.0, body)


def test_criterion_6_chow_cobordism_structural_match():
    def body():
        for n in range(1, 9):
            for l in SWEEP_PRIMES:
                for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81):
                    if q % l == 0:
                        continue
                    report = compare_chow_cobordism_gl(gl_params(_params(q, l), n))
                    assert report.equal, (n, q, l)

    _criterion(6, "GL chow and cobordism presentations agree", 5.0, body)


def test_criterion_7_registry_invariants():
    def body():
        # verify's registry clause looks up every record over its first 12
        # ranks, or its fixed one, and lookup checks prod(d_i) = |W| and
        # N = sum(d_i - 1) at each
        sweep = Sweep(primes=(3,), max_weight_len=0, max_m=0, sp_max_rank=0)
        (clause,) = (c for c in run(sweep) if c.name == "registry-invariants")
        assert (clause.passed, clause.instances, clause.witness) == (True, 77, None)

    _criterion(7, "registry identities", 0.1, body)


def test_criterion_8_mod_lb_refinement():
    def body():
        pres = chow_gl_presentation(gl_params(_params(11, 5), 2), b=1)
        assert pres.named_degrees == ((1, "c_1"), (2, "c_2"))
        assert pres.modulus == 5
        assert render_text(pres).splitlines()[0] == "Z/5[c_1, c_2]"
        try:
            chow_gl_presentation(gl_params(_params(11, 5), 2), b=2)
        except PreconditionError as exc:
            assert "roots of unity" in str(exc)
        else:
            raise AssertionError("b = 2 with 25 not dividing 10 must be rejected")

    _criterion(8, "mod l^b refinement for GL_2 over F_11", None, body)
