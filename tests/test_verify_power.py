"""Named engine mutants that `verify` must catch.

Each case rebinds one function of the engines the CLI prints with a wrong
version, and `verify.run` on a small sweep must then report the clause that
catches it as failed.  `verify` looks the engines up on their modules at
each call, so rebinding the module attribute is enough.  One more test counts
the action tables of the invariant oracle that a default run builds.
"""

import pytest

from chevring import arith, cli, oracles, presentations, rootdata, verify
from chevring.errors import InputError

SWEEP = verify.Sweep(
    primes=(3, 5, 7), max_weight_entry=2, max_weight_len=1, max_m=1, cutoff=4, sp_max_rank=1
)


def _failed():
    return {c.name for c in verify.run(SWEEP) if not c.passed}


def test_the_small_sweep_passes_on_the_engines_as_they_are():
    assert _failed() == set()


@pytest.mark.parametrize("family", [record.family for record in rootdata._RECORDS])
def test_a_cobordism_engine_that_keeps_every_degree_of_one_family_fails(family, monkeypatch):
    original = presentations._cobordism_indexed_degrees

    def keep_every_degree(datum, params):
        kept = original(datum, params)  # the torsion refusal still comes first
        return list(enumerate(datum.degrees, start=1)) if datum.family == family else kept

    monkeypatch.setattr(presentations, "_cobordism_indexed_degrees", keep_every_degree)
    assert "cobordism-oracle-vs-presentation" in _failed()


def test_a_chow_engine_that_drops_its_top_generator_fails(monkeypatch):
    original = presentations._chow_gl_degrees

    def drop_top(params, b):
        return original(params, b)[:-1]

    monkeypatch.setattr(presentations, "_chow_gl_degrees", drop_top)
    assert _failed() == {"gl-chow-oracle-vs-presentation", "restricted-chern-class"}


def test_a_comparison_that_reports_the_opposite_fails(monkeypatch):
    flipped = property(lambda self: self.chow_degrees != self.cobordism_degrees)
    monkeypatch.setattr(presentations.ComparisonReport, "equal", flipped)
    assert _failed() == {"gl-chow-oracle-vs-presentation"}


def test_a_topological_series_that_does_not_double_the_degrees_fails(monkeypatch):
    original = presentations.poincare_series

    def undoubled(pres, cutoff, grading=None):
        return original(pres, cutoff, presentations.CHOW)

    monkeypatch.setattr(presentations, "poincare_series", undoubled)
    assert _failed() == {"cobordism-oracle-vs-presentation"}


def test_an_exponent_a_shifted_by_one_fails(monkeypatch):
    original = arith._exponent_of_l
    monkeypatch.setattr(arith, "_exponent_of_l", lambda q, r, l: original(q, r, l) + 1)
    assert _failed() == {"cobordism-oracle-vs-presentation"}


def test_generator_names_shifted_by_one_fail(monkeypatch):
    original = presentations._divisible_degrees

    def shifted(degrees, r):
        return [(i + 1, d) for i, d in original(degrees, r)]

    monkeypatch.setattr(presentations, "_divisible_degrees", shifted)
    assert _failed() == {"cobordism-oracle-vs-presentation"}


def test_a_cobordism_presentation_over_z_mod_l_squared_fails(monkeypatch):
    original = presentations.cobordism_presentation

    def b_2(datum, params):
        pres = original(datum, params)
        return presentations.GradedPresentation(
            pres.theory, pres.family, pres.rank, pres.params, 2, pres.named_degrees
        )

    monkeypatch.setattr(presentations, "cobordism_presentation", b_2)
    assert _failed() == {"cobordism-oracle-vs-presentation"}


@pytest.fixture
def fresh_registry(monkeypatch):
    """The shipped registry is built again from `rootdata._RECORDS` on its
    next load, and once more after the test."""
    rootdata.default_registry.cache_clear()
    yield monkeypatch
    rootdata.default_registry.cache_clear()


@pytest.mark.xfail(
    strict=True,
    reason="a torsion entry only decides which primes the engine refuses, and no "
    "clause checks the refusals against the root system",
)
def test_a_torsion_entry_moved_to_another_prime_fails(fresh_registry):
    def moved(record):
        if record.family != "SO_odd":
            return record
        return rootdata._Record(
            record.family, record.min_rank, record.fixed_rank, record.degrees, record.weyl,
            record.roots, frozenset({3}),
        )

    fresh_registry.setattr(rootdata, "_RECORDS", tuple(map(moved, rootdata._RECORDS)))
    assert rootdata.lookup("SO_odd", 1).torsion_primes == {3}
    assert _failed()


def test_a_record_broken_at_a_rank_only_the_registry_clause_reaches_fails_it(fresh_registry):
    gl = rootdata._RECORDS[0]
    broken = rootdata._Record(
        gl.family, gl.min_rank, gl.fixed_rank, gl.degrees, lambda n: gl.weyl(n) + (n == 9),
        gl.roots, gl.torsion_primes,
    )
    fresh_registry.setattr(rootdata, "_RECORDS", (broken, *rootdata._RECORDS[1:]))
    with pytest.raises(InputError) as refusal:
        rootdata.lookup("GL", 9)
    witness = str(refusal.value)
    assert witness == "GL rank 9: prod(degrees) = 362880 but the record's Weyl order is 362881"
    # every other lookup answers, and so does a request that reads one
    assert rootdata.lookup("GL", 10).degrees == tuple(range(1, 11))
    sp = presentations.cobordism_presentation(rootdata.lookup("Sp", 2), arith.galois_params(3, 3, 5))
    assert sp.named_degrees == ((4, "q_2"),)
    assert [(c.name, c.instances, c.witness) for c in verify.run(SWEEP) if not c.passed] == [
        ("registry-invariants", 77, witness)
    ]
    code, out, _ = cli.run(cli.parse_args(["verify"]))
    assert code == 1
    assert out.splitlines()[0] == f"registry-invariants: FAIL (77 instances) [{witness}]"


def test_a_record_refused_at_a_rank_every_registry_clause_reads_fails_those_three(fresh_registry):
    gl = rootdata._RECORDS[0]
    broken = rootdata._Record(
        gl.family, gl.min_rank, gl.fixed_rank, gl.degrees, lambda n: gl.weyl(n) + (n == 2),
        gl.roots, gl.torsion_primes,
    )
    fresh_registry.setattr(rootdata, "_RECORDS", (broken, *rootdata._RECORDS[1:]))
    witness = "GL rank 2: prod(degrees) = 2 but the record's Weyl order is 3"
    code, out, err = cli.run(cli.parse_args(["verify"]))
    assert (code, err) == (1, "")
    # the refused rank is one instance of the cobordism clause, not one per field
    assert out.splitlines() == [
        f"registry-invariants: FAIL (77 instances) [{witness}]",
        "coinvariants-oracle-vs-closed-form: PASS (646 instances)",
        "invariants-oracle-vs-closed-form: PASS (38 instances)",
        "restricted-chern-class: PASS (38 instances)",
        f"cobordism-oracle-vs-presentation: FAIL (522 instances) [{witness}]",
        f"gl-chow-oracle-vs-presentation: FAIL (152 instances) [{witness}]",
        "SOME CLAUSES FAILED",
    ]


def test_a_chern_witness_names_each_check_that_failed(monkeypatch):
    original = oracles._chern_block

    def plus_eta(q, r, l):
        block = original(q, r, l)
        return [(b + (k == 1)) % l for k, b in enumerate(block)]

    monkeypatch.setattr(oracles, "_chern_block", plus_eta)
    sweep = verify.Sweep(primes=(3,), max_m=1)
    # at r = 1 the added eta_1 is in degree r, at r = 2 off it
    assert list(verify._restricted_chern(sweep, verify._field_table(sweep))) == [
        "m = 1, q = 7, l = 3: symmetric_function_identity: degree 1: got 2*eta_1, "
        "expected eta_1; top_coefficient_sign: coefficient 2, q^{r(r-1)/2} = 1, sign 1",
        "m = 1, q = 2, l = 3: off_degree_components_vanish: degree 1: eta_1",
    ]


def test_a_block_with_one_factor_q_to_the_i_plus_1_fails(monkeypatch):
    original = oracles._chern_block

    def last_factor_q_to_the_r(q, r, l):
        # the factors 1 + q^i eta for i < r - 1, then 1 + q^r eta for i = r - 1
        block = original(q, r - 1, l) + [0]
        power = pow(q, r, l)
        return [(b + power * lower) % l for b, lower in zip(block, [0] + block)]

    monkeypatch.setattr(oracles, "_chern_block", last_factor_q_to_the_r)
    # at r = 1 the factor q^1 is q^0 mod l; every l of SWEEP has an r >= 2
    assert _failed() == {"restricted-chern-class"}


def test_a_chow_engine_that_drops_its_top_generator_past_the_presentation_clauses_fails(
    monkeypatch,
):
    # with sp_max_rank = 0 no presentation clause runs, so only the
    # restricted Chern clause reads the printed Chow degrees of GL_{m r}
    def drop_top(params, b):
        r = params.base.r
        return range(r, params.m * r, r)

    monkeypatch.setattr(presentations, "_chow_gl_degrees", drop_top)
    sweep = verify.Sweep(primes=(3, 5, 7), max_m=2, cutoff=4, sp_max_rank=0)
    assert {c.name for c in verify.run(sweep) if not c.passed} == {"restricted-chern-class"}


def test_the_default_sweep_builds_one_action_table_per_m():
    """`verify` calls the invariant oracle once per field and m, and the
    action of the symmetric group is built once per (m, cutoff): two tables
    at the default max_m of 2, for the clause's 38 instances."""
    oracles._action_table.cache_clear()
    clauses = {c.name: c for c in verify.run(verify.Sweep())}
    invariants = clauses["invariants-oracle-vs-closed-form"]
    assert (invariants.passed, invariants.instances) == (True, 38)
    assert oracles._action_table.cache_info().misses == 2
