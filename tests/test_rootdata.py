import sys
from math import factorial, prod

import pytest

from chevring import rootdata, verify
from chevring.arith import galois_params, gl_params, multiplicative_order, prime_power_base
from chevring.errors import InputError, ResourceLimitError
from chevring.rootdata import (
    _RECORDS, Registry, _Record, default_registry, group_order, lookup,
)

def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power_base(q)
        except InputError:
            continue
        out.append(q)
    return out


def test_lookup_gl_and_sp_degrees():
    for n in range(1, 9):
        gl = lookup("GL", n)
        assert gl.degrees == tuple(range(1, n + 1))
        sp = lookup("Sp", n)
        assert sp.degrees == tuple(2 * i for i in range(1, n + 1))
        assert [2 * d for d in sp.degrees] == [4 * i for i in range(1, n + 1)]


def test_lookup_fixed_ranks_and_weyl_orders():
    assert prod(lookup("GL", 3).degrees) == 6
    assert lookup("SL", 2).degrees == (2, 3)
    assert lookup("G2", 2).degrees == (2, 6)
    assert prod(lookup("F4", 4).degrees) == 1152
    assert lookup("E8", 8).degrees == (2, 8, 12, 14, 18, 20, 24, 30)
    so8 = lookup("SO_even", 4)
    assert so8.degrees == (2, 4, 4, 6)
    assert prod(so8.degrees) == 192


def test_lookup_errors():
    with pytest.raises(InputError):
        lookup("SU", 3)
    with pytest.raises(InputError):
        lookup("E8", 7)
    with pytest.raises(InputError):
        lookup("SO_even", 1)
    with pytest.raises(InputError):
        lookup("GL", 0)


def test_group_order_examples():
    assert group_order(lookup("GL", 2), 3) == 48
    for q in (2, 3, 4, 5, 9):
        assert group_order(lookup("GL", 1), q) == q - 1
    assert group_order(lookup("Sp", 1), 3) == 24
    with pytest.raises(InputError):
        group_order(lookup("GL", 2), 6)


def test_group_order_matches_gl_product_formula():
    for n in range(1, 6):
        datum = lookup("GL", n)
        for q in (2, 3, 4, 5, 8, 9):
            expected = q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(1, n + 1))
            assert group_order(datum, q) == expected


def test_torsion_primes():
    for family, rank in (("Sp", 3), ("GL", 5), ("SL", 4)):
        assert lookup(family, rank).torsion_primes == frozenset()
    assert lookup("Spin", 3).torsion_primes == {2}
    assert lookup("G2", 2).torsion_primes == {2}
    assert lookup("F4", 4).torsion_primes == {2, 3}
    assert lookup("E8", 8).torsion_primes == {2, 3, 5}


# the 77 (family, rank) instances of the registry clause of `verify`
CLAUSE_CASES = [(f, r) for f in ("GL", "SL", "Sp", "SO_odd") for r in range(1, 13)]
CLAUSE_CASES += [("SO_even", r) for r in range(2, 14)] + [("Spin", r) for r in range(1, 13)]
CLAUSE_CASES += [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]


def test_registry_identities_hold_for_all_shipped_records():
    records = {record.family: record for record in _RECORDS}
    for family, rank in CLAUSE_CASES:
        datum, record = lookup(family, rank), records[family]
        assert prod(datum.degrees) == record.weyl(rank), (family, rank)
        assert sum(d - 1 for d in datum.degrees) == record.roots(rank), (family, rank)


def test_the_verify_clause_looks_up_each_record_over_its_ranks(monkeypatch):
    looked_up = []

    def spy(family, rank):
        looked_up.append((family, rank))
        return lookup(family, rank)

    monkeypatch.setattr(rootdata, "lookup", spy)
    sweep = verify.Sweep(primes=(3,), max_weight_len=0, max_m=0, sp_max_rank=0)
    clause = next(c for c in verify.run(sweep) if c.name == "registry-invariants")
    assert (clause.passed, clause.instances) == (True, 77)
    assert looked_up == CLAUSE_CASES


def test_building_the_registry_expands_no_record(monkeypatch):
    def expand(self, rank):
        raise AssertionError(f"{self.family} rank {rank} expanded")

    monkeypatch.setattr(_Record, "expand", expand)
    default_registry.cache_clear()
    try:
        assert default_registry().families() == sorted(record.family for record in _RECORDS)
    finally:
        default_registry.cache_clear()


def test_order_divisibility_iff_degree_divisible():
    for family in ("GL", "SL", "Sp"):
        for rank in range(1, 7):
            datum = lookup(family, rank)
            for l in (2, 3, 5, 7, 11, 13):
                for q in _prime_powers(81):
                    if q % l == 0:
                        continue
                    divides_some = any(d % multiplicative_order(q, l) == 0 for d in datum.degrees)
                    assert (group_order(datum, q) % l == 0) == divides_some, (family, rank, q, l)


def test_gl_trivial_case_iff_order_prime_to_l():
    for l in (3, 5, 7, 11, 13):
        for q in _prime_powers(81):
            if q % l == 0:
                continue
            p = prime_power_base(q)[0]
            params = galois_params(p, q, l)
            for n in range(1, 9):
                glp = gl_params(params, n)
                order = group_order(lookup("GL", n), q)
                assert (glp.m == 0) == (order % l != 0), (n, q, l)


def _gl(weyl=factorial, roots=lambda n: n * (n - 1) // 2, degrees=lambda n: range(1, n + 1),
        torsion=()):
    """The GL record, or a copy of it with one column changed."""
    return _Record("GL", 1, False, degrees, weyl, roots, frozenset(torsion))


def test_lookup_rejects_violated_identities():
    reg = Registry([_gl(weyl=lambda n: 2 * factorial(n))])
    with pytest.raises(InputError, match="^GL rank 1: prod\\(degrees\\) = 1 but"):
        reg.lookup("GL", 1)
    reg = Registry([_gl(roots=lambda n: n)])
    with pytest.raises(InputError, match="^GL rank 1: sum\\(d_i - 1\\) = 0 but"):
        reg.lookup("GL", 1)
    assert prod(Registry([_gl()]).lookup("GL", 4).degrees) == 24


def test_registry_rejects_torsion_entries_that_are_not_prime():
    with pytest.raises(InputError, match="^GL torsion entry = 6 is not prime$"):
        Registry([_gl(torsion=(6,))])
    # 1287836182261 * 2575672364521 passes every Miller-Rabin witness
    with pytest.raises(InputError, match="^cannot tell whether GL torsion entry = 3317"):
        Registry([_gl(torsion=(3317044064679887385961981,))])
    assert Registry([_gl(torsion=(2, 3))]).lookup("GL", 1).torsion_primes == {2, 3}


def test_lookup_rejects_a_wrong_degree_count():
    reg = Registry([_gl(degrees=lambda n: range(1, n))])
    with pytest.raises(InputError, match="^GL rank 1: 0 fundamental degrees, expected 1$"):
        reg.lookup("GL", 1)


def test_lookup_refuses_a_rank_past_the_address_space_before_listing_degrees():
    # range() holds at most sys.maxsize items; the degrees are never asked for
    def degrees(n):
        raise AssertionError("the degrees were built")

    reg = Registry([_gl(degrees=degrees)])
    for rank in (sys.maxsize + 1, 2**200):
        with pytest.raises(ResourceLimitError, match=f"^GL rank {rank}: more fundamental"):
            reg.lookup("GL", rank)
    # a family of one rank refuses every other rank as bad input first
    with pytest.raises(InputError, match="^family G2 needs rank = 2"):
        lookup("G2", sys.maxsize + 1)


def test_lookup_rejects_a_degree_of_zero():
    reg = Registry([_gl(degrees=lambda n: range(n))])
    with pytest.raises(InputError, match="^GL rank 1: nonpositive fundamental degree$"):
        reg.lookup("GL", 1)


def test_registry_rejects_a_repeated_family():
    with pytest.raises(InputError, match="^duplicate family GL in registry$"):
        Registry([_gl(), _gl(torsion=(2,))])
