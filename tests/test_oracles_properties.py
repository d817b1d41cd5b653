"""Property tests of the packed monomial enumerator behind both oracles,
driven by hypothesis against a brute-force enumeration of exponent tuples.

hypothesis is a test-only dependency (the `test` extra); the module is
skipped where it is missing.
"""

from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.oracles import _exponents, _packed_monomials  # noqa: E402


def _tuples_by_degree(weights, cutoff):
    """Every exponent tuple of weighted degree <= cutoff, by degree."""
    out = [set() for _ in range(cutoff + 1)]
    for e in product(*(range(cutoff // w + 1) for w in weights)):
        d = sum(x * w for x, w in zip(e, weights))
        if d <= cutoff:
            out[d].add(e)
    return out


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    cutoff=st.integers(0, 14),
    data=st.data(),
)
# a weight of 1 puts an exponent equal to the cutoff in the top degree,
# where a base of cutoff (not cutoff + 1) would carry
@example(weights=(1,), cutoff=14, data=None)
@example(weights=(1, 1), cutoff=1, data=None)
@example(weights=(3, 1, 2, 1), cutoff=9, data=None)
def test_packed_monomials_match_exponent_tuples(weights, cutoff, data):
    n, base = len(weights), cutoff + 1
    packed = _packed_monomials(weights, cutoff)
    expected = _tuples_by_degree(weights, cutoff)
    unpack = {k: _exponents(k, n, base) for keys in packed for k in keys}

    assert len(packed) == cutoff + 1
    for d, keys in enumerate(packed):
        assert len(set(keys)) == len(keys)
        assert {unpack[k] for k in keys} == expected[d]
        assert keys == sorted(keys)
    # key order is lexicographic order of exponents, across degrees too
    keys = sorted(unpack)
    assert [unpack[k] for k in keys] == sorted(unpack.values())

    # the sum of two keys is the product, for every product of degree <= cutoff:
    # always the lexicographically largest pair, which puts the most on one
    # variable, and some drawn pairs besides
    pairs = [(packed[i][-1], packed[cutoff - i][-1])
             for i in range(cutoff + 1) if packed[i] and packed[cutoff - i]]
    if data is not None:
        for _ in range(20):
            i = data.draw(st.integers(0, cutoff))
            j = data.draw(st.integers(0, cutoff - i))
            if packed[i] and packed[j]:
                pairs.append((data.draw(st.sampled_from(packed[i])),
                              data.draw(st.sampled_from(packed[j]))))
    for a, b in pairs:
        assert _exponents(a + b, n, base) == tuple(
            x + y for x, y in zip(unpack[a], unpack[b])
        )
