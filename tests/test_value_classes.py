"""The immutable value classes: construction, immutability, equality, hash
and repr, as a frozen dataclass gave them."""

import copy

import pytest

from chevring.arith import GaloisParams, GLParams, galois_params
from chevring.oracles import Clause, GradedActionProblem, VerificationReport
from chevring.poly import TruncatedSeries
from chevring.presentations import ComparisonReport, GradedPresentation
from chevring.rootdata import RootDatum, _Record, lookup
from chevring.verify import Sweep

F = galois_params(3, 9, 5)

# (class, its parameter names, positional arguments, other arguments, repr)
CASES = [
    (GaloisParams, ("p", "q", "l"), (2, 4, 1439), (2, 4, 7),
     "GaloisParams(p=2, q=4, l=1439, r=719, a=1)"),
    (GLParams, ("base", "n"), (F, 7), (F, 8),
     "GLParams(base=GaloisParams(p=3, q=9, l=5, r=2, a=1), n=7, m=3, e=1)"),
    (RootDatum, ("family", "rank", "degrees", "torsion_primes"),
     ("G2", 2, (2, 6), frozenset({2})), ("G2", 2, (2, 6), frozenset()),
     "RootDatum(family='G2', rank=2, degrees=(2, 6), torsion_primes=frozenset({2}))"),
    (_Record, ("family", "min_rank", "fixed_rank", "degrees", "weyl", "roots", "torsion_primes"),
     ("X", 1, True, tuple, abs, abs, frozenset({3})),
     ("X", 1, False, tuple, abs, abs, frozenset({3})),
     "_Record(family='X', min_rank=1, fixed_rank=True, degrees=<class 'tuple'>, "
     "weyl=<built-in function abs>, roots=<built-in function abs>, torsion_primes=frozenset({3}))"),
    (GradedPresentation, ("theory", "family", "rank", "params", "b", "named_degrees"),
     ("cobordism", "Sp", 2, F, 1, ((4, "q_4"), (2, "q_2"))),
     ("cobordism", "Sp", 2, F, 1, ((2, "q_2"),)),
     "GradedPresentation(theory='cobordism', family='Sp', rank=2, "
     "params=GaloisParams(p=3, q=9, l=5, r=2, a=1), b=1, named_degrees=((2, 'q_2'), (4, 'q_4')))"),
    (ComparisonReport, ("params", "chow_degrees", "cobordism_degrees"),
     (GLParams(F, 4), (2, 4), (2, 4)), (GLParams(F, 4), (2, 4), (2,)),
     "ComparisonReport(params=GLParams(base=GaloisParams(p=3, q=9, l=5, r=2, a=1), n=4, m=2, e=0), "
     "chow_degrees=(2, 4), cobordism_degrees=(2, 4))"),
    (GradedActionProblem, ("weights", "l", "q", "cutoff", "permutation", "monomial_limit"),
     ((1, 2), 5, 3, 4, "full_symmetric", 100), ((1, 2), 5, 3, 4, "none", 100),
     "GradedActionProblem(weights=(1, 2), l=5, q=3, cutoff=4, permutation='full_symmetric', "
     "monomial_limit=100)"),
    (Clause, ("name", "passed", "witness", "instances"), ("x", False, "w", 3), ("x", False, "w", 4),
     "Clause(name='x', passed=False, witness='w', instances=3)"),
    (VerificationReport, ("parameters", "clauses"),
     ((("q", 2), ("l", 5)), (Clause("x", True),)), ((("q", 2), ("l", 5)), ()),
     "VerificationReport(parameters=(('q', 2), ('l', 5)), "
     "clauses=(Clause(name='x', passed=True, witness=None, instances=1),))"),
    (TruncatedSeries, ("cutoff", "coefficients"), (3, (1, 0, 1, 0)), (3, (1, 0, 1, 1)),
     "TruncatedSeries(cutoff=3, coefficients=(1, 0, 1, 0))"),
    (Sweep,
     ("primes", "max_weight_entry", "max_weight_len", "max_m", "cutoff", "sp_max_rank",
      "monomial_limit"),
     ((3, 5), 1, 2, 3, 4, 5, 6), ((3, 5), 1, 2, 3, 4, 5, 7),
     "Sweep(primes=(3, 5), max_weight_entry=1, max_weight_len=2, max_m=3, cutoff=4, "
     "sp_max_rank=5, monomial_limit=6)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, args, other, text):
    assert cls(*args) == cls(**dict(zip(names, args)))
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, args, other, text):
    value = cls(*args)
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, names, args, other, text):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(getattr(first, n) for n in cls._fields))
    assert len({first, second}) == 1
    assert cls(*other) != first and not cls(*other) == first
    for name in cls._fields:  # every field takes part
        changed = copy.copy(first)
        object.__setattr__(changed, name, object())
        assert changed != first, name


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_a_value_never_equals_one_of_another_class(cls, names, args, other, text):
    value = cls(*args)
    twin = type(cls.__name__, (cls,), {})(*args)  # same name, fields and values
    assert value != twin and twin != value
    assert value.__eq__(twin) is NotImplemented
    fields = tuple(getattr(value, n) for n in cls._fields)
    assert value != fields and fields != value
    for other_cls, *_ in CASES:
        if other_cls is not cls:
            assert value.__eq__(object.__new__(other_cls)) is NotImplemented


def test_the_fields_are_listed_in_construction_order():
    # every parameter is a field, in the same order; the derived ones follow
    for cls, names, *_ in CASES:
        assert cls._fields[: len(names)] == names, cls.__name__
    assert GaloisParams._fields[3:] == ("r", "a")
    assert GLParams._fields[2:] == ("m", "e")


def test_derived_fields_cannot_be_passed_in():
    with pytest.raises(TypeError):
        GaloisParams(2, 4, 1439, r=719)
    with pytest.raises(TypeError):
        GaloisParams(2, 4, 1439, a=1)
    with pytest.raises(TypeError):
        GLParams(F, 7, m=3)
    with pytest.raises(TypeError):
        GLParams(F, 7, e=1)


def test_defaults_and_reprs_of_values_the_package_builds():
    assert repr(lookup("G2", 2)) == (
        "RootDatum(family='G2', rank=2, degrees=(2, 6), torsion_primes=frozenset({2}))"
    )
    assert repr(Clause("x", True)) == "Clause(name='x', passed=True, witness=None, instances=1)"
    assert repr(GradedActionProblem((1,), 3, 2, 0)) == (
        "GradedActionProblem(weights=(1,), l=3, q=2, cutoff=0, permutation='none', "
        "monomial_limit=20000)"
    )
    assert repr(Sweep()) == (
        "Sweep(primes=(3, 5, 7, 11, 13), max_weight_entry=4, max_weight_len=3, max_m=2, "
        "cutoff=8, sp_max_rank=4, monomial_limit=20000)"
    )


def test_a_cached_h_is_kept_beside_the_fields():
    params = galois_params(2, 4, 1439)
    assert params.h is params.h
    assert vars(params)["h"] == params.h
    assert repr(params) == "GaloisParams(p=2, q=4, l=1439, r=719, a=1)"
    assert params == galois_params(2, 4, 1439)  # the other has no h yet
    with pytest.raises(AttributeError, match="^cannot assign to field 'h'$"):
        params.h = 1
