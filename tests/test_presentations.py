import pytest

from chevring.arith import galois_params, gl_params, multiplicative_order, prime_power_base
from chevring.errors import InputError, PreconditionError
from chevring.presentations import (
    CHOW,
    TOPOLOGICAL,
    GradedPresentation,
    _divisible_degrees,
    chow_gl_presentation,
    cobordism_presentation,
    compare_chow_cobordism_gl,
    comparison_from_json_dict,
    poincare_series,
    presentation_from_json_dict,
    render_latex,
    render_text,
)
from chevring.rootdata import lookup


def _params(q, l):
    return galois_params(prime_power_base(q)[0], q, l)


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power_base(q)
        except InputError:
            continue
        out.append(q)
    return out


# -- cobordism ---------------------------------------------------------------


def test_sp_small_fields_drop_odd_generators():
    for n in range(1, 7):
        datum = lookup("Sp", n)
        for q in (3, 27):  # order of q mod 5 is 4
            pres = cobordism_presentation(datum, _params(q, 5))
            assert pres.named_degrees == tuple((2 * i, f"q_{i}") for i in range(2, n + 1, 2))


def test_sp_large_fields_keep_every_generator():
    for n in range(1, 7):
        datum = lookup("Sp", n)
        for q in (81, 9):  # r = 1 and r = 2; every degree 2i is divisible by r
            pres = cobordism_presentation(datum, _params(q, 5))
            assert pres.named_degrees == tuple((2 * i, f"q_{i}") for i in range(1, n + 1))


def test_gl3_cobordism_is_trivial_for_q3_l5():
    pres = cobordism_presentation(lookup("GL", 3), _params(3, 5))
    assert pres.named_degrees == ()
    assert render_text(pres).splitlines()[0] == "F_5"


def test_cobordism_keeps_all_generators_when_r_is_1():
    for family, rank in [("GL", 5), ("Sp", 4), ("SL", 3), ("G2", 2)]:
        datum = lookup(family, rank)
        pres = cobordism_presentation(datum, _params(4, 3))  # 3 | 4 - 1, r = 1
        assert pres.algebraic_degrees() == datum.degrees


def test_cobordism_filter_is_r_divides_algebraic_degree():
    # r | d is the same filter as 2r | 2d; check both forms agree
    for q, l in [(3, 5), (9, 5), (2, 7), (4, 7)]:
        params = _params(q, l)
        for family, rank in [("Sp", 5), ("GL", 7), ("SL", 4)]:
            datum = lookup(family, rank)
            pres = cobordism_presentation(datum, params)
            expected = [d for d in datum.degrees if (2 * d) % (2 * params.r) == 0]
            assert list(pres.algebraic_degrees()) == expected


@pytest.mark.parametrize("start, stop", [(1, 1), (1, 13), (2, 17), (5, 6), (7, 30)])
def test_the_rule_reads_a_range_as_it_reads_the_tuple_of_its_entries(start, stop):
    for r in range(1, 9):
        kept = _divisible_degrees(range(start, stop), r)
        assert kept == _divisible_degrees(tuple(range(start, stop)), r), r
        assert kept == [(i, d) for i, d in enumerate(range(start, stop), 1) if d % r == 0]


def test_cobordism_rejects_torsion_primes():
    params = _params(3, 2)  # l = 2
    with pytest.raises(PreconditionError, match="2"):
        cobordism_presentation(lookup("Spin", 3), params)
    with pytest.raises(PreconditionError):
        cobordism_presentation(lookup("G2", 2), params)
    # but l = 2 is fine for torsion-free types
    pres = cobordism_presentation(lookup("Sp", 2), params)
    assert len(pres.named_degrees) == 2


def test_enlarging_the_field_never_shrinks_the_generator_set():
    for l in (2, 3, 5, 7, 11, 13):
        for q in _prime_powers(81):
            if q % l == 0:
                continue
            p = prime_power_base(q)[0]
            datum = lookup("Sp", 5)
            base = set(cobordism_presentation(datum, galois_params(p, q, l)).named_degrees)
            for s in range(2, 5):
                bigger = cobordism_presentation(datum, galois_params(p, q**s, l))
                assert base <= set(bigger.named_degrees), (q, s, l)


# -- chow --------------------------------------------------------------------


def test_chow_example_presentations():
    pres = chow_gl_presentation(gl_params(_params(3, 5), 4))
    assert pres.named_degrees == ((4, "c_4"),)
    assert render_text(pres).splitlines()[0] == "Z/5[c_4]"

    pres = chow_gl_presentation(gl_params(_params(3, 5), 3))
    assert pres.named_degrees == ()
    assert render_text(pres) == "Z/5\n  (no generators; m = 0)"

    pres = chow_gl_presentation(gl_params(_params(11, 5), 2))
    assert pres.named_degrees == ((1, "c_1"), (2, "c_2"))


def test_chow_generator_set_is_c_ir():
    for l in (3, 5, 7):
        for q in (2, 3, 4, 8, 9, 16):
            if q % l == 0:
                continue
            params = _params(q, l)
            for n in range(1, 9):
                glp = gl_params(params, n)
                pres = chow_gl_presentation(glp)
                assert pres.named_degrees == tuple(
                    (i * params.r, f"c_{i * params.r}") for i in range(1, glp.m + 1)
                )


def test_chow_mod_lb_with_deeper_roots_of_unity():
    # 19 - 1 = 2 * 3^2, so F_19 contains the 9th roots of unity
    params = _params(19, 3)
    assert (params.r, params.a) == (1, 2)
    pres = chow_gl_presentation(gl_params(params, 2), b=2)
    assert pres.modulus == 9
    assert pres.named_degrees == ((1, "c_1"), (2, "c_2"))
    assert render_text(pres).splitlines()[0] == "Z/9[c_1, c_2]"


def test_chow_mod_lb_hypothesis_failure():
    with pytest.raises(PreconditionError, match="roots of unity"):
        chow_gl_presentation(gl_params(_params(11, 5), 2), b=2)
    for q in _prime_powers(200):
        for l in (3, 5, 7, 11, 13):
            if q % l == 0:
                continue
            glp = gl_params(_params(q, l), 2)
            for b in range(2, 6):
                if (q - 1) % l**b == 0:
                    assert chow_gl_presentation(glp, b).modulus == l**b
                else:
                    with pytest.raises(PreconditionError, match="roots of unity"):
                        chow_gl_presentation(glp, b)


def test_chow_refuses_a_huge_b_without_forming_l_to_the_b():
    # 3^(10^8) has 48 million digits: the refusal must come from r and a
    msg = (
        r"^l\^b = 3\^100000000 does not divide q - 1 = 3: "
        r"the field must contain the 3\^100000000-th roots of unity$"
    )
    with pytest.raises(PreconditionError, match=msg):
        chow_gl_presentation(gl_params(_params(4, 3), 2), b=10**8)


def test_chow_rejects_l_equal_2_and_bad_b():
    with pytest.raises(PreconditionError, match="odd"):
        chow_gl_presentation(gl_params(_params(3, 2), 2))
    with pytest.raises(InputError):
        chow_gl_presentation(gl_params(_params(3, 5), 2), b=0)


# -- series ------------------------------------------------------------------


def test_poincare_series_examples():
    pres = chow_gl_presentation(gl_params(_params(3, 5), 4))  # Z/5[c_4]
    assert poincare_series(pres, 8, CHOW).coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    empty = chow_gl_presentation(gl_params(_params(3, 5), 3))
    assert poincare_series(empty, 3).coefficients == (1, 0, 0, 0)

    sp1 = cobordism_presentation(lookup("Sp", 1), _params(81, 5))
    assert poincare_series(sp1, 8, TOPOLOGICAL).coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    with pytest.raises(InputError):
        poincare_series(sp1, 8, "motivic")


def test_topological_series_is_chow_series_stretched():
    pres = cobordism_presentation(lookup("Sp", 3), _params(3, 5))
    chow = poincare_series(pres, 6, CHOW)
    topo = poincare_series(pres, 12, TOPOLOGICAL)
    assert all(topo[2 * d] == chow[d] for d in range(7))
    assert all(topo[d] == 0 for d in range(13) if d % 2)


# -- comparison --------------------------------------------------------------


def test_compare_examples():
    assert compare_chow_cobordism_gl(gl_params(_params(3, 5), 4)).equal
    assert compare_chow_cobordism_gl(gl_params(_params(3, 5), 3)).equal
    report = compare_chow_cobordism_gl(gl_params(_params(4, 3), 5))
    assert report.equal and report.params.base.r == 1
    assert report.chow_degrees == (1, 2, 3, 4, 5)


def test_compare_sweep():
    for n in range(1, 9):
        for l in (3, 5, 7, 11, 13):
            for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81):
                if q % l == 0:
                    continue
                report = compare_chow_cobordism_gl(gl_params(_params(q, l), n))
                assert report.equal, (n, q, l)


# -- rendering and serialization ----------------------------------------------


def test_render_latex():
    pres = cobordism_presentation(lookup("Sp", 4), _params(3, 5))
    assert render_latex(pres) == "\\mathbb{F}_5[q_2, q_4]"
    empty = chow_gl_presentation(gl_params(_params(3, 5), 3))
    assert render_latex(empty) == "\\mathbb{Z}/5"
    wide = cobordism_presentation(lookup("Sp", 5), _params(81, 5))
    assert render_latex(wide) == "\\mathbb{F}_5[q_1, q_2, q_3, q_4, q_5]"
    deep = chow_gl_presentation(gl_params(_params(19, 3), 2), b=2)
    assert render_latex(deep) == "\\mathbb{Z}/9[c_1, c_2]"
    ten = chow_gl_presentation(gl_params(_params(4, 3), 10), b=1)
    assert "c_{10}" in render_latex(ten)
    plain = GradedPresentation("cobordism", "Sp", 1, _params(3, 5), 1, ((2, "x"),))
    assert render_latex(plain) == "\\mathbb{F}_5[x]"


def test_presentation_json_round_trip():
    for pres in [
        cobordism_presentation(lookup("Sp", 4), _params(3, 5)),
        chow_gl_presentation(gl_params(_params(3, 5), 4)),
        chow_gl_presentation(gl_params(_params(19, 3), 2), b=2),
        cobordism_presentation(lookup("GL", 3), _params(3, 5)),
        chow_gl_presentation(gl_params(_params(109, 3), 3), b=3),  # 3^3 | 108
        cobordism_presentation(lookup("Sp", 40), _params(3, 1000003)),
    ]:
        assert presentation_from_json_dict(pres.to_json_dict()) == pres


def test_comparison_json_round_trip():
    for n, q, l in [(4, 3, 5), (9, 7, 19)]:
        report = compare_chow_cobordism_gl(gl_params(_params(q, l), n))
        assert comparison_from_json_dict(report.to_json_dict()) == report


_SP4 = cobordism_presentation(lookup("Sp", 4), _params(3, 5)).to_json_dict()  # r = 4
_GL4 = chow_gl_presentation(gl_params(_params(3, 5), 4)).to_json_dict()  # m = 1
_COMPARE4 = compare_chow_cobordism_gl(gl_params(_params(3, 5), 4)).to_json_dict()


@pytest.mark.parametrize(
    "reader, document, message",
    [
        (presentation_from_json_dict, {**_SP4, "r": 2},
         "stored r = 2, but the document's inputs give 4"),
        (presentation_from_json_dict, {**_GL4, "m": 2},
         "stored m = 2, but the document's inputs give 1"),
        (presentation_from_json_dict, {**_SP4, "m": 5},
         "stored m = 5, but the document's inputs give None"),
        (presentation_from_json_dict, {**_SP4, "grading": "chow"},
         "stored grading = 'chow', but the document's inputs give 'topological'"),
        (presentation_from_json_dict, {**_SP4, "field": {"p": 2, "q": 3}},
         "q = 3 is not a power of p = 2"),
        (presentation_from_json_dict, {**_SP4, "b": 7},
         "stored b = 7, but the document's inputs give 1"),
        (presentation_from_json_dict,
         {**_SP4, "generators": [{"name": "q_1", "algebraic_degree": 1, "topological_degree": 2}]},
         "stored generators = [{'name': 'q_1', 'algebraic_degree': 1, 'topological_degree': 2}], "
         "but the document's inputs give [{'name': 'q_2', 'algebraic_degree': 4, "
         "'topological_degree': 8}, {'name': 'q_4', 'algebraic_degree': 8, "
         "'topological_degree': 16}]"),
        (presentation_from_json_dict, {**_SP4, "theory": "foo"},
         "no 'foo' presentation for family 'Sp'"),
        (presentation_from_json_dict, {**_SP4, "theory": "chow"},
         "no 'chow' presentation for family 'Sp'"),
        (presentation_from_json_dict, {**_SP4, "group": {"family": "Sp", "rank": -4}},
         "family Sp needs rank >= 1, got -4"),
        (comparison_from_json_dict, {**_COMPARE4, "r": 2},
         "stored r = 2, but the document's inputs give 4"),
        (comparison_from_json_dict, {**_COMPARE4, "m": 2},
         "stored m = 2, but the document's inputs give 1"),
        (comparison_from_json_dict, {**_COMPARE4, "equal": False},
         "stored equal = False, but the document's inputs give True"),
        (comparison_from_json_dict, {**_COMPARE4, "chow_degrees": [1], "cobordism_degrees": [2]},
         "stored chow_degrees = [1], but the document's inputs give [4]"),
        (comparison_from_json_dict, {**_COMPARE4, "group": {"family": "Sp", "rank": 4}},
         "stored group = {'family': 'Sp', 'rank': 4}, "
         "but the document's inputs give {'family': 'GL', 'rank': 4}"),
    ],
)
def test_readers_refuse_a_document_that_contradicts_itself(reader, document, message):
    with pytest.raises(InputError) as excinfo:
        reader(document)
    assert str(excinfo.value) == message


def test_readers_raise_the_hypothesis_a_document_breaks():
    with pytest.raises(PreconditionError, match="l must be odd"):
        presentation_from_json_dict({**_GL4, "prime": 2})


def test_generators_sorted_by_degree():
    pres = cobordism_presentation(lookup("Sp", 6), _params(3, 5))
    degs = pres.algebraic_degrees()
    assert degs == tuple(sorted(degs))


def test_equal_degrees_order_by_name_as_strings():
    # SO_even rank 18 has two generators of degree 18, s_9 and s_10, and
    # "s_10" < "s_9"; every renderer lists them in that order
    pres = cobordism_presentation(lookup("SO_even", 18), _params(4, 3))  # r = 1
    names = [f"s_{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11, 12, 13, 14, 15, 16, 17, 18)]
    assert pres.named_degrees[8:10] == ((18, "s_10"), (18, "s_9"))
    assert render_text(pres).splitlines()[0] == f"F_3[{', '.join(names)}]"
    assert render_text(pres).splitlines()[9:11] == [
        "  s_10: algebraic degree 18, topological degree 36",
        "  s_9: algebraic degree 18, topological degree 36",
    ]
    assert "s_8, s_{10}, s_9, s_{11}" in render_latex(pres)
    assert [g["name"] for g in pres.to_json_dict()["generators"]] == names


def test_a_presentation_holds_its_named_degrees_sorted():
    params = _params(3, 5)
    pres = GradedPresentation("cobordism", "Sp", 4, params, 1, ((8, "q_4"), (4, "q_2")))
    assert pres.named_degrees == ((4, "q_2"), (8, "q_4"))
    assert pres.algebraic_degrees() == (4, 8)
    assert pres == cobordism_presentation(lookup("Sp", 4), params)


def test_a_presentation_refuses_a_degree_below_1():
    params = _params(3, 5)
    for degree in (0, -2):
        with pytest.raises(InputError, match=f"^generator degree must be positive, got {degree}$"):
            GradedPresentation("chow", "GL", 2, params, 1, ((2, "c_2"), (degree, "c_0")))
