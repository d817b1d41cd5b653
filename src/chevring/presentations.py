"""Presentation engines.

Given the Galois arithmetic of (q, l) and a root datum, these produce the
polynomial-ring presentations of the mod-l cobordism ring of the classifying
space of the finite group, and of the mod-l^b Chow ring in the GL case,
together with Poincare series and the structural Chow/cobordism comparison
for GL.

Internally every degree is algebraic (Chern convention); the topological
degree of a generator is exactly twice its algebraic degree and is produced
only at the rendering/serialization layer.
"""

from __future__ import annotations

from collections.abc import Sequence

from .arith import GLParams, GaloisParams, galois_params, gl_params
from .errors import SCHEMA_VERSION, InputError, PreconditionError, _Frozen, _integer
from .poly import TruncatedSeries, hilbert_series_of_free_polynomial_ring
from .rootdata import RootDatum, lookup

__all__ = [
    "ComparisonReport",
    "GradedPresentation",
    "chow_gl_presentation",
    "cobordism_presentation",
    "compare_chow_cobordism_gl",
    "comparison_from_json_dict",
    "poincare_series",
    "presentation_from_json_dict",
    "render_latex",
    "render_text",
]

CHOW = "chow"
TOPOLOGICAL = "topological"


class GradedPresentation(_Frozen):
    """A finitely generated polynomial-ring presentation over Z/l^b of the
    theory's ring for the group (family, rank) over the field of params."""

    _fields = ("theory", "family", "rank", "params", "b", "named_degrees")

    def __init__(
        self,
        theory: str,  # "cobordism" or "chow"
        family: str,
        rank: int,
        params: GaloisParams,
        b: int,
        # (algebraic degree, name) of each generator, held sorted: equal
        # degrees order by name as strings
        named_degrees: tuple[tuple[int, str], ...],
    ):
        pairs = tuple(sorted(named_degrees))
        if pairs and pairs[0][0] < 1:
            raise InputError(f"generator degree must be positive, got {pairs[0][0]}")
        self._set(theory=theory, family=family, rank=rank, params=params, b=b, named_degrees=pairs)

    @property
    def grading(self) -> str:
        """The default grading for display."""
        return TOPOLOGICAL if self.theory == "cobordism" else CHOW

    @property
    def m(self) -> int | None:
        """floor(n/r), tracked for the Chow theory (GL) only."""
        return None if self.theory == "cobordism" else self.rank // self.params.r

    @property
    def modulus(self) -> int:
        return self.params.l**self.b

    def algebraic_degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.named_degrees)

    def coefficient_ring_text(self) -> str:
        if self.theory == "cobordism":
            return f"F_{self.params.l}"
        return f"Z/{self.modulus}"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "presentation",
            "theory": self.theory,
            "group": {"family": self.family, "rank": self.rank},
            "field": {"p": self.params.p, "q": self.params.q},
            "prime": self.params.l,
            "b": self.b,
            "r": self.params.r,
            "m": self.m,
            "grading": self.grading,
            "generators": [
                {"name": name, "algebraic_degree": d, "topological_degree": 2 * d}
                for d, name in self.named_degrees
            ],
        }


def _refuse_contradictions(document: dict, rebuilt: dict) -> None:
    """Refuse a document that differs from the one its inputs give, naming
    the first differing key."""
    for key, value in rebuilt.items():
        if document[key] != value:
            raise InputError(
                f"stored {key} = {document[key]!r}, but the document's inputs give {value!r}"
            )


def _field_params(d: dict) -> GaloisParams:
    return galois_params(int(d["field"]["p"]), int(d["field"]["q"]), int(d["prime"]))


def presentation_from_json_dict(d: dict) -> GradedPresentation:
    """Rebuild the presentation from the document's inputs; a hypothesis its
    inputs break raises the engine's PreconditionError."""
    family, rank, params = d["group"]["family"], int(d["group"]["rank"]), _field_params(d)
    if d["theory"] == "cobordism":
        pres = cobordism_presentation(lookup(family, rank), params)
    elif d["theory"] == "chow" and family == "GL":
        pres = chow_gl_presentation(gl_params(params, rank), int(d["b"]))
    else:
        raise InputError(f"no {d['theory']!r} presentation for family {family!r}")
    _refuse_contradictions(d, pres.to_json_dict())
    return pres


def _generator_prefix(family: str) -> str:
    if family == "GL":
        return "c"  # Chern classes
    if family == "Sp":
        return "q"  # symplectic classes
    return "s"


def _divisible_degrees(degrees: Sequence[int], r: int) -> list[tuple[int, int]]:
    """(i, d_i) for each d_i of the degrees with r | d_i, i counted from 1 in
    the given order: the generators the theorem keeps, and the one place its
    rule is written."""
    return [(i, d) for i, d in enumerate(degrees, start=1) if d % r == 0]


def _cobordism_indexed_degrees(datum: RootDatum, params: GaloisParams) -> list[tuple[int, int]]:
    """(i, d_i) for each degree d_i of the datum with r | d_i, in the
    datum's order; refused when l is a torsion prime of the datum."""
    if params.l in datum.torsion_primes:
        raise PreconditionError(
            f"l = {params.l} is a torsion prime of {datum.family} rank {datum.rank}: "
            "the integral cohomology of the complex group must have no l-torsion"
        )
    return _divisible_degrees(datum.degrees, params.r)


def cobordism_presentation(datum: RootDatum, params: GaloisParams) -> GradedPresentation:
    """Mod-l complex cobordism of the classifying space of the group of
    F_q-points: the free polynomial ring on the generators s_i whose
    topological degree 2*d_i is divisible by 2r, i.e. r | d_i."""
    prefix = _generator_prefix(datum.family)
    pairs = tuple((d, f"{prefix}_{i}") for i, d in _cobordism_indexed_degrees(datum, params))
    return GradedPresentation("cobordism", datum.family, datum.rank, params, 1, pairs)


def _chow_gl_degrees(params: GLParams, b: int) -> range:
    """The generator degrees of the mod-l^b Chow ring of BGL(n, F_q), in
    increasing order, after the refusals of l = 2 and of a field without
    the l^b-th roots of unity."""
    base = params.base
    if base.l == 2:
        raise PreconditionError(
            "l must be odd: the mod-l Chow presentation for GL is stated for odd primes only"
        )
    if b >= 2:
        # l^b divides q - 1 iff q = 1 mod l and v_l(q - 1) >= b; l^b is never formed
        if not (base.r == 1 and base.a >= b):
            raise PreconditionError(
                f"l^b = {base.l}^{b} does not divide q - 1 = {base.q - 1}: "
                f"the field must contain the {base.l}^{b}-th roots of unity"
            )
        return range(1, params.n + 1)
    return range(base.r, params.m * base.r + 1, base.r)


def chow_gl_presentation(params: GLParams, b: int = 1) -> GradedPresentation:
    """Mod-l^b Chow ring of BGL(n, F_q).

    For b = 1 (l odd): the polynomial ring Z/l[c_r, c_2r, ..., c_mr].
    For b >= 2 the field must contain the l^b-th roots of unity, and the
    result is Z/l^b[c_1, ..., c_n].
    """
    b = _integer(b, "b", 1)
    pairs = tuple((d, f"c_{d}") for d in _chow_gl_degrees(params, b))
    return GradedPresentation("chow", "GL", params.n, params.base, b, pairs)


def poincare_series(
    pres: GradedPresentation, cutoff: int, grading: str | None = None
) -> TruncatedSeries:
    """Series of the free polynomial ring on the presentation's generators,
    in the requested grading (default: the presentation's own)."""
    grading = grading or pres.grading
    if grading == CHOW:
        degrees = [d for d, _ in pres.named_degrees]
    elif grading == TOPOLOGICAL:
        degrees = [2 * d for d, _ in pres.named_degrees]
    else:
        raise InputError(f"unknown grading {grading!r}")
    return hilbert_series_of_free_polynomial_ring(degrees, cutoff)


class ComparisonReport(_Frozen):
    """Structural comparison of the GL Chow and cobordism presentations."""

    _fields = ("params", "chow_degrees", "cobordism_degrees")

    def __init__(
        self,
        params: GLParams,
        chow_degrees: tuple[int, ...],
        cobordism_degrees: tuple[int, ...],  # algebraic degrees
    ):
        self._set(params=params, chow_degrees=chow_degrees, cobordism_degrees=cobordism_degrees)

    @property
    def equal(self) -> bool:
        return self.chow_degrees == self.cobordism_degrees

    def to_json_dict(self) -> dict:
        base = self.params.base
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "comparison",
            "group": {"family": "GL", "rank": self.params.n},
            "field": {"p": base.p, "q": base.q},
            "prime": base.l,
            "r": base.r,
            "m": self.params.m,
            "equal": self.equal,
            "chow_degrees": list(self.chow_degrees),
            "cobordism_degrees": list(self.cobordism_degrees),
        }


def comparison_from_json_dict(d: dict) -> ComparisonReport:
    report = compare_chow_cobordism_gl(gl_params(_field_params(d), int(d["group"]["rank"])))
    _refuse_contradictions(d, report.to_json_dict())
    return report


def compare_chow_cobordism_gl(params: GLParams) -> ComparisonReport:
    """Check that the GL Chow presentation (b = 1) and the cobordism
    presentation have the same generator degrees.  A mismatch is reported,
    not raised."""
    # the l = 2 refusal of the Chow side comes before the lookup
    chow = tuple(_chow_gl_degrees(params, 1))
    pairs = _cobordism_indexed_degrees(lookup("GL", params.n), params.base)
    # a datum's degrees are sorted, so both tuples are sorted
    return ComparisonReport(params, chow, tuple(d for _, d in pairs))


def render_text(pres: GradedPresentation) -> str:
    """Plain-text rendering, e.g. ``F_5[q_2, q_4]`` plus one line per generator."""
    ring = pres.coefficient_ring_text()
    if pres.named_degrees:
        lines = [f"{ring}[{', '.join(name for _, name in pres.named_degrees)}]"]
        lines += [
            f"  {name}: algebraic degree {d}, topological degree {2 * d}"
            for d, name in pres.named_degrees
        ]
    else:
        lines = [ring]
        if pres.m is not None:
            lines.append(f"  (no generators; m = {pres.m})")
        else:
            lines.append("  (no generators)")
    return "\n".join(lines)


def _latex_name(name: str) -> str:
    stem, sep, index = name.rpartition("_")
    return f"{stem}_{{{index}}}" if sep and len(index) != 1 else name


def render_latex(pres: GradedPresentation) -> str:
    """LaTeX rendering, e.g. ``\\mathbb{F}_5[q_2, q_4]``."""
    if pres.theory == "cobordism":
        ring = _latex_name(f"\\mathbb{{F}}_{pres.params.l}")
    else:
        ring = f"\\mathbb{{Z}}/{pres.modulus}"
    if not pres.named_degrees:
        return ring
    return f"{ring}[{', '.join(_latex_name(name) for _, name in pres.named_degrees)}]"
