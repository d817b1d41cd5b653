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

from dataclasses import dataclass

from .arith import GLParams, GaloisParams
from .errors import SCHEMA_VERSION, InputError, PreconditionError
from .poly import TruncatedSeries, hilbert_series_of_free_polynomial_ring
from .rootdata import RootDatum, lookup

__all__ = [
    "ComparisonReport",
    "GradedPresentation",
    "Generator",
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


@dataclass(frozen=True)
class Generator:
    name: str
    algebraic_degree: int

    def __post_init__(self):
        if self.algebraic_degree < 1:
            raise InputError(f"generator degree must be positive, got {self.algebraic_degree}")

    @property
    def topological_degree(self) -> int:
        return 2 * self.algebraic_degree


@dataclass(frozen=True)
class GradedPresentation:
    """A finitely generated polynomial-ring presentation over Z/l^b."""

    theory: str  # "cobordism" or "chow"
    family: str
    rank: int
    p: int
    q: int
    l: int
    b: int
    r: int
    m: int | None  # floor(n/r), tracked for GL only
    generators: tuple[Generator, ...]
    grading: str  # default grading for display: "chow" or "topological"

    def __post_init__(self):
        gens = tuple(sorted(self.generators, key=lambda g: (g.algebraic_degree, g.name)))
        object.__setattr__(self, "generators", gens)

    @property
    def modulus(self) -> int:
        return self.l**self.b

    def algebraic_degrees(self) -> tuple[int, ...]:
        return tuple(g.algebraic_degree for g in self.generators)

    def coefficient_ring_text(self) -> str:
        if self.theory == "cobordism":
            return f"F_{self.l}"
        return f"Z/{self.modulus}"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "presentation",
            "theory": self.theory,
            "group": {"family": self.family, "rank": self.rank},
            "field": {"p": self.p, "q": self.q},
            "prime": self.l,
            "b": self.b,
            "r": self.r,
            "m": self.m,
            "grading": self.grading,
            "generators": [
                {
                    "name": g.name,
                    "algebraic_degree": g.algebraic_degree,
                    "topological_degree": g.topological_degree,
                }
                for g in self.generators
            ],
        }


def presentation_from_json_dict(d: dict) -> GradedPresentation:
    return GradedPresentation(
        theory=d["theory"],
        family=d["group"]["family"],
        rank=int(d["group"]["rank"]),
        p=int(d["field"]["p"]),
        q=int(d["field"]["q"]),
        l=int(d["prime"]),
        b=int(d["b"]),
        r=int(d["r"]),
        m=None if d["m"] is None else int(d["m"]),
        generators=tuple(
            Generator(g["name"], int(g["algebraic_degree"])) for g in d["generators"]
        ),
        grading=d["grading"],
    )


def _generator_prefix(family: str) -> str:
    if family == "GL":
        return "c"  # Chern classes
    if family == "Sp":
        return "q"  # symplectic classes
    return "s"


def cobordism_presentation(datum: RootDatum, params: GaloisParams) -> GradedPresentation:
    """Mod-l complex cobordism of the classifying space of the group of
    F_q-points: the free polynomial ring on the generators s_i whose
    topological degree 2*d_i is divisible by 2r, i.e. r | d_i."""
    if params.l in datum.torsion_primes:
        raise PreconditionError(
            f"l = {params.l} is a torsion prime of {datum.family} rank {datum.rank}: "
            "the integral cohomology of the complex group must have no l-torsion"
        )
    prefix = _generator_prefix(datum.family)
    gens = tuple(
        Generator(f"{prefix}_{i}", d)
        for i, d in enumerate(datum.degrees, start=1)
        if d % params.r == 0
    )
    return GradedPresentation(
        theory="cobordism",
        family=datum.family,
        rank=datum.rank,
        p=params.p,
        q=params.q,
        l=params.l,
        b=1,
        r=params.r,
        m=None,
        generators=gens,
        grading=TOPOLOGICAL,
    )


def chow_gl_presentation(params: GLParams, b: int = 1) -> GradedPresentation:
    """Mod-l^b Chow ring of BGL(n, F_q).

    For b = 1 (l odd): the polynomial ring Z/l[c_r, c_2r, ..., c_mr].
    For b >= 2 the field must contain the l^b-th roots of unity, and the
    result is Z/l^b[c_1, ..., c_n].
    """
    base = params.base
    if b < 1:
        raise InputError(f"b must be >= 1, got {b}")
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
        gens = tuple(Generator(f"c_{i}", i) for i in range(1, params.n + 1))
    else:
        gens = tuple(
            Generator(f"c_{i * base.r}", i * base.r) for i in range(1, params.m + 1)
        )
    return GradedPresentation(
        theory="chow",
        family="GL",
        rank=params.n,
        p=base.p,
        q=base.q,
        l=base.l,
        b=b,
        r=base.r,
        m=params.m,
        generators=gens,
        grading=CHOW,
    )


def poincare_series(
    pres: GradedPresentation, cutoff: int, grading: str | None = None
) -> TruncatedSeries:
    """Series of the free polynomial ring on the presentation's generators,
    in the requested grading (default: the presentation's own)."""
    grading = grading or pres.grading
    if grading == CHOW:
        degrees = [g.algebraic_degree for g in pres.generators]
    elif grading == TOPOLOGICAL:
        degrees = [g.topological_degree for g in pres.generators]
    else:
        raise InputError(f"unknown grading {grading!r}")
    return hilbert_series_of_free_polynomial_ring(degrees, cutoff)


@dataclass(frozen=True)
class ComparisonReport:
    """Structural comparison of the GL Chow and cobordism presentations."""

    family: str
    rank: int
    p: int
    q: int
    l: int
    r: int
    m: int
    equal: bool
    chow_degrees: tuple[int, ...]
    cobordism_degrees: tuple[int, ...]  # algebraic degrees

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "comparison",
            "group": {"family": self.family, "rank": self.rank},
            "field": {"p": self.p, "q": self.q},
            "prime": self.l,
            "r": self.r,
            "m": self.m,
            "equal": self.equal,
            "chow_degrees": list(self.chow_degrees),
            "cobordism_degrees": list(self.cobordism_degrees),
        }


def comparison_from_json_dict(d: dict) -> ComparisonReport:
    return ComparisonReport(
        family=d["group"]["family"],
        rank=int(d["group"]["rank"]),
        p=int(d["field"]["p"]),
        q=int(d["field"]["q"]),
        l=int(d["prime"]),
        r=int(d["r"]),
        m=int(d["m"]),
        equal=bool(d["equal"]),
        chow_degrees=tuple(int(x) for x in d["chow_degrees"]),
        cobordism_degrees=tuple(int(x) for x in d["cobordism_degrees"]),
    )


def compare_chow_cobordism_gl(params: GLParams) -> ComparisonReport:
    """Check that the GL Chow presentation (b = 1) and the cobordism
    presentation have the same generator degrees.  A mismatch is reported,
    not raised."""
    chow = chow_gl_presentation(params, b=1)
    cobord = cobordism_presentation(lookup("GL", params.n), params.base)
    chow_degs = tuple(sorted(chow.algebraic_degrees()))
    cobord_degs = tuple(sorted(cobord.algebraic_degrees()))
    return ComparisonReport(
        family="GL",
        rank=params.n,
        p=params.base.p,
        q=params.base.q,
        l=params.base.l,
        r=params.base.r,
        m=params.m,
        equal=chow_degs == cobord_degs,
        chow_degrees=chow_degs,
        cobordism_degrees=cobord_degs,
    )


def render_text(pres: GradedPresentation) -> str:
    """Plain-text rendering, e.g. ``F_5[q_2, q_4]`` plus one line per generator."""
    ring = pres.coefficient_ring_text()
    if pres.generators:
        head = f"{ring}[{', '.join(g.name for g in pres.generators)}]"
        lines = [head]
        for g in pres.generators:
            lines.append(
                f"  {g.name}: algebraic degree {g.algebraic_degree}, "
                f"topological degree {g.topological_degree}"
            )
    else:
        lines = [ring]
        if pres.m is not None:
            lines.append(f"  (no generators; m = {pres.m})")
        else:
            lines.append("  (no generators)")
    return "\n".join(lines)


def _latex_name(name: str) -> str:
    if "_" not in name:
        return name
    stem, index = name.rsplit("_", 1)
    return f"{stem}_{index}" if len(index) == 1 else f"{stem}_{{{index}}}"


def render_latex(pres: GradedPresentation) -> str:
    """LaTeX rendering, e.g. ``\\mathbb{F}_5[q_2, q_4]``."""
    if pres.theory == "cobordism":
        ring = f"\\mathbb{{F}}_{pres.l}" if pres.l < 10 else f"\\mathbb{{F}}_{{{pres.l}}}"
    else:
        mod = pres.modulus
        ring = f"\\mathbb{{Z}}/{mod}"
    if not pres.generators:
        return ring
    return f"{ring}[{', '.join(_latex_name(g.name) for g in pres.generators)}]"
