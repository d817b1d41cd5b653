"""Presentations of mod-l complex cobordism rings of classifying spaces of
finite groups of Lie type, and of the mod-l Chow ring for GL(n, F_q),
together with independent brute-force verifiers for the supporting
identities (graded coinvariants, wreath-type invariants, Chern classes of
the restricted lift)."""

from .arith import (
    GaloisParams,
    GLParams,
    galois_params,
    gl_params,
    is_prime,
    multiplicative_order,
)
from .errors import InputError, PreconditionError, ResourceLimitError
from .oracles import (
    GradedActionProblem,
    brauer_chern_total_class,
    chern_scalar_checks,
    coinvariants_hilbert_bruteforce,
    coinvariants_hilbert_closedform,
    invariants_hilbert_bruteforce,
    invariants_hilbert_closedform,
    verify_restricted_chern,
)
from .poly import (
    ModPolynomial,
    TruncatedSeries,
    elementary_symmetric,
    hilbert_series_of_free_polynomial_ring,
    multiply,
)
from .presentations import (
    GradedPresentation,
    chow_gl_presentation,
    cobordism_presentation,
    compare_chow_cobordism_gl,
    poincare_series,
    render_latex,
    render_text,
)
from .rootdata import RootDatum, group_order, lookup, validate_registry

__version__ = "0.1.0"
