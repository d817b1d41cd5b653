"""Presentations of mod-l complex cobordism rings of classifying spaces of
finite groups of Lie type, and of the mod-l Chow ring for GL(n, F_q),
together with independent brute-force verifiers for the supporting
identities (graded coinvariants, wreath-type invariants, Chern classes of
the restricted lift).

The package imports none of its modules itself.  An exported name or a
module name resolves on first use, by importing the module that defines it,
so ``import chevring.rootdata`` loads only ``errors``, ``arith`` and
``rootdata``.  Nothing is copied into the package: ``chevring.lookup`` is
always the current ``chevring.rootdata.lookup``.
"""

import sys as _sys

# Each exported name, by the module that defines it.
_EXPORTS = {
    "GaloisParams": "arith",
    "GLParams": "arith",
    "galois_params": "arith",
    "gl_params": "arith",
    "is_prime": "arith",
    "multiplicative_order": "arith",
    "InputError": "errors",
    "PreconditionError": "errors",
    "ResourceLimitError": "errors",
    "GradedActionProblem": "oracles",
    "coinvariants_hilbert_bruteforce": "oracles",
    "coinvariants_hilbert_closedform": "oracles",
    "invariants_hilbert_bruteforce": "oracles",
    "invariants_hilbert_closedform": "oracles",
    "verify_restricted_chern": "oracles",
    "TruncatedSeries": "poly",
    "elementary_symmetric": "poly",
    "hilbert_series_of_free_polynomial_ring": "poly",
    "multiply": "poly",
    "GradedPresentation": "presentations",
    "chow_gl_presentation": "presentations",
    "cobordism_presentation": "presentations",
    "compare_chow_cobordism_gl": "presentations",
    "poincare_series": "presentations",
    "render_latex": "presentations",
    "render_text": "presentations",
    "RootDatum": "rootdata",
    "group_order": "rootdata",
    "lookup": "rootdata",
}
_MODULES = frozenset({"arith", "cli", "errors", "oracles", "poly", "presentations", "rootdata", "verify"})

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _submodule(name: str):
    # the import statement's path rather than importlib.import_module, so
    # that `python -X importtime` still lists the modules loaded here
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return _sys.modules[qualified]


def __getattr__(name: str):
    if name in _MODULES:
        return _submodule(name)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
