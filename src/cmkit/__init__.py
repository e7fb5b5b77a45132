"""Exact matrix models of Calogero-Moser spaces on the affine line.

The library covers four interlocking pictures and the maps between them:

* quadruples (X, Y, i, j) with their two moment conventions, stability,
  conjugation invariants and the commutative-side point ideals;
* normal-ordered Weyl-algebra arithmetic with a truncated microlocal ring
  and graded cohomology ranks of the twisted difference complex;
* the dictionary between CM quadruples and polynomial-covector triples,
  with homotopy action and the unique constant-covector normal form;
* framed torsion sheaves with endomorphism algebras, indecomposability,
  and the (possibly empty) affine CM fiber over each of them.
"""

import importlib

# Every public name, by the submodule that defines it.  Nothing is imported
# until it is first looked up (PEP 562), so a command that needs only
# ``linalg`` and ``weyl`` never loads the rest of the library.
_EXPORTS = {
    "linalg": (
        "AffineSolution", "Field", "Matrix", "RATIONAL", "ShapeError", "SingularMatrixError",
        "char_poly", "commutator", "complex_field", "eval_matrix_poly", "kernel_basis", "rank",
        "solve_affine",
    ),
    "weyl": (
        "CechRanks", "CutoffExhausted", "MicrolocalElement", "WeylElement", "ZeroElementError",
        "cech_graded_ranks", "d_inv", "d_pow", "embed", "micro", "micro_mul", "order",
        "weyl_element", "weyl_mul", "x_pow",
    ),
    "adhm": (
        "CMQuadruple", "HilbertIdeal", "cm_residual", "conjugate", "hilbert_ideal", "is_cm_point",
        "is_stable", "moment_std", "poly_str", "sample_cm", "word_invariants",
    ),
    "koszul": (
        "FiberSolution", "FramedTorsionSheaf", "InvalidKoszulTriple", "KoszulTriple", "NotCMPoint",
        "PolyCovector", "apply_homotopy", "check_square", "framed_poly_action", "from_cm",
        "normalize", "normalizing_homotopy", "solve_cm_fiber", "torsor_action",
    ),
    "moduli": (
        "INCONCLUSIVE", "SupportReport", "cm_support_check", "endomorphisms", "factor_str",
        "framing_surjective", "is_indecomposable", "support",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
