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

from .linalg import (
    AffineSolution,
    Field,
    Matrix,
    RATIONAL,
    ShapeError,
    SingularMatrixError,
    char_poly,
    commutator,
    complex_field,
    eval_matrix_poly,
    kernel_basis,
    rank,
    solve_affine,
)
from .weyl import (
    CechRanks,
    CutoffExhausted,
    MicrolocalElement,
    WeylElement,
    ZeroElementError,
    cech_graded_ranks,
    d_inv,
    d_pow,
    embed,
    micro,
    micro_mul,
    order,
    weyl_element,
    weyl_mul,
    x_pow,
)
from .adhm import (
    CMQuadruple,
    HilbertIdeal,
    cm_residual,
    conjugate,
    hilbert_ideal,
    is_cm_point,
    is_stable,
    moment_std,
    poly_str,
    sample_cm,
    word_invariants,
)
from .koszul import (
    FiberSolution,
    FramedTorsionSheaf,
    InvalidKoszulTriple,
    KoszulTriple,
    NotCMPoint,
    PolyCovector,
    apply_homotopy,
    check_square,
    framed_poly_action,
    from_cm,
    normalize,
    normalizing_homotopy,
    solve_cm_fiber,
    torsor_action,
)
from .moduli import (
    INCONCLUSIVE,
    SupportReport,
    cm_support_check,
    endomorphisms,
    factor_str,
    framing_surjective,
    is_indecomposable,
    support,
)

__version__ = "0.1.0"
