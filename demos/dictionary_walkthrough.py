"""Walk the dictionary: quadruple -> triple -> homotopy orbit -> normal form.

Run with:  python demos/dictionary_walkthrough.py
"""

from cmkit import (
    CMQuadruple,
    FramedTorsionSheaf,
    Matrix,
    PolyCovector,
    apply_homotopy,
    check_square,
    cm_residual,
    cm_support_check,
    endomorphisms,
    from_cm,
    is_indecomposable,
    moment_std,
    normalize,
    solve_cm_fiber,
    torsor_action,
)

# The standard two-particle point: X = diag(0, 1), Y the rotation matrix.
q = CMQuadruple(
    Matrix.from_rows([[0, 0], [0, 1]]),
    Matrix.from_rows([[0, -1], [1, 0]]),
    Matrix.column([1, 1]),
    Matrix.row_vector([1, 1]),
)
print("quadruple residual [X,Y] - ij + I =", cm_residual(q))
print("other convention   [X,Y] + ij     =", moment_std(q))

# Pass to the triple picture: j becomes a constant polynomial covector.
kt = from_cm(q)
print("\ncommuting-square residual:", check_square(kt))

# Act by a homotopy; the square is preserved but j(x) picks up degree.
h = PolyCovector.constant(Matrix.row_vector([1, 0]))
kt2 = apply_homotopy(kt, h)
print("after homotopy: Y =", kt2.Y, "  j(x) coefficients:", [str(c) for c in kt2.j.coeffs])
print("square still zero:", check_square(kt2).is_zero())

# Normalization finds the unique constant-covector representative ...
back = normalize(kt2)
print("normalize recovers the original quadruple:", back == q)

# ... and the CM fiber over the framed sheaf (X, i) is an affine space.
fs = FramedTorsionSheaf(q.X, q.i)
sol = solve_cm_fiber(fs)
print("\nfiber over (X, i): dimension", sol.dimension)
y, j = torsor_action(sol, [2] * sol.dimension)
print("a second fiber point still satisfies the relation:",
      cm_residual(CMQuadruple(q.X, y, q.i, j)).is_zero())

# The sheaf-side view of the same (X, i).
print("\nendomorphism algebra dimension:", len(endomorphisms(fs)))
print("indecomposable:", is_indecomposable(fs))
print("CM support check:", cm_support_check(fs))
