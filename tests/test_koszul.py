from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import (
    CMQuadruple,
    FramedTorsionSheaf,
    InvalidKoszulTriple,
    KoszulTriple,
    Matrix,
    NotCMPoint,
    PolyCovector,
    apply_homotopy,
    check_square,
    cm_residual,
    conjugate,
    from_cm,
    normalize,
    normalizing_homotopy,
    rank,
    sample_cm,
    solve_affine,
    solve_cm_fiber,
    torsor_action,
)
import cmkit
from cmkit.serialize import sheaf_from_json
from conftest import rand_invertible, rand_matrix


def _rand_covector(rng: random.Random, r: int, n: int, degree: int) -> PolyCovector:
    coeffs = [rand_matrix(rng, r, n, span=3) for _ in range(degree + 1)]
    return PolyCovector.from_coeffs(coeffs)


def test_from_cm_scalar():
    q = CMQuadruple(Matrix.zeros(1, 1), Matrix.zeros(1, 1), Matrix.column([1]), Matrix.row_vector([1]))
    kt = from_cm(q)
    assert kt.j.is_constant and kt.j.coeff(0) == q.j
    assert check_square(kt).is_zero()


def test_from_cm_flagship(flagship):
    kt = from_cm(flagship)
    assert kt.j == PolyCovector.constant(Matrix.row_vector([1, 1]))
    assert check_square(kt).is_zero()


def test_from_cm_rejects_non_cm(flagship):
    bad = CMQuadruple(flagship.X, flagship.Y, flagship.i, Matrix.row_vector([2, 2]))
    with pytest.raises(NotCMPoint):
        from_cm(bad)


def test_check_square_valid_non_constant_triple():
    # (X=0, i=1, Y=0, j(x) = 1 + x) commutes: the degree-one term dies on X = 0.
    kt = KoszulTriple(
        Matrix.zeros(1, 1),
        Matrix.column([1]),
        Matrix.zeros(1, 1),
        PolyCovector.from_coeffs([Matrix.row_vector([1]), Matrix.row_vector([1])]),
    )
    assert check_square(kt).is_zero()
    q = normalize(kt)
    # the flattening homotopy h0 = -1 shifts Y through the framing
    assert q.Y == Matrix.from_rows([[-1]]) and q.j == Matrix.row_vector([1])
    assert cm_residual(q).is_zero()
    # and the inverse homotopy recovers the original triple
    assert apply_homotopy(from_cm(q), PolyCovector.constant(Matrix.row_vector([1]))) == kt


def test_check_square_perturbation_is_linear(flagship):
    kt = from_cm(flagship)
    eps = Matrix.row_vector([Fraction(1, 3), 0])
    perturbed = KoszulTriple(kt.X, kt.i, kt.Y, PolyCovector.constant(kt.j.coeff(0) + eps))
    assert check_square(perturbed) == (-1) * (kt.i @ eps)


def test_apply_homotopy_identity(flagship):
    kt = from_cm(flagship)
    h = PolyCovector.constant(Matrix.zeros(1, 2))
    assert apply_homotopy(kt, h) == kt


def test_apply_homotopy_scalar_formula():
    kt = from_cm(
        CMQuadruple(Matrix.zeros(1, 1), Matrix.zeros(1, 1), Matrix.column([1]), Matrix.row_vector([1]))
    )
    c = Fraction(5, 2)
    out = apply_homotopy(kt, PolyCovector.constant(Matrix.row_vector([c])))
    assert out.Y == Matrix.from_rows([[c]])
    assert out.j.coeffs == (Matrix.row_vector([1]), Matrix.row_vector([c]))


def test_apply_homotopy_flagship_formula(flagship):
    kt = from_cm(flagship)
    out = apply_homotopy(kt, PolyCovector.constant(Matrix.row_vector([1, 0])))
    assert out.Y == Matrix.from_rows([[1, -1], [2, 0]])
    assert out.j.coeffs == (Matrix.row_vector([1, 1]), Matrix.row_vector([1, 0]))


def test_homotopy_preserves_square():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 4)
        q = sample_cm(n, rng.randint(0, 10**6))
        kt = from_cm(q)
        h = _rand_covector(rng, 1, n, rng.randint(0, 3))
        kt2 = apply_homotopy(kt, h)
        assert check_square(kt2) == check_square(kt)
        # even on invalid triples the residual is untouched
        bad = KoszulTriple(kt.X, kt.i, kt.Y + Matrix.identity(n), kt.j)
        assert check_square(apply_homotopy(bad, h)) == check_square(bad)


def test_normalize_constant_is_identity(flagship):
    kt = from_cm(flagship)
    assert normalize(kt) == flagship


def test_normalize_inverts_homotopy_examples():
    kt = KoszulTriple(
        Matrix.zeros(1, 1),
        Matrix.column([1]),
        Matrix.from_rows([[3]]),
        PolyCovector.from_coeffs([Matrix.row_vector([1]), Matrix.row_vector([3])]),
    )
    q = normalize(kt)
    assert q == CMQuadruple(
        Matrix.zeros(1, 1), Matrix.zeros(1, 1), Matrix.column([1]), Matrix.row_vector([1])
    )


def test_normalize_round_trip_random():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 5)
        q = sample_cm(n, rng.randint(0, 10**6))
        h = _rand_covector(rng, 1, n, rng.randint(0, 3))
        assert normalize(apply_homotopy(from_cm(q), h)) == q


def test_normalize_rejects_invalid(flagship):
    kt = from_cm(flagship)
    # a perturbation of Y that does not commute with X breaks the square
    e12 = Matrix.from_rows([[0, 1], [0, 0]])
    bad = KoszulTriple(kt.X, kt.i, kt.Y + e12, kt.j)
    with pytest.raises(InvalidKoszulTriple) as err:
        normalize(bad)
    assert not err.value.residual.is_zero()


def test_shifting_y_by_commutant_stays_valid(flagship):
    # (Y + I, j) is another point of the same CM fiber: [X, I] = 0
    kt = from_cm(flagship)
    shifted = KoszulTriple(kt.X, kt.i, kt.Y + Matrix.identity(2), kt.j)
    assert check_square(shifted).is_zero()


# --- CM fiber over a framed sheaf ---


def test_fiber_scalar():
    sol = solve_cm_fiber(FramedTorsionSheaf(Matrix.zeros(1, 1), Matrix.column([1])))
    assert sol.particular_j == Matrix.row_vector([1])
    assert sol.dimension == 1
    y, j = sol.kernel_basis[0]
    assert j.is_zero() and not y.is_zero()


def test_fiber_identity_obstruction():
    assert solve_cm_fiber(FramedTorsionSheaf(Matrix.identity(2), Matrix.column([1, 0]))) is None
    for n in (2, 3, 4):
        i = Matrix.column([1] + [0] * (n - 1))
        assert solve_cm_fiber(FramedTorsionSheaf(Matrix.identity(n), i)) is None


def test_fiber_jordan_block():
    X = Matrix.from_rows([[0, 1], [0, 0]])
    i = Matrix.column([0, 1])
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    assert sol is not None and sol.dimension == 2
    res = X @ sol.particular_Y - sol.particular_Y @ X - i @ sol.particular_j + Matrix.identity(2)
    assert res.is_zero()
    for y, j in sol.kernel_basis:
        assert (X @ y - y @ X - i @ j).is_zero()


def test_torsor_action_lands_on_fiber():
    rng = random.Random(67)
    X = Matrix.from_rows([[0, 1], [0, 0]])
    i = Matrix.column([0, 1])
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    assert torsor_action(sol, [0] * sol.dimension) == (sol.particular_Y, sol.particular_j)
    for _ in range(10):
        t = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(sol.dimension)]
        y, j = torsor_action(sol, t)
        q = CMQuadruple(X, y, i, j)
        assert cm_residual(q).is_zero()
        assert (j @ i).trace() == 2


def test_fiber_solutions_differ_by_kernel():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(1, 4)
        q = sample_cm(n, rng.randint(0, 10**6))
        sol = solve_cm_fiber(FramedTorsionSheaf(q.X, q.i))
        assert sol is not None
        # (q.Y, q.j) is another solution; its difference must decompose exactly
        diff_cols = []
        for y, j in sol.kernel_basis:
            col = [y[row, colx] for colx in range(n) for row in range(n)]
            col += [j[0, colx] for colx in range(n)]
            diff_cols.append(col)
        dy = q.Y - sol.particular_Y
        dj = q.j - sol.particular_j
        target = [dy[row, colx] for colx in range(n) for row in range(n)]
        target += [dj[0, colx] for colx in range(n)]
        if not diff_cols:
            assert all(v == 0 for v in target)
            continue
        m = Matrix.from_rows([[diff_cols[c][r] for c in range(len(diff_cols))] for r in range(len(target))])
        assert solve_affine(m, Matrix.column(target)) is not None


def test_fiber_feasibility_conjugation_invariant():
    rng = random.Random(73)
    cases = [
        (Matrix.identity(2), Matrix.column([1, 0])),
        (Matrix.from_rows([[0, 1], [0, 0]]), Matrix.column([0, 1])),
        (Matrix.from_rows([[0, 0], [0, 1]]), Matrix.column([1, 1])),
        (Matrix.from_rows([[0, 0], [0, 1]]), Matrix.column([1, 0])),
    ]
    for X, i in cases:
        feasible = solve_cm_fiber(FramedTorsionSheaf(X, i)) is not None
        for _ in range(5):
            g = rand_invertible(rng, 2)
            conj = solve_cm_fiber(FramedTorsionSheaf(g @ X @ g.inverse(), g @ i)) is not None
            assert conj == feasible


def test_fiber_higher_rank_framing():
    # r = 2 framing: X = I2 is feasible since i j can reach rank 2
    X = Matrix.identity(2)
    i = Matrix.identity(2)
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    assert sol is not None
    res = X @ sol.particular_Y - sol.particular_Y @ X - i @ sol.particular_j + Matrix.identity(2)
    assert res.is_zero()
    assert (sol.particular_j @ i).trace() == 2


def test_apply_homotopy_shape_mismatch(flagship):
    from cmkit import ShapeError

    kt = from_cm(flagship)
    wrong = PolyCovector.constant(Matrix.row_vector([1, 2, 3]))
    with pytest.raises(ShapeError):
        apply_homotopy(kt, wrong)


def test_triple_refuses_mixed_fields():
    from cmkit import ShapeError, complex_field

    # a rational X with a complex i, refused at construction as CMQuadruple and FramedTorsionSheaf refuse it
    X, Y, j = Matrix.zeros(1, 1), Matrix.zeros(1, 1), PolyCovector.constant(Matrix.row_vector([1]))
    with pytest.raises(ShapeError, match="one field"):
        KoszulTriple(X, Matrix.from_rows([[1]], complex_field()), Y, j)


def test_fiber_refuses_empty_sheaf():
    from cmkit import ShapeError

    # n = 0 is refused by the sheaf's one rule before any system is built
    with pytest.raises(ShapeError):
        solve_cm_fiber(FramedTorsionSheaf(Matrix(0, 0, ()), Matrix(0, 1, ())))


def test_fiber_refuses_mixed_fields():
    from cmkit import ShapeError, complex_field

    with pytest.raises(ShapeError, match="one field"):
        solve_cm_fiber(FramedTorsionSheaf(Matrix.zeros(1, 1), Matrix.from_rows([[1]], complex_field())))


def test_torsor_action_length_mismatch():
    from cmkit import ShapeError

    sol = solve_cm_fiber(FramedTorsionSheaf(Matrix.zeros(1, 1), Matrix.column([1])))
    with pytest.raises(ShapeError):
        torsor_action(sol, [1, 2, 3])


def test_fiber_jordan_kernel_spans_expected_elements():
    # the homogeneous space over (J2(0), e2) contains the identity pair and
    # the Jordan block itself, and has dimension exactly two
    X = Matrix.from_rows([[0, 1], [0, 0]])
    i = Matrix.column([0, 1])
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    cols = []
    for yk, jk in sol.kernel_basis:
        cols.append([yk[r, c] for c in range(2) for r in range(2)] + [jk[0, c] for c in range(2)])
    m = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(6)])
    for target_y in (Matrix.identity(2), X):
        tvec = [target_y[r, c] for c in range(2) for r in range(2)] + [0, 0]
        assert solve_affine(m, Matrix.column(tvec)) is not None


def _solve_valid_triple(X, i, degree, rng):
    """Directly solve I + XY - YX = sum_k X^k i j_k for (Y, j_0..j_d)."""
    from cmkit import solve_affine, commutator
    from fractions import Fraction

    n, r = X.rows, i.cols
    x_pows = [Matrix.identity(n)]
    for _ in range(degree):
        x_pows.append(x_pows[-1] @ X)
    unknowns = []
    for col in range(n):
        for row in range(n):
            e = [[Fraction(0)] * n for _ in range(n)]
            e[row][col] = Fraction(1)
            unknowns.append(("Y", Matrix.from_rows(e)))
    for k in range(degree + 1):
        for row in range(r):
            for col in range(n):
                e = [[Fraction(0)] * n for _ in range(r)]
                e[row][col] = Fraction(1)
                unknowns.append((k, Matrix.from_rows(e)))
    cols = []
    for kind, unit in unknowns:
        if kind == "Y":
            im = commutator(X, unit)
        else:
            im = -(x_pows[kind] @ i @ unit)
        cols.append([im[a, b] for a in range(n) for b in range(n)])
    op = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(n * n)])
    rhs = Matrix.column([-v for v in Matrix.identity(n).entries])
    sol = solve_affine(op, rhs)
    if sol is None:
        return None
    vec = sol.particular
    if sol.kernel_basis:
        for kb in sol.kernel_basis:
            vec = vec + Fraction(rng.randint(-2, 2)) * kb
    idx = 0
    y = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for row in range(n):
            y[row][col] = vec[idx, 0]
            idx += 1
    coeffs = []
    for k in range(degree + 1):
        jm = [[Fraction(0)] * n for _ in range(r)]
        for row in range(r):
            for col in range(n):
                jm[row][col] = vec[idx, 0]
                idx += 1
        coeffs.append(Matrix.from_rows(jm))
    return KoszulTriple(X, i, Matrix.from_rows(y), PolyCovector.from_coeffs(coeffs))


def test_normalize_on_directly_solved_triples():
    # valid triples found by solving the square equation itself, not by
    # dressing CM points with homotopies
    rng = random.Random(131)
    hits = 0
    while hits < 15:
        n = rng.randint(1, 4)
        q = sample_cm(n, rng.randint(0, 10**6))
        kt = _solve_valid_triple(q.X, q.i, rng.randint(0, 3), rng)
        if kt is None:
            continue
        assert check_square(kt).is_zero()
        flat = normalize(kt)
        assert cm_residual(flat).is_zero()
        assert flat.X == q.X and flat.i == q.i
        # the normal form of a constant-covector triple is itself
        assert normalize(from_cm(flat)) == flat
        hits += 1


def test_rank_two_round_trip():
    from fractions import Fraction
    from test_adhm import _block_cm_pair

    rng = random.Random(137)
    q = _block_cm_pair(6, 7)
    assert q.r == 2
    for _ in range(10):
        degree = rng.randint(0, 3)
        coeffs = [rand_matrix(rng, 2, q.n, span=2) for _ in range(degree + 1)]
        h = PolyCovector.from_coeffs(coeffs)
        assert normalize(apply_homotopy(from_cm(q), h)) == q


def test_fiber_solve_float_mode():
    from cmkit import complex_field

    field = complex_field(1e-9)
    X = Matrix.from_rows([[0j, 1 + 0j], [0j, 0j]], field)
    i = Matrix.from_rows([[0j], [1 + 0j]], field)
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    assert sol is not None and sol.dimension == 2
    res = X @ sol.particular_Y - sol.particular_Y @ X - i @ sol.particular_j + Matrix.identity(2, field)
    assert res.is_zero()


def test_complex_fiber_reads_exact_zeros_within_the_tolerance():
    # the complex r = 2 golden sheaf: every entry that exact elimination gives as 0
    # cancels in the row updates, which store it as 0 rather than round-off near 1e-16
    golden = Path(__file__).parent / "data" / "golden_reports.jsonl"
    [case] = [c for c in map(json.loads, golden.read_text(encoding="utf-8").splitlines())
              if c.get("id") == "fiber-solve-complex-dense-r2"]
    fs = sheaf_from_json(json.loads(case["input"]))
    sol = solve_cm_fiber(fs)
    assert sol is not None and sol.dimension > 0
    blocks = [sol.particular_Y, sol.particular_j, *(m for pair in sol.kernel_basis for m in pair)]
    entries = [z for m in blocks for z in m.entries]
    assert all(abs(z) > fs.field.tolerance or z == 0 for z in entries)
    assert all(z == 0 for z in sol.kernel_basis[0][1].entries)
    res = fs.X @ sol.particular_Y - sol.particular_Y @ fs.X - fs.i @ sol.particular_j + Matrix.identity(3, fs.field)
    assert res.is_zero()


@pytest.mark.parametrize("tolerance, i0", [(1e-9, 1e10), (1e-3, 2000.0)])
def test_complex_fiber_keeps_small_answers_of_large_framings(tolerance, i0):
    # Y[1, 0] = j[0, 0] = 1 / i0 is below the tolerance, but no cancellation made it,
    # so it must be read as it is or [X, Y] - i j + I misses 0 by 1 at (0, 0)
    from cmkit import complex_field

    field = complex_field(tolerance)
    X = Matrix.from_rows([[1, 0], [0, 2]], field)
    i = Matrix.from_rows([[i0], [1]], field)
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    assert sol is not None
    assert sol.particular_j[0, 0] == pytest.approx(1 / i0) and sol.particular_Y[1, 0] == pytest.approx(1 / i0)
    res = X @ sol.particular_Y - sol.particular_Y @ X - i @ sol.particular_j + Matrix.identity(2, field)
    assert res.is_zero()


# Run in a fresh interpreter, so that koszul itself is the first to load adhm:
# normalize certifies a triple's quadruple, and from_cm takes that quadruple
# and refuses a point off the CM locus.
_ADHM_ON_DEMAND = """
import sys
import cmkit.koszul as koszul
from cmkit.linalg import Matrix

assert "cmkit.adhm" not in sys.modules
one = Matrix.identity(1)
kt = koszul.KoszulTriple(Matrix.zeros(1, 1), one, 3 * one, koszul.PolyCovector.from_coeffs([one, 3 * one]))
q = koszul.normalize(kt)
adhm = sys.modules["cmkit.adhm"]
assert type(q) is adhm.CMQuadruple and adhm.cm_residual(q).is_zero()
assert koszul.from_cm(q).j.is_constant
try:
    koszul.from_cm(adhm.CMQuadruple(q.X, q.Y, q.i, 2 * q.j))
except koszul.NotCMPoint:
    print("NotCMPoint")
"""


def test_koszul_loads_adhm_only_where_it_builds_a_quadruple():
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ADHM_ON_DEMAND], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "NotCMPoint"


def test_homotopies_form_an_additive_action(flagship):
    rng = random.Random(149)
    kt = from_cm(flagship)
    for _ in range(10):
        h1 = _rand_covector(rng, 1, 2, rng.randint(0, 2))
        h2 = _rand_covector(rng, 1, 2, rng.randint(0, 2))
        once = apply_homotopy(apply_homotopy(kt, h1), h2)
        top = max(h1.degree, h2.degree)
        summed = PolyCovector.from_coeffs(
            [h1.coeff(k) + h2.coeff(k) for k in range(top + 1)]
        )
        assert once == apply_homotopy(kt, summed)
        # the normalizing homotopy undoes itself through negation
        dressed = apply_homotopy(kt, h1)
        h = normalizing_homotopy(dressed)
        flat = apply_homotopy(dressed, h)
        neg = PolyCovector.from_coeffs([(-1) * h.coeff(k) for k in range(h.degree + 1)])
        assert apply_homotopy(flat, neg) == dressed


def test_normalizing_homotopy_is_exposed(flagship):
    kt = from_cm(flagship)
    h = normalizing_homotopy(kt)
    assert h.is_constant and h.coeff(0).is_zero()


def test_normalize_round_trip_high_degree():
    rng = random.Random(151)
    for degree in (4, 5, 6):
        q = sample_cm(3, 5000 + degree)
        coeffs = [rand_matrix(rng, 1, 3, span=2) for _ in range(degree + 1)]
        h = PolyCovector.from_coeffs(coeffs)
        assert normalize(apply_homotopy(from_cm(q), h)) == q


def test_fiber_solve_scales_to_n8():
    q = sample_cm(8, 99)
    sol = solve_cm_fiber(FramedTorsionSheaf(q.X, q.i))
    assert sol is not None
    res = (
        q.X @ sol.particular_Y
        - sol.particular_Y @ q.X
        - q.i @ sol.particular_j
        + Matrix.identity(8)
    )
    assert res.is_zero()
    assert (sol.particular_j @ q.i).trace() == 8


def test_fiber_dimension_over_diagonal_cyclic_data_is_n():
    # over X diagonal with distinct entries and a nowhere-zero framing, the
    # homogeneous solutions are exactly the diagonal shifts of Y: dimension n
    for n in range(1, 7):
        q = sample_cm(n, 300 + n)
        sol = solve_cm_fiber(FramedTorsionSheaf(q.X, q.i))
        assert sol is not None and sol.dimension == n
        for y, j in sol.kernel_basis:
            assert j.is_zero()


def _probed_fiber_system(X: Matrix, i: Matrix) -> Matrix:
    """Reference oracle: the fiber operator assembled by applying it to every unit (Y, j).

    Equation (a, b) is row a n + b, row-major, in either field."""
    from cmkit import commutator

    n, r, field = X.rows, i.cols, X.field
    units = []
    for col in range(n):
        for row in range(n):
            y = [[field.zero] * n for _ in range(n)]
            y[row][col] = field.one
            units.append((Matrix.from_rows(y, field), Matrix.zeros(r, n, field)))
    for row in range(r):
        for col in range(n):
            jm = [[field.zero] * n for _ in range(r)]
            jm[row][col] = field.one
            units.append((Matrix.zeros(n, n, field), Matrix.from_rows(jm, field)))
    ncols = len(units)
    flat = [field.zero] * (n * n * ncols)
    for cidx, (yu, ju) in enumerate(units):
        image = commutator(X, yu) - i @ ju
        for a in range(n):
            for b in range(n):
                flat[(a * n + b) * ncols + cidx] = image[a, b]
    return Matrix(n * n, ncols, tuple(flat), field)


def _same_system(a: Matrix, b: Matrix) -> bool:
    """Equal matrices, complex entries compared by repr, so the sign of every zero counts too."""
    return a == b and (a.field.is_rational or list(map(repr, a.entries)) == list(map(repr, b.entries)))


@pytest.mark.parametrize("field_name", ["rational", "complex"])
@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fiber_system_matches_unit_probing(field_name, conjugated, r, data):
    """n <= 5 and X diagonal, or conjugated dense; a complex X has nonzero imaginary parts unless the drawn
    scale is 1."""
    from cmkit import complex_field
    from cmkit.koszul import _fiber_system

    n = data.draw(st.integers(1, 5))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    X = Matrix.from_rows([[data.draw(values) if k == l else 0 for l in range(n)] for k in range(n)])
    if conjugated:
        g = rand_invertible(random.Random(data.draw(st.integers(0, 10**6))), n)
        X = g @ X @ g.inverse()
    i = Matrix.from_rows([[data.draw(values) for _ in range(r)] for _ in range(n)])
    if field_name == "complex":
        field = complex_field(1e-9)
        scale = data.draw(st.sampled_from([1, 1j, 1 - 2j]))
        X = Matrix.from_rows([[complex(v) * scale for v in row] for row in X.to_rows()], field)
        i = Matrix.from_rows([[complex(v) * (1 + 1j) for v in row] for row in i.to_rows()], field)
    assert _same_system(_fiber_system(X, i), _probed_fiber_system(X, i))


@pytest.mark.parametrize("field_name", ["rational", "complex"])
def test_end_rows_and_fiber_system_write_through_add_sandwich(field_name, monkeypatch):
    from cmkit import complex_field, koszul, linalg, moduli

    q = conjugate(sample_cm(3, 31), rand_invertible(random.Random(31), 3))
    X, i = q.X, q.i.hstack(Matrix.column([1, Fraction(-1, 2), 0]))
    if field_name == "complex":
        field = complex_field()
        X = Matrix.from_rows([[complex(v) * (1 - 2j) for v in row] for row in X.to_rows()], field)
        i = Matrix.from_rows([[complex(v) for v in row] for row in i.to_rows()], field)
    fs = FramedTorsionSheaf(X, i)
    end_rows, fiber = moduli._end_rows(fs), koszul._fiber_system(X, i)
    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append(name)
            linalg.add_sandwich(*args, **kwargs)
        return record

    monkeypatch.setattr(moduli, "add_sandwich", recorder("moduli"))
    monkeypatch.setattr(koszul, "add_sandwich", recorder("koszul"))
    assert repr(moduli._end_rows(fs)) == repr(end_rows) and calls == ["moduli"] * 4
    calls.clear()
    assert _same_system(koszul._fiber_system(X, i), fiber) and calls == ["koszul"] * 3


@pytest.mark.parametrize("conjugated", [False, True])
def test_rational_fiber_rows_hold_fractions_only_where_a_term_is_written(conjugated):
    """The rational fiber rows start from the int 0, as the End rows do: an entry is a Fraction only at a
    column one of the three sandwich terms writes, for a nonzero entry of X or i (at most 2 n^3 + n^2 r of the
    n^2 (n^2 + n r) entries), and every other entry is the int 0.  The system still equals the probed one."""
    from cmkit.koszul import _fiber_system

    n, r = 6, 1
    q = sample_cm(n, n)
    if conjugated:
        q = conjugate(q, rand_invertible(random.Random(n + 1000), n))
    X, i = q.X, q.i
    x, a = X.to_rows(), i.to_rows()
    written = {(p * n + b, b * n + k) for p in range(n) for k in range(n) if x[p][k] for b in range(n)}
    written |= {(p * n + b, l * n + p) for l in range(n) for b in range(n) if x[l][b] for p in range(n)}
    written |= {(p * n + b, n * n + k * n + b) for p in range(n) for k in range(r) if a[p][k] for b in range(n)}
    assert len(written) <= 2 * n**3 + n * n * r
    system = _fiber_system(X, i)
    fractions = {divmod(t, system.cols) for t, v in enumerate(system.entries) if type(v) is Fraction}
    assert fractions <= written
    assert all(v == 0 and type(v) is int for v in system.entries if type(v) is not Fraction)
    assert _same_system(system, _probed_fiber_system(X, i))


def test_rational_systems_are_eliminated_in_fewer_row_steps_last_equation_first(monkeypatch):
    """A guard on work, not time: ``linalg._integer_rref`` takes the row-major rows its callers write last
    equation first, and so clears fewer rows (fraction-free row steps of ``linalg._clear``, which only its
    forward pass takes) than when it is handed the same rows reversed, which it then takes row-major.  The
    rational fiber system [A | -vec(I)] of a dense n = 6 sheaf, r = 1, the End rows of the same X with r = 2
    and the faithful trace-form rows of the scalar sheaf X = 2 I_5, r = 1, take 450 against 505, 633 against
    841 and 40 against 56 row steps.  The pivots agree."""
    from cmkit import linalg, moduli
    from cmkit.koszul import _fiber_system

    n = 6
    q = conjugate(sample_cm(n, n), rand_invertible(random.Random(n + 1000), n))
    rhs = (-Matrix.identity(n)).gather(n * n, 1, range(n * n))
    framing = q.i.hstack(Matrix.column([k % 3 - 1 for k in range(n)]))
    scalar = FramedTorsionSheaf(2 * Matrix.identity(5), Matrix.column([1, 2, 3, 4, 5]))
    systems = {"fiber": linalg._rows(_fiber_system(q.X, q.i), rhs),
               "End": moduli._end_rows(FramedTorsionSheaf(q.X, framing)),
               "trace form": moduli._faithful_trace_form(scalar, moduli._end_block(scalar))}
    cleared = [0]
    clear = linalg._clear

    def counting(ints, pr, pc, targets):
        cleared[0] += sum(1 for k in targets if ints[k][pc])
        clear(ints, pr, pc, targets)

    monkeypatch.setattr(linalg, "_clear", counting)

    def steps(rows):
        cleared[0] = 0
        return linalg._integer_rref([list(row) for row in rows]), cleared[0]

    for name, rows in systems.items():
        (pivots, last_first), (row_major_pivots, row_major) = steps(rows), steps(rows[::-1])
        assert pivots == row_major_pivots
        assert last_first < 0.9 * row_major, (name, last_first, row_major)


# --- the Koszul laws as properties, n <= 4 and r <= 2 ---

_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _invertible(draw, n: int) -> Matrix:
    """g = L D U with unit triangular integer L, U and a diagonal D of units +-1, +-2."""
    entry = st.integers(-2, 2)
    lower = Matrix.from_rows([[1 if k == l else draw(entry) if l < k else 0 for l in range(n)] for k in range(n)])
    upper = Matrix.from_rows([[1 if k == l else draw(entry) if l > k else 0 for l in range(n)] for k in range(n)])
    diag = Matrix.from_rows([[draw(st.sampled_from([1, -1, 2, -2])) if k == l else 0 for l in range(n)]
                             for k in range(n)])
    return lower @ diag @ upper


@st.composite
def _cm_points(draw) -> CMQuadruple:
    """A sampled CM point (r = 1, n <= 4) or two on disjoint blocks (r = 2, n <= 4), conjugated by a random g."""
    sizes = draw(st.sampled_from([[1], [2], [3], [4], [1, 1], [1, 2], [2, 1], [2, 2]]))
    from test_adhm import _block_sum

    points = [sample_cm(n, draw(st.integers(0, 10**6))) for n in sizes]
    q = points[0] if len(points) == 1 else _block_sum(*points)
    return conjugate(q, draw(_invertible(q.n)))


@st.composite
def _homotopies(draw, r: int, n: int) -> PolyCovector:
    coeffs = [Matrix.from_rows([[draw(_small) for _ in range(n)] for _ in range(r)])
              for _ in range(draw(st.integers(1, 3)))]
    return PolyCovector.from_coeffs(coeffs)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_normalize_is_constant_on_homotopy_classes(data):
    q = data.draw(_cm_points())
    kt = apply_homotopy(from_cm(q), data.draw(_homotopies(q.r, q.n)))
    assert normalize(apply_homotopy(kt, data.draw(_homotopies(q.r, q.n)))) == normalize(kt) == q


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_torsor_action_lands_on_the_fiber(data):
    q = data.draw(_cm_points())
    sol = solve_cm_fiber(FramedTorsionSheaf(q.X, q.i))
    y, j = torsor_action(sol, [data.draw(_small) for _ in range(sol.dimension)])
    assert cm_residual(CMQuadruple(q.X, y, q.i, j)).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_fiber_feasibility_and_dimension_are_conjugation_invariant(data):
    if data.draw(st.booleans()):  # a sheaf in the CM support, or random small integer data
        q = data.draw(_cm_points())
        X, i = q.X, q.i
    else:
        n, r = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
        entry = st.sampled_from([0, 0, 1, -1, 2])
        X = Matrix.from_rows([[data.draw(entry) for _ in range(n)] for _ in range(n)])
        i = Matrix.from_rows([[data.draw(entry) for _ in range(r)] for _ in range(n)])
    g = data.draw(_invertible(X.rows))
    sol = solve_cm_fiber(FramedTorsionSheaf(X, i))
    moved = solve_cm_fiber(FramedTorsionSheaf(g @ X @ g.inverse(), g @ i))
    assert (sol is None) == (moved is None)
    if sol is not None:
        assert moved.dimension == sol.dimension
