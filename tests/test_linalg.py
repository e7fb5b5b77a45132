from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    char_poly,
    complex_field,
    eval_matrix_poly,
    kernel_basis,
    rank,
    solve_affine,
)
from conftest import rand_matrix


def test_solve_identity():
    sol = solve_affine(Matrix.identity(2), Matrix.column([1, 2]))
    assert sol.particular == Matrix.column([1, 2])
    assert sol.kernel_basis == []


def test_solve_zero_map():
    sol = solve_affine(Matrix.zeros(2, 2), Matrix.column([0, 0]))
    assert sol.particular.is_zero()
    assert len(sol.kernel_basis) == 2


def test_solve_inconsistent():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve_affine(a, Matrix.column([1, 2])) is None


def test_solve_random_by_substitution():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_matrix(rng, 3, 4)
        v0 = rand_matrix(rng, 4, 1)
        b = a @ v0
        sol = solve_affine(a, b)
        assert sol is not None
        assert (a @ sol.particular - b).is_zero()
        for k in sol.kernel_basis:
            assert (a @ k).is_zero()
        # v0 - particular must decompose against the kernel basis
        assert rank(a) + len(sol.kernel_basis) == 4


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve_affine(Matrix.identity(2), Matrix.column([1, 2, 3]))


def test_rank_kernel_complement():
    rng = random.Random(5)
    assert rank(Matrix.identity(3)) == 3
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(a) + len(kernel_basis(a)) == a.cols


def test_char_poly_diag():
    assert char_poly(Matrix.from_rows([[0, 0], [0, 1]])) == [0, -1, 1]


def test_char_poly_non_square():
    with pytest.raises(ShapeError):
        char_poly(Matrix.zeros(2, 3))


def test_eval_matrix_poly_nilpotent():
    j = Matrix.from_rows([[0, 1], [0, 0]])
    assert eval_matrix_poly([1, 0, 1], j) == Matrix.identity(2)


def test_cayley_hamilton_random():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(4):
            x = rand_matrix(rng, n, n, span=3)
            assert eval_matrix_poly(char_poly(x), x).is_zero()


def test_inverse_and_singular():
    a = Matrix.from_rows([[1, 2], [3, 5]])
    assert a @ a.inverse() == Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_float_mode_solve_within_tolerance():
    field = complex_field(1e-9)
    rng = random.Random(17)
    for _ in range(10):
        rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)] for _ in range(3)]
        a = Matrix.from_rows(rows, field)
        v0 = Matrix.from_rows([[complex(rng.uniform(-2, 2))] for _ in range(4)], field)
        b = a @ v0
        sol = solve_affine(a, b)
        assert sol is not None
        assert (a @ sol.particular - b).is_zero()  # entrywise below tolerance


def test_float_mode_cayley_hamilton():
    field = complex_field(1e-7)
    rng = random.Random(23)
    x = Matrix.from_rows(
        [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)] for _ in range(4)],
        field,
    )
    assert eval_matrix_poly(char_poly(x), x).is_zero()


def test_rational_entries_lowest_terms():
    m = Matrix.from_rows([[Fraction(2, 4)]])
    assert m[0, 0].numerator == 1 and m[0, 0].denominator == 2


def test_mixed_field_rejected():
    a = Matrix.identity(2)
    b = Matrix.identity(2, complex_field())
    with pytest.raises(ShapeError):
        a @ b


def test_float_mode_partial_pivoting():
    # a tiny leading entry must not be chosen as the pivot in float mode
    field = complex_field(1e-9)
    a = Matrix.from_rows([[1e-13, 1.0], [1.0, 1.0]], field)
    b = Matrix.column([1.0, 2.0], field)
    sol = solve_affine(a, b)
    assert sol is not None
    assert (a @ sol.particular - b).is_zero()
    assert abs(sol.particular[0, 0] - 1.0) < 1e-6 and abs(sol.particular[1, 0] - 1.0) < 1e-6


# Denominators for the product property: 1, small, large, and pairwise coprime primes.
_DENOMINATORS = [1, 2, 3, 6, 7, 12, 2**61 - 1, 10**18 + 9, 3**40]


@st.composite
def _rational_operands(draw):
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    kind = draw(st.sampled_from(["mixed", "integer", "zero"]))
    if kind == "zero":
        entry = st.just(Fraction(0))
    elif kind == "integer":
        entry = st.integers(-(10**12), 10**12).map(Fraction)
    else:
        entry = st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-(2**70), 2**70), st.sampled_from(_DENOMINATORS)),
        )

    def operand(rows, cols):
        return Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))))

    return operand(n, m), operand(m, p)


@settings(max_examples=200, deadline=None)
@given(_rational_operands())
def test_rational_matmul_matches_entrywise_definition(operands):
    a, b = operands
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    expected = tuple(
        sum((a[i, k] * b[k, c] for k in range(a.cols)), Fraction(0))
        for i in range(a.rows)
        for c in range(b.cols)
    )
    assert product.entries == expected
    assert all(type(x) is Fraction for x in product.entries)


def _complex_loop_product(a: Matrix, b: Matrix) -> Matrix:
    """Reference oracle: the accumulate-from-zero loop that complex products use."""
    flat = [complex(0)] * (a.rows * b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            x = a[i, k]
            if x == 0:
                continue
            for c in range(b.cols):
                flat[i * b.cols + c] += x * b[k, c]
    return Matrix(a.rows, b.cols, tuple(flat), a.field)


def test_complex_matmul_unchanged_entry_for_entry():
    field = complex_field(1e-9)
    a = Matrix.from_rows(
        [[complex(-0.0, 0.0), 1.5 - 2j, complex(0.0, -0.0)], [1e-300 + 0j, -3.25j, complex(-1.0, -0.0)]], field
    )
    b = Matrix.from_rows(
        [[0.1 + 0.2j, complex(-0.0, -0.0)], [complex(0.0, -1e-17), 7 - 0j], [-2.5 + 1j, 1e300 + 1e-300j]], field
    )
    for left, right in ((a, b), (b, a)):
        assert [repr(x) for x in (left @ right).entries] == [
            repr(x) for x in _complex_loop_product(left, right).entries
        ]
