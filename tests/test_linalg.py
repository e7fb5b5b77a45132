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
from cmkit import factor_str, poly_str
from cmkit.linalg import RATIONAL, _closure_rank, _rref
from cmkit.weyl import WEYL_ZERO, d_inv, micro, weyl_element
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
    """Reference oracle: the dense accumulate-from-zero loop complex products ran before
    they shared the zero-skipping product loop with rational ones."""
    flat = [complex(0)] * (a.rows * b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            x = a[i, k]
            if x == 0:
                continue
            for c in range(b.cols):
                flat[i * b.cols + c] += x * b[k, c]
    return Matrix(a.rows, b.cols, tuple(flat), a.field)


# Finite parts with |x| <= 1e100, so no product of two entries overflows, plus
# exact and signed zeros; parts of like size make sums that round.
_COMPLEX_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@st.composite
def _complex_operands(draw):
    field = complex_field(1e-9)
    n, m, p = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(complex(0)), st.builds(complex, _COMPLEX_PART, _COMPLEX_PART))

    def operand(rows, cols):
        return Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))), field)

    return operand(n, m), operand(m, p)


@settings(max_examples=300, deadline=None)
@given(_complex_operands())
def test_complex_matmul_unchanged_entry_for_entry(operands):
    """``@`` matches the dense loop repr for repr, signed zeros included.

    Skipping a zero entry of the right operand leaves every sum unchanged
    while all entries are finite.  An overflowed ``inf`` times an exact zero
    is the one case where it would not, and it cannot arise here: the parts
    are bounded by 1e100, and ``serialize`` rejects non-finite input.
    """
    a, b = operands
    assert [repr(x) for x in (a @ b).entries] == [repr(x) for x in _complex_loop_product(a, b).entries]


def _reference_rref(rows, field):
    """Reference oracle: the entry-for-entry Gauss-Jordan loop ``_rref`` ran in both fields
    before rational elimination became fraction-free."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        choice = -1
        if field.is_rational:
            choice = next((r for r in range(pr, nrows) if rows[r][pc] != 0), -1)
        else:
            best = field.tolerance
            for r in range(pr, nrows):
                if abs(rows[r][pc]) > best:
                    best, choice = abs(rows[r][pc]), r
        if choice < 0:
            continue
        if choice != pr:
            rows[pr], rows[choice] = rows[choice], rows[pr]
        prow = rows[pr]
        inv = 1 / prow[pc]
        if inv != 1:
            for c in range(pc, ncols):
                if prow[c] != 0:
                    prow[c] = prow[c] * inv
        prow[pc] = field.one
        nz_cols = [c for c in range(pc + 1, ncols) if prow[c] != 0]
        for r in range(nrows):
            if r == pr:
                continue
            f = rows[r][pc]
            if field.is_zero(f):
                rows[r][pc] = field.zero
                continue
            rr = rows[r]
            for c in nz_cols:
                rr[c] = rr[c] - f * prow[c]
            rr[pc] = field.zero
        pivots.append(pc)
        pr += 1
    return rows, pivots


@st.composite
def _rational_rows(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
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
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):  # rank-deficient: a combination of two other rows
        c = draw(entry)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    if ncols and draw(st.booleans()):
        k = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[k] = Fraction(0)
    return nrows, ncols, rows


@settings(max_examples=300, deadline=None)
@given(_rational_rows())
def test_integer_rref_matches_fraction_gauss_jordan(shaped):
    nrows, ncols, rows = shaped
    expected, expected_pivots = _reference_rref([list(r) for r in rows], RATIONAL)
    got, pivots = _rref([list(r) for r in rows], RATIONAL)
    assert (got, pivots) == (expected, expected_pivots)
    assert all(type(x) is Fraction for row in got for x in row)
    untouched = [list(r) for r in rows]
    assert _rref(untouched, RATIONAL, write_back=False)[1] == expected_pivots and untouched == rows

    a = Matrix(nrows, ncols, tuple(x for row in rows for x in row))
    assert rank(a) == len(expected_pivots)
    assert len(kernel_basis(a)) == ncols - len(expected_pivots)
    if ncols:  # the last column as the right-hand side of the other columns
        a_part = Matrix(nrows, ncols - 1, tuple(x for row in rows for x in row[:-1]))
        sol = solve_affine(a_part, Matrix(nrows, 1, tuple(row[-1] for row in rows)))
        if ncols - 1 in expected_pivots:
            assert sol is None
        else:
            x = [Fraction(0)] * (ncols - 1)
            for k, p in enumerate(expected_pivots):
                x[p] = expected[k][-1]
            assert sol.particular.entries == tuple(x)
    if a.rows == a.cols:
        n = a.rows
        aug, aug_pivots = _reference_rref(
            [list(row) + [Fraction(int(k == i)) for k in range(n)] for i, row in enumerate(rows)], RATIONAL
        )
        if aug_pivots == list(range(n)):
            inv = a.inverse()
            assert inv.entries == tuple(aug[i][n + k] for i in range(n) for k in range(n))
            assert all(type(x) is Fraction for x in inv.entries)
        else:
            with pytest.raises(SingularMatrixError):
                a.inverse()


def test_complex_rref_unchanged_entry_for_entry():
    field = complex_field(1e-9)
    rows = [
        [complex(-0.0, 0.0), 1.5 - 2j, complex(0.0, -0.0), 1e-12 + 0j, 0.3 + 0.1j],
        [1e-300 + 0j, -3.25j, complex(-1.0, -0.0), 2 + 0j, complex(-0.0, 1.0)],
        [0.1 + 0.2j, complex(0.0, -1e-17), 7 - 0j, -2.5 + 1j, 1e3 + 1e-300j],
        [0.2 + 0.4j, complex(0.0, -2e-17), 14 - 0j, -5 + 2j, 2e3 + 2e-300j],
    ]
    for block in (rows, [r[:3] for r in rows], [list(r) for r in zip(*rows)]):
        expected = _reference_rref([list(r) for r in block], field)
        got = _rref([list(r) for r in block], field)
        assert repr(got) == repr(expected)



@st.composite
def _closure_inputs(draw):
    """Seeds (n x r) and 1-2 operators, n <= 4 and r <= 3: scalar, nilpotent, sparse or dense."""
    field = draw(st.sampled_from([RATIONAL, complex_field()]))
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), nonzero)

    def square(kind):
        if kind == "scalar":
            c = draw(nonzero)
            return [[c if a == b else 0 for b in range(n)] for a in range(n)]
        entry = sparse if kind == "sparse" else nonzero
        return [[draw(entry) if kind != "nilpotent" or b > a else 0 for b in range(n)] for a in range(n)]

    kinds = draw(st.lists(st.sampled_from(["scalar", "nilpotent", "sparse", "dense"]), min_size=1, max_size=2))
    ops = [Matrix.from_rows(square(kind), field) for kind in kinds]
    seed_entry = draw(st.sampled_from([sparse, nonzero]))
    seeds = Matrix.from_rows([[draw(seed_entry) for _ in range(r)] for _ in range(n)], field)
    return seeds, ops


@settings(max_examples=300, deadline=None)
@given(_closure_inputs())
def test_closure_rank_is_rank_of_word_matrix(inputs):
    seeds, ops = inputs
    n = seeds.rows
    # [w(ops) @ seeds for every word w of length < n]: the invariant span is
    # reached within n - 1 letters, since each letter must raise its dimension.
    words, level = [Matrix.identity(n, seeds.field)], [Matrix.identity(n, seeds.field)]
    for _ in range(n - 1):
        level = [op @ w for w in level for op in ops]
        words += level
    word_matrix = words[0] @ seeds
    for w in words[1:]:
        word_matrix = word_matrix.hstack(w @ seeds)
    assert _closure_rank(seeds, ops) == rank(word_matrix)


# Strings printed by the four monomial formatters before they shared
# linalg.format_terms, recorded on that code.
_F = Fraction
PRINTED = [
    (str, weyl_element({(2, 1): 1, (0, 1): -1, (1, 0): _F(3, 2), (0, 0): -5}), "x^2∂ - ∂ + 3/2·x - 5"),
    (str, weyl_element({(1, 2): _F(-2, 3), (3, 0): -1, (0, 3): 1}), "∂^3 - 2/3·x∂^2 - x^3"),
    (str, weyl_element({(0, 0): 7}), "7"),
    (str, weyl_element({(0, 0): -1}), "-1"),
    (str, weyl_element({(0, 0): _F(1, 2), (1, 1): 1}), "x∂ + 1/2"),
    (str, WEYL_ZERO, "0"),
    (str, micro({(0, -2): 1, (1, -1): -1, (0, 1): _F(1, 2)}), "1/2·∂ - x∂^-1 + ∂^-2"),
    (str, micro({(1, 0): 1, (0, -1): 2}, floor=-3), "x + 2·∂^-1 + O(∂^-4)"),
    (str, micro({(2, -1): _F(-3, 4), (0, 0): -1}, floor=-1), "-1 - 3/4·x^2∂^-1 + O(∂^-2)"),
    (str, micro({}, floor=2), "0 + O(∂^1)"),
    (str, micro({}), "0"),
    (str, d_inv(3, -1), "-∂^-3"),
    (poly_str, {(1, 0): complex(1, 0), (0, 1): complex(-1, 0)}, "x - y"),
    (poly_str, {(0, 0): complex(1, 0), (2, 0): complex(2, 3), (1, 1): complex(-2, 0), (0, 2): complex(0, -1)},
     "(1+0j) + (2+3j)x^2 + (-2+0j)xy - 1jy^2"),
    (poly_str, {(0, 0): complex(-1, 0), (1, 0): complex(0.5, -0.25)}, "(-1+0j) + (0.5-0.25j)x"),
    (poly_str, {(1, 0): _F(-1, 2), (0, 3): 1, (0, 0): _F(-1), (2, 1): -1}, "-1 - 1/2x - x^2y + y^3"),
    (poly_str, {}, "0"),
    (factor_str, (_F(-2), _F(0), _F(1)), "x^2 - 2"),
    (factor_str, (_F(0), _F(0), _F(0), _F(1)), "x^3"),
    (factor_str, (_F(1, 2), _F(0), _F(-1), _F(1)), "x^3 - x^2 + 1/2"),
    (factor_str, (_F(0), _F(-1), _F(0)), "-x"),
    (factor_str, (_F(0),), "0"),
    (factor_str, (_F(3), _F(0), _F(0), _F(-5, 7)), "-5/7x^3 + 3"),
]


@pytest.mark.parametrize("printer, value, expected", PRINTED,
                         ids=[f"{printer.__name__}-{k}" for k, (printer, _, _) in enumerate(PRINTED)])
def test_printed_strings(printer, value, expected):
    assert printer(value) == expected
