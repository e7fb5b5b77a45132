from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

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
from cmkit.linalg import _CANCELLED, RATIONAL, _closure_rank, _integer_rref, _numerators, _rows, _rref, unvec
from cmkit.weyl import WEYL_ZERO, d_inv, micro, weyl_element
from conftest import rand_invertible, rand_matrix


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


def test_float_mode_inverse_of_a_large_scalar_keeps_its_small_entries():
    # 1e-10 is below the tolerance, but it is a quotient, not round-off
    field = complex_field(1e-9)
    a = 1e10 * Matrix.identity(2, field)
    assert a.inverse() == 1e-10 * Matrix.identity(2, field)


def test_float_mode_row_update_stores_a_cancellation_as_zero():
    # row 1 minus 0.1 times row 0 cancels in column 1 only to round-off, 0.3 - 0.1 * 3 = -5.6e-17
    field = complex_field(1e-9)
    rows, pivots = _rref(_rows(Matrix.from_rows([[1, 3, 1], [0.1, 0.3, 2]], field)), field)
    assert pivots == [0, 2]
    assert rows[1][1] == 0 and rows[0][1] == 3


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


# Entries of one operand: all zero, signed integers, or zeros and signed fractions over _DENOMINATORS.
_RATIONAL_ENTRIES = {
    "zero": st.just(Fraction(0)),
    "integer": st.integers(-(10**12), 10**12).map(Fraction),
    "mixed": st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-(2**70), 2**70), st.sampled_from(_DENOMINATORS)),
    ),
}


@st.composite
def _rational_operands(draw):
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    entry = _RATIONAL_ENTRIES[draw(st.sampled_from(sorted(_RATIONAL_ENTRIES)))]

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


def _entrywise_product(a: list, b: list, n: int, m: int, p: int) -> list:
    """Reference oracle: the n x p product of row-major Fraction lists, entry by entry."""
    return [sum((a[i * m + k] * b[k * p + c] for k in range(m)), Fraction(0)) for i in range(n) for c in range(p)]


@st.composite
def _rational_chains(draw, square=False):
    """Three to five rational operands of chained shapes (0 to 4, so 0 x k and k x 0 occur), each
    with its own kind of entries; ``square`` gives them all one shape n x n."""
    count = draw(st.integers(3, 5))
    if square:
        dims = [draw(st.integers(0, 4))] * (count + 1)
    else:
        dims = draw(st.lists(st.integers(0, 4), min_size=count + 1, max_size=count + 1))
    operands = []
    for rows, cols in zip(dims, dims[1:]):
        entry = _RATIONAL_ENTRIES[draw(st.sampled_from(sorted(_RATIONAL_ENTRIES)))]
        operands.append(Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))))
    return operands


@settings(max_examples=200, deadline=None)
@given(_rational_chains())
def test_rational_product_chains_keep_their_integer_form(operands):
    """Each product of a chain of two to four is the entrywise Fraction product, and the
    integer form it is made from is exactly ``_numerators`` of those entries."""
    product, expected = operands[0], list(operands[0].entries)
    for b in operands[1:]:
        n, m, p = product.rows, product.cols, b.cols
        product, expected = product @ b, _entrywise_product(expected, list(b.entries), n, m, p)
        assert product._entries is None
        nums, d = product._integer_form()
        assert product.entries == tuple(expected)
        assert all(type(x) is Fraction for x in product.entries)
        assert (nums, d) == _numerators(product.entries)
        assert type(nums) is list and all(type(v) is int for v in nums) and type(d) is int
    left = operands[0]
    for b in operands[1:]:
        left = left @ b
    right = operands[-1]
    for a in reversed(operands[:-1]):
        right = a @ right
    assert left._integer_form() == right._integer_form() and left == right


@settings(max_examples=100, deadline=None)
@given(_rational_chains(square=True))
def test_trace_of_unbuilt_product_equals_trace_of_its_entries(operands):
    product = operands[0]
    for b in operands[1:]:
        product = product @ b
    assert product._entries is None
    lazy = product.trace()
    assert product._entries is None
    built = sum(product.entries[:: product.rows + 1], Fraction(0))
    assert type(lazy) is Fraction and lazy == built == product.trace()


def _reference_numerators(entries: tuple) -> tuple[list[int], int]:
    """Reference oracle: numerators over the lcm of every entry's denominator, zeros' denominators 1 included."""
    d = lcm(*[x.denominator for x in entries])
    return [x.numerator * (d // x.denominator) for x in entries], d


# Entries that are mostly zero, in each type a rational entry can have: six branches of zeros, four of nonzeros.
_ZERO_HEAVY = st.one_of(
    *[st.just(zero) for zero in (0, Fraction(0), False)] * 2,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.sampled_from(_DENOMINATORS)),
    st.fractions(max_denominator=30),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ZERO_HEAVY, max_size=40))
@example([])
@example([0] * 12)
@example([Fraction(0), False, 0, Fraction(0)])
@example([0, Fraction(0), Fraction(5, 6), False, True, 0, Fraction(-7, 4)])
@example([Fraction(3, 2**61 - 1), 0, Fraction(-1, 3**40), -2, Fraction(5, 10**18 + 9)])
def test_numerators_skip_zeros_and_match_the_lcm_of_every_denominator(entries):
    """``_numerators`` reads the nonzeros alone; its form is still the one over the lcm of all denominators,
    v_k / d the k-th entry with an int 0 for every zero, in a new list whether the row is a list or a tuple,
    and a rational Matrix of the same entries has that form."""
    expected = _reference_numerators(entries)
    got = _numerators(entries)
    assert got == expected == _numerators(tuple(entries))
    nums, d = got
    assert all(type(v) is int for v in nums) and type(d) is int
    assert [Fraction(v, d) for v in nums] == [Fraction(x) for x in entries]
    assert type(nums) is list and nums is not entries
    assert Matrix(1, len(entries), tuple(entries))._integer_form() == expected


# Entries whose forms are over d = 1 (ints), zeros of both types, negatives, and large numerators over small or
# large denominators.
_PRINTED_ENTRIES = [
    st.one_of(st.just(0), st.integers(-(2**90), 2**90)),
    st.one_of(
        st.just(0),
        st.just(Fraction(0)),
        st.integers(-20, 20),
        st.builds(Fraction, st.integers(-(2**90), 2**90), st.sampled_from(_DENOMINATORS)),
        st.fractions(max_denominator=12),
    ),
]


@st.composite
def _printed_matrices(draw):
    rows, cols, entry = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.sampled_from(_PRINTED_ENTRIES))
    return Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))))


@settings(max_examples=300, deadline=None)
@given(_printed_matrices())
@example(Matrix(2, 2, (0, -3, 2**90, Fraction(0))))
def test_rational_strings_print_each_entry_as_str_of_its_fraction(a):
    """``Matrix.rational_strings`` prints every entry as ``str(Fraction)`` does, over d = 1 and over d > 1, for a
    matrix made from entries, its negation and its product with its transpose (forms that were never
    entries)."""
    for m in (a, -a, a @ a.transpose()):
        strings = m.rational_strings()
        assert strings == [[str(Fraction(x)) for x in m.row(i)] for i in range(m.rows)]
        assert all(type(s) is str for row in strings for s in row)


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


@st.composite
def _complex_arithmetic_operands(draw):
    """Two complex r x c matrices a and b, an r x c2 matrix e, a scalar c and row-major indices into a."""
    field = complex_field(1e-9)
    rows, cols, wide = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.builds(complex, _COMPLEX_PART, _COMPLEX_PART)

    def operand(c):
        return Matrix(rows, c, tuple(draw(st.lists(entry, min_size=rows * c, max_size=rows * c))), field)

    a, b, e = operand(cols), operand(cols), operand(wide)
    at = draw(st.lists(st.integers(0, rows * cols - 1), max_size=6)) if rows * cols else []
    return a, b, e, draw(entry), at


_SIGNED_ZERO_ENTRIES = (complex(-0.0, -1.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-2.5, -0.0))


@settings(max_examples=300, deadline=None)
@given(_complex_arithmetic_operands())
@example((Matrix(2, 2, _SIGNED_ZERO_ENTRIES, complex_field(1e-9)), Matrix(2, 2, _SIGNED_ZERO_ENTRIES[::-1],
          complex_field(1e-9)), Matrix(2, 1, (complex(-0.0, -0.0), 1j), complex_field(1e-9)), complex(-0.0, 1.0),
          [3, 0, 0]))
def test_complex_arithmetic_unchanged_entry_for_entry(operands):
    """``+``, ``-``, negation, scalar ``*``, ``transpose``, ``gather``, ``hstack`` and ``_rows`` match plain-Python
    entrywise arithmetic repr for repr, signed zeros included, and equal entries give equal matrices and hashes.

    The scalar product is checked as ``c * x``, the order the entries were multiplied in before a complex matrix
    was its entries over 1; complex multiplication commutes in IEEE arithmetic, so ``x * c`` gives the same bits.
    """
    a, b, e, c, at = operands
    field, rows, cols = a.field, a.rows, a.cols
    x, y = a.entries, b.entries
    expected = {
        "a + b": (a + b, [p + q for p, q in zip(x, y)]),
        "a - b": (a - b, [p - q for p, q in zip(x, y)]),
        "-a": (-a, [-p for p in x]),
        "c * a": (c * a, [c * p for p in x]),
        "transpose": (a.transpose(), [x[i * cols + k] for k in range(cols) for i in range(rows)]),
        "gather": (a.gather(1, len(at), at), [x[t] for t in at]),
        "hstack": (a.hstack(e), [v for i in range(rows) for v in a.row(i) + e.row(i)]),
    }
    for name, (got, want) in expected.items():
        assert [repr(v) for v in got.entries] == [repr(v) for v in want], name
        built = Matrix(got.rows, got.cols, tuple(want), field)
        assert got == built and hash(got) == hash(built), name
    assert [[repr(v) for v in row] for row in _rows(a, e)] == \
        [[repr(v) for v in a.row(i) + e.row(i)] for i in range(rows)]
    twin = Matrix(rows, cols, tuple(x), field)
    assert twin == a and hash(twin) == hash(a)


def _reference_rref(rows, field):
    """Reference oracle: the entry-for-entry Gauss-Jordan loop ``_rref`` ran in both fields
    before rational elimination became fraction-free, with the complex row update
    storing a result that cancelled to within ``_CANCELLED`` of the term it subtracts as 0."""
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
                x = rr[c] - f * prow[c]
                cancelled = not field.is_rational and abs(x) <= abs(f) * (_CANCELLED * abs(prow[c]))
                rr[c] = 0j if cancelled else x
            rr[pc] = field.zero
        pivots.append(pc)
        pr += 1
    return rows, pivots


# Shapes the back pass of ``_integer_rref`` treats apart, as integer rows: a pivot row that holds no later
# pivot column (it is finished as it stands), finished rows with negative pivots, pivots all 1 (lcm 1), a
# wide dense 4 x 28 system like the Hilbert-ideal rows, and a rank-deficient dense 5 x 5 system (the last two
# rows are r0 + 2 r1 and r2 - 3 r0).
_NO_LATER_PIVOT = [[2, 0, 0, 4, 1], [0, 3, 1, 0, -1], [0, 0, 2, 1, 1]]
_NEGATIVE_PIVOTS = [[1, 1, 1, 2], [0, -2, 1, 0], [0, 0, -3, 5]]
_UNIT_PIVOTS = [[1, 2, 3, 4], [0, 1, 5, 6], [0, 0, 1, 7]]
_WIDE_DENSE = [[((k + 2) * (c + 3) ** 2 + 5 * k * c) % 17 - 8 for c in range(28)] for k in range(4)]
_RANK_DEFICIENT = [[3, -1, 4, 1, -5], [2, 7, -1, 8, 2], [-6, 1, 5, 3, 4], [7, 13, 2, 17, -1], [-15, 4, -7, 0, 19]]


def _fraction_shape(rows):
    """An example for ``_rational_rows``: the integer rows with row k divided by 1 + k % 3."""
    return len(rows), len(rows[0]), [[Fraction(x, 1 + k % 3) for x in row] for k, row in enumerate(rows)]


def _order_shape(rows):
    """An example for ``_integer_rows_and_order``: the rows, their reverse order, and a zero row inserted second."""
    return rows, list(range(len(rows)))[::-1], [rows[0], [0] * len(rows[0]), *rows[1:]]


@st.composite
def _rational_rows(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = _RATIONAL_ENTRIES[draw(st.sampled_from(sorted(_RATIONAL_ENTRIES)))]
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
@example(_fraction_shape(_NO_LATER_PIVOT))
@example(_fraction_shape(_NEGATIVE_PIVOTS))
@example(_fraction_shape(_UNIT_PIVOTS))
@example(_fraction_shape(_WIDE_DENSE))
@example(_fraction_shape(_RANK_DEFICIENT))
def test_integer_rref_matches_fraction_gauss_jordan(shaped):
    """Pivot row k of the integer RREF is a primitive integer multiple of row k of the
    Fraction RREF, the rows after the pivot rows are zero, and the answers read from
    them are the ones the Fraction RREF gives; no cached integer form is mutated."""
    nrows, ncols, rows = shaped
    expected, expected_pivots = _reference_rref([list(r) for r in rows], RATIONAL)
    a = Matrix(nrows, ncols, tuple(x for row in rows for x in row))
    got, pivots = _rref(_rows(a), RATIONAL)
    assert pivots == expected_pivots and len(got) == nrows
    for k, row in enumerate(got):
        assert all(type(x) is int for x in row)
        if k < len(pivots):
            assert gcd(*row) == 1 and [Fraction(x, row[pivots[k]]) for x in row] == expected[k]
        else:
            assert not any(row) and not any(expected[k])

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
    assert a._integer_form() == _numerators(a.entries)


@st.composite
def _integer_rows_and_order(draw):
    """Integer rows, n x k for n, k <= 6 (0 x k and n x 0 too), with a zero row, a repeated row (possibly
    negated) or rank 0 drawn in; a permutation of the rows; and the rows with up to three all-zero rows of
    length k inserted anywhere, so a 0 x k system can become an all-zero one."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    kind = draw(st.sampled_from(["drawn", "zero-row", "repeated", "rank-0"]))
    if kind == "zero-row" and nrows:
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    elif kind == "repeated" and nrows >= 2:
        source, target = draw(st.permutations(range(nrows)))[:2]
        rows[target] = [draw(st.sampled_from([1, -1, 3])) * x for x in rows[source]]
    elif kind == "rank-0":
        rows = [[0] * ncols for _ in range(nrows)]
    padded = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        padded.insert(draw(st.integers(0, len(padded))), [0] * ncols)
    return rows, draw(st.permutations(range(nrows))), padded


@settings(max_examples=300, deadline=None)
@given(_integer_rows_and_order())
@example(([], [], []))
@example(([], [], [[0, 0], [0, 0]]))
@example(([[], [], []], [2, 0, 1], [[], [], [], []]))
@example(([[0, 0, 0], [0, 0, 0]], [1, 0], [[0, 0, 0]] * 4))
@example(([[2, 4, 6], [1, 2, 3], [-1, -2, -3], [0, 1, 0]], [3, 1, 0, 2],
          [[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 0], [-1, -2, -3], [0, 1, 0], [0, 0, 0]]))
@example(_order_shape(_NO_LATER_PIVOT))
@example(_order_shape(_NEGATIVE_PIVOTS))
@example(_order_shape(_UNIT_PIVOTS))
@example(_order_shape(_WIDE_DENSE))
@example(_order_shape(_RANK_DEFICIENT))
def test_integer_rref_does_not_depend_on_the_row_order(shaped):
    """The RREF is unique, so the rows as drawn, reversed, permuted, or with all-zero rows inserted anywhere
    give the same pivot list and the same primitive pivot rows up to sign; each list keeps its length, and
    every row after the pivot rows is zero.  This is what lets ``_integer_rref`` take every system last
    equation first and set its zero rows aside."""
    rows, order, padded = shaped
    reduced = [list(row) for row in rows]
    pivots = _integer_rref(reduced)
    for variant in (rows, reversed(rows), [rows[k] for k in order], padded):
        permuted = [list(row) for row in variant]
        size = len(permuted)
        assert _integer_rref(permuted) == pivots and len(permuted) == size
        for got, want in zip(permuted, reduced[: len(pivots)]):
            assert got == want or got == [-x for x in want]
        assert not any(map(any, permuted[len(pivots) :]))


def _parent_echelon(ints: list[list[int]]) -> list[int]:
    """Reference oracle: ``linalg._echelon`` as it was when its content pass took ``gcd`` over whole rows and
    divided every entry; it calls ``linalg._clear`` through the module, so a patched ``_clear`` records it too."""
    from cmkit import linalg

    ncols = len(ints[0]) if ints else 0
    nonzero, zero = [], []
    for row in reversed(ints):
        g = gcd(*row)
        (nonzero if g else zero).append([x // g if x else 0 for x in row] if g > 1 else row)
    ints[:] = nonzero + zero
    nrows = len(nonzero)
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        hits = [r for r in range(pr, nrows) if ints[r][pc]]
        if not hits:
            continue
        choice = hits[0]
        ints[pr], ints[choice] = ints[choice], ints[pr]
        if len(hits) > 1:
            linalg._clear(ints, pr, pc, hits[1:])
        pivots.append(pc)
    return pivots


@st.composite
def _sparse_integer_rows(draw):
    """Mostly-zero integer rows, n x k for n, k <= 8 (0 x k and n x 0 too); each row is drawn as it is, times a
    content factor from 2 to 30, or all zero."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))
    rows = []
    for _ in range(nrows):
        row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        shape = draw(st.sampled_from(["drawn", "content", "zero"]))
        if shape == "content":
            factor = draw(st.integers(2, 30))
            row = [factor * x for x in row]
        elif shape == "zero":
            row = [0] * ncols
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(_sparse_integer_rows())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 6, 0, -4], [0, 0, 0, 0], [3, 0, 0, 9], [0, 5, 0, 0], [0, 10, 0, 0]])
def test_echelon_matches_the_whole_row_content_pass(rows):
    """``linalg._echelon``, whose content pass reads only the nonzero entries of each row, leaves the same rows
    and pivots as the whole-row content pass before it, and hands ``_clear`` the same row steps."""
    from cmkit import linalg

    clear = linalg._clear
    runs = []
    for echelon in (linalg._echelon, _parent_echelon):
        steps = []

        def recording(ints, pr, pc, targets):
            steps.append((pr, pc, list(targets)))
            clear(ints, pr, pc, targets)

        ints = [list(row) for row in rows]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_clear", recording)
            pivots = echelon(ints)
        runs.append((ints, pivots, steps))
    assert runs[0] == runs[1]
    assert all(type(x) is int for row in runs[0][0] for x in row)


@settings(max_examples=200, deadline=None)
@given(_rational_rows())
def test_solve_affine_hands_the_integer_rows_of_its_matrices_to_the_solver_as_they_are(shaped):
    """The rows ``_rows`` makes from the forms of A and b are integer already, so ``solve_affine`` runs
    ``_numerators`` zero times once the forms are made, and answers as ``_solve_rows`` does on the same rows
    with Fractions, each made integer over its own lcm."""
    from cmkit import linalg

    nrows, ncols, rows = shaped
    if not ncols:
        return
    a = Matrix(nrows, ncols - 1, tuple(x for row in rows for x in row[:-1]))
    b = Matrix(nrows, 1, tuple(row[-1] for row in rows))
    for m in (a, b):
        m._integer_form()  # a Matrix makes its form with _numerators once, before the count starts
    expected = linalg._solve_rows([_numerators(row)[0] for row in rows], ncols - 1, RATIONAL)
    calls = []
    numerators = linalg._numerators
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_numerators", lambda entries: calls.append(len(entries)) or numerators(entries))
        got = solve_affine(a, b)
    assert calls == []
    assert got == expected
    if got is not None:
        assert got.particular.entries == expected.particular.entries


def _real_sheaves(rng):
    """("fiber", sheaf) for n = 2-6: a conjugated point (g X g^-1, g i), r = 1 + n % 2 (a second framing
    column is random), whose CM fiber is nonempty, and a conjugated collision with r = 1, whose fiber is empty;
    ("End", sheaf) for n <= 5: the same collision with a random framing of r columns, and X = 5/3 I with two."""
    from cmkit import FramedTorsionSheaf, sample_cm

    sheaves = []
    for n in range(2, 7):
        g, q, r = rand_invertible(rng, n), sample_cm(n, n), 1 + n % 2
        collision = g @ Matrix.from_rows([[k // 2 if k == c else 0 for c in range(n)] for k in range(n)]) @ g.inverse()
        i = g @ q.i if r == 1 else (g @ q.i).hstack(rand_matrix(rng, n, 1))
        sheaves += [("fiber", FramedTorsionSheaf(g @ q.X @ g.inverse(), i)),
                    ("fiber", FramedTorsionSheaf(collision, g @ q.i))]
        if n <= 5:
            sheaves += [("End", FramedTorsionSheaf(collision, rand_matrix(rng, n, r))),
                        ("End", FramedTorsionSheaf(Fraction(5, 3) * Matrix.identity(n), rand_matrix(rng, n, 2)))]
    return sheaves


def _real_systems(rng):
    """The fiber rows [A | -vec(I)] of the "fiber" sheaves of :func:`_real_sheaves` and the integer End rows of
    the "End" ones, as matrices."""
    from cmkit.koszul import _fiber_system
    from cmkit.moduli import _end_rows

    systems = []
    for kind, fs in _real_sheaves(rng):
        if kind == "End":
            systems.append(Matrix.from_rows(_end_rows(fs)))
        else:
            systems.append(Matrix.from_rows(_fiber_system(fs.X, fs.i)))
    return systems


def test_integer_rref_matches_fraction_gauss_jordan_on_real_systems():
    """The checks of the hypothesis test above, on the fiber, End and inverse systems the
    package solves, which are larger and sparser than its strategy draws."""
    rng = random.Random(23)
    g = rand_matrix(rng, 8, 8)
    feasible = []
    for a in _real_systems(rng) + [g.hstack(Matrix.identity(8))]:
        rows = [list(a.row(k)) for k in range(a.rows)]
        expected, expected_pivots = _reference_rref([list(r) for r in rows], RATIONAL)
        got, pivots = _rref(_rows(a), RATIONAL)
        assert pivots == expected_pivots and len(got) == a.rows
        for k, row in enumerate(got):
            assert all(type(x) is int for x in row)
            if k < len(pivots):
                assert gcd(*row) == 1 and [Fraction(x, row[pivots[k]]) for x in row] == expected[k]
            else:
                assert not any(row) and not any(expected[k])
        assert rank(a) == len(expected_pivots)
        assert len(kernel_basis(a)) == a.cols - len(expected_pivots)
        sol = solve_affine(a._columns(range(a.cols - 1)), a._columns([a.cols - 1]))
        feasible.append(sol is not None)
        if a.cols - 1 in expected_pivots:
            assert sol is None
        else:
            x = [Fraction(0)] * (a.cols - 1)
            for k, p in enumerate(expected_pivots):
                x[p] = expected[k][-1]
            assert sol.particular.entries == tuple(x)
        assert a._integer_form() == _numerators(a.entries)
    assert any(feasible) and not all(feasible)
    assert expected_pivots[:8] == list(range(8))  # [g | I], the last system
    assert g.inverse().entries == tuple(expected[i][8 + k] for i in range(8) for k in range(8))


def _assert_answer(m: Matrix) -> None:
    """Entries in lowest terms, each a Fraction; the integer form of the matrix is ``_numerators`` of them."""
    assert all(type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
               for x in m.entries)
    assert m._integer_form() == _numerators(m.entries)


def test_pivot_readers_run_no_back_pass(monkeypatch):
    """``rank``, the trace-form rank of ``is_indecomposable`` and ``cm_support_check`` read the pivot columns
    alone, so they run the forward pass only (``linalg._pivots``) and never ``linalg._back_substitute``; their
    answers are the ones the full elimination gives, on the systems and sheaves of ``_real_systems``."""
    from cmkit import linalg, moduli

    systems = _real_systems(random.Random(23))
    sheaves = [(fs, moduli._end_block(fs), moduli.support(fs)) for _, fs in _real_sheaves(random.Random(23))]

    def answers():
        return ([rank(a) for a in systems],
                [(moduli.cm_support_check(fs, block), moduli.is_indecomposable(fs, factors, block))
                 for fs, block, factors in sheaves])

    calls = []
    back = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute", lambda ints, pivots: calls.append(len(pivots)) or back(ints, pivots))
    with monkeypatch.context() as full:
        for owner in (linalg, moduli):
            full.setattr(owner, "_pivots", lambda rows, field: linalg._rref(rows, field)[1])
        expected = answers()
    assert len(calls) == len(systems) + 2 * len(sheaves)
    calls.clear()
    assert answers() == expected and calls == []
    assert {report.in_support for report, _ in expected[1]} == {True, False}


# Row steps of the guard below, counted as the rows below each pivot row with a nonzero in its column, before
# ``linalg._echelon`` scanned each column once and handed ``linalg._clear`` only those rows.
_GUARD_ROW_STEPS = 4059


def test_rational_elimination_clears_only_rows_below_the_pivot(monkeypatch):
    """A guard on the shape of the work: every row step of ``linalg._clear`` comes from the forward pass and
    clears rows below its pivot row, so no full-row back step remains; the back pass runs once per elimination.
    ``_clear`` is handed exactly the rows below the pivot row that hold a nonzero in the pivot column, never an
    empty list, and the row steps are as many as before the forward pass scanned each column once."""
    from cmkit import linalg

    shapes = [_NO_LATER_PIVOT, _NEGATIVE_PIVOTS, _UNIT_PIVOTS, _WIDE_DENSE, _RANK_DEFICIENT]
    systems = _real_systems(random.Random(23)) + [Matrix.from_rows(rows) for rows in shapes]
    square = rand_matrix(random.Random(8), 8, 8)
    steps, backs = [], []
    clear, back = linalg._clear, linalg._back_substitute

    def recording(ints, pr, pc, targets):
        assert targets and all(ints[k][pc] for k in targets)
        assert set(targets) >= {k for k in range(pr + 1, len(ints)) if ints[k][pc]}
        steps.append((pr, targets))
        clear(ints, pr, pc, targets)

    monkeypatch.setattr(linalg, "_clear", recording)
    monkeypatch.setattr(linalg, "_back_substitute", lambda ints, pivots: backs.append(len(pivots)) or back(ints, pivots))
    for a in systems:
        solve_affine(a._columns(range(a.cols - 1)), a._columns([a.cols - 1]))
        kernel_basis(a)
    square.inverse()
    assert steps and len(backs) == 2 * len(systems) + 1
    assert all(k > pr for pr, targets in steps for k in targets)
    assert sum(len(targets) for _, targets in steps) == _GUARD_ROW_STEPS


@settings(max_examples=200, deadline=None)
@given(_rational_rows())
def test_answers_read_from_integer_rows_are_fractions_in_lowest_terms(shaped):
    nrows, ncols, rows = shaped
    a = Matrix(nrows, ncols, tuple(x for row in rows for x in row))
    kern = kernel_basis(a)
    for v in kern:
        _assert_answer(v)
        assert (a @ v).is_zero()
    if kern:
        _assert_answer(Matrix.hstack(*kern))
    if ncols:
        b = Matrix(nrows, 1, tuple(row[-1] for row in rows))
        sol = solve_affine(a, b)  # the last column of a is b, so (0, ..., 0, 1) solves it
        _assert_answer(sol.particular)
        assert a @ sol.particular == b
    if nrows == ncols:
        try:
            inv = a.inverse()
        except SingularMatrixError:
            return
        _assert_answer(inv)
        assert a @ inv == Matrix.identity(nrows)


def _reference_char_poly(a: Matrix) -> list[Fraction]:
    """Reference oracle: Faddeev-LeVerrier on Fraction entries, M = AM + cI entrywise."""
    n = a.rows
    rows = a.to_rows()
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum((rows[i][t] * m[t][c] for t in range(n)), Fraction(0)) for c in range(n)] for i in range(n)]
        c = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.sampled_from(sorted(_RATIONAL_ENTRIES)), st.data())
def test_char_poly_on_integer_form_matches_fraction_faddeev_leverrier(n, kind, data):
    from cmkit import linalg

    entries = data.draw(st.lists(_RATIONAL_ENTRIES[kind], min_size=n * n, max_size=n * n))
    a = Matrix(n, n, tuple(entries))
    calls = []

    def counted(*args):
        calls.append(args[2:5])
        return product(*args)

    product = linalg._product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_product", counted)
        got = char_poly(a)
    # the last step reads c_0 = -tr(A M_(n-1)) / n off the integer lists, so no product of A M_(n-1) is formed
    assert calls == [(n, n, n)] * max(n - 1, 0)
    assert got == _reference_char_poly(a) and all(type(c) is Fraction for c in got)


def test_rational_char_poly_makes_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the rational char_poly multiplies Matrix objects")

    a = rand_matrix(random.Random(545), 6, 6)
    expected = _reference_char_poly(a)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert char_poly(a) == expected


# -- the integer form is the matrix: every operation against Fraction arithmetic on entries --


@st.composite
def _form_operand(draw, rows, cols):
    """A rows x cols rational matrix and its entries, with entries of one kind from _RATIONAL_ENTRIES.

    It is made from its entries (read), from (p, q) pairs scaled out of
    lowest terms by a common or an entrywise factor (unread), or from pairs
    and then read."""
    entry = _RATIONAL_ENTRIES[draw(st.sampled_from(sorted(_RATIONAL_ENTRIES)))]
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    how = draw(st.sampled_from(["entries", "pairs", "pairs-read"]))
    if how == "entries":
        return Matrix(rows, cols, tuple(entries)), entries
    scales = draw(st.lists(st.sampled_from([1, -1, 2, -6, 35]), min_size=rows * cols, max_size=rows * cols))
    m = Matrix.from_pairs(rows, cols, [(x.numerator * k, x.denominator * k) for x, k in zip(entries, scales)])
    assert m._entries is None
    if how == "pairs-read":
        m.entries
    return m, entries


def _assert_form(m: Matrix, rows: int, cols: int, expected) -> None:
    """``m`` is the rows x cols matrix of ``expected``, with Fraction entries and the canonical form of them."""
    assert (m.rows, m.cols) == (rows, cols) and m.entries == tuple(expected)
    _assert_answer(m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_integer_form_operations_match_fraction_arithmetic(rows, cols, data):
    (a, ea), (b, eb) = data.draw(_form_operand(rows, cols)), data.draw(_form_operand(rows, cols))
    c = data.draw(st.one_of(st.integers(-3, 3), _RATIONAL_ENTRIES["mixed"]))
    _assert_form(a + b, rows, cols, [x + y for x, y in zip(ea, eb)])
    _assert_form(a - b, rows, cols, [x - y for x, y in zip(ea, eb)])
    _assert_form(-a, rows, cols, [-x for x in ea])
    _assert_form(c * a, rows, cols, [c * x for x in ea])
    _assert_form(a.transpose(), cols, rows, [ea[i * cols + k] for k in range(cols) for i in range(rows)])
    assert a.is_zero() == (not any(ea)) and (a - a).is_zero()
    same = Matrix(rows, cols, tuple(ea))
    assert a == same and hash(a) == hash(same) and (a == b) == (ea == eb)
    assert a != Matrix(rows, cols, tuple(complex(x) for x in ea), complex_field())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.data())
def test_unvec_of_an_integer_form_matches_its_entries(n, fr, fc, data):
    v, ev = data.draw(_form_operand(n * n + fr * fc, 1))
    square, framing = unvec(v, n, fr, fc)
    _assert_form(square, n, n, [ev[col * n + row] for row in range(n) for col in range(n)])
    _assert_form(framing, fr, fc, ev[n * n:])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_solver_answers_match_fraction_gauss_jordan(rows, cols, data):
    """kernel_basis, solve_affine and inverse of read and unread operands, against the
    Fraction RREF of their entries; each answer is an unread canonical integer form."""
    a, ea = data.draw(_form_operand(rows, cols))
    b, eb = data.draw(_form_operand(rows, 1))
    ref, pivots = _reference_rref([ea[i * cols:(i + 1) * cols] + [eb[i]] for i in range(rows)], RATIONAL)
    kern = kernel_basis(a)
    free = [f for f in range(cols) if f not in pivots]
    assert len(kern) == len(free)
    for f, v in zip(free, kern):
        assert v._entries is None
        expected = [Fraction(0)] * cols
        expected[f] = Fraction(1)
        for k, p in enumerate(pivots):
            if p < cols:
                expected[p] = -ref[k][f]
        _assert_form(v, cols, 1, expected)
    sol = solve_affine(a, b)
    if cols in pivots:
        assert sol is None
    else:
        assert sol.particular._entries is None
        x = [Fraction(0)] * cols
        for k, p in enumerate(pivots):
            x[p] = ref[k][cols]
        _assert_form(sol.particular, cols, 1, x)
    if rows == cols:
        aug, aug_pivots = _reference_rref(
            [ea[i * cols:(i + 1) * cols] + [Fraction(int(k == i)) for k in range(rows)] for i in range(rows)], RATIONAL)
        if aug_pivots != list(range(rows)):
            with pytest.raises(SingularMatrixError):
                a.inverse()
        else:
            inv = a.inverse()
            assert inv._entries is None
            _assert_form(inv, rows, rows, [aug[i][rows + k] for i in range(rows) for k in range(rows)])


@pytest.mark.parametrize("text", ["1e300000", " 3/4 ", "1_000"])
def test_coerce_refuses_what_the_document_grammar_refuses(text):
    # the exponent would ask for a number of about a million bits; the grammar refuses it unread
    with pytest.raises(ValueError, match="bad rational literal"):
        Matrix.from_rows([[text]])


def test_coerce_reads_the_document_grammar():
    m = Matrix.from_rows([["2/4", "-0", "007", "0/5", "-6/3", str(2**70)]])
    assert m.entries == (Fraction(1, 2), 0, 7, 0, -2, 2**70)
    with pytest.raises(ValueError, match=r"bad rational literal '1/0': Fraction\(1, 0\)"):
        Matrix.from_rows([["1/0"]])


@pytest.mark.parametrize("entry", [0.5, 1.0, complex(1, 0), "1/2", None])
def test_rational_matrix_refuses_a_non_rational_entry_where_it_is_made(entry):
    # equality and hash read the integer form, which a float or string entry has not got
    with pytest.raises(TypeError, match="int or Fraction entries"):
        Matrix(1, 2, (Fraction(1, 3), entry))


@pytest.mark.parametrize("entry", [Fraction(1, 3), "1", None, [1.0, 0.0]])
def test_complex_matrix_refuses_an_entry_that_is_not_a_number_where_it_is_made(entry):
    # a Fraction kept in a complex matrix printed as "1/3", differed from 1/3 + 0j and broke matrix_to_json
    with pytest.raises(TypeError, match="int, float or complex entries"):
        Matrix(1, 2, (entry, 2), complex_field())


def test_complex_matrix_takes_int_bool_float_and_complex_entries():
    m = Matrix(1, 4, (2, True, -0.5, 1j), complex_field())
    assert m == Matrix.from_rows([[2, 1, -0.5, 1j]], complex_field())
    assert hash(m) == hash(Matrix.from_rows([[2, 1, -0.5, 1j]], complex_field()))


def test_rational_matrix_takes_int_bool_and_fraction_entries():
    m = Matrix(1, 3, (2, True, Fraction(-1, 2)))
    assert m == Matrix.from_rows([[2, 1, "-1/2"]]) and hash(m) == hash(Matrix.from_rows([[2, 1, "-1/2"]]))


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



def _rational_closures():
    """Rational (seeds, operators, closure rank) by name, built before any patching."""
    g = rand_invertible(random.Random(19), 8)
    d = Matrix.from_rows([[Fraction(k + 1, 3) if k == l else 0 for l in range(8)] for k in range(8)])
    shift = Matrix.from_rows([[1 if a == b + 1 else 0 for b in range(5)] for a in range(5)])
    return {
        # distinct eigenvalues and a seed with no zero coordinate: a cyclic vector
        "dense-cyclic": (g @ Matrix.column([1] * 8), [g @ d @ g.inverse()], 8),
        # X = 2I fixes every line
        "scalar": (Matrix.column([3, Fraction(-1, 2), 0, 5]), [Fraction(2) * Matrix.identity(4)], 1),
        # e_2 twice under the shift e_k -> e_(k+1) and its square: e_2, e_3, e_4
        "nilpotent-two-seeds": (Matrix.from_rows([[0, 0], [0, 0], [1, 2], [0, 0], [0, 0]]), [shift, shift @ shift], 3),
    }


@pytest.mark.parametrize("name", ["dense-cyclic", "scalar", "nilpotent-two-seeds"])
def test_rational_closure_rank_runs_no_rref_and_no_product(name, monkeypatch):
    seeds, ops, expected = _rational_closures()[name]

    def refuse(*args):
        raise AssertionError("rational _closure_rank called _rref or Matrix.__matmul__")

    monkeypatch.setattr("cmkit.linalg._rref", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert _closure_rank(seeds, ops) == expected


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
    (poly_str, (((1, 0), complex(1, 0)), ((0, 1), complex(-1, 0))), "x - y"),
    (poly_str,
     (((0, 0), complex(1, 0)), ((2, 0), complex(2, 3)), ((1, 1), complex(-2, 0)), ((0, 2), complex(0, -1))),
     "(1+0j) + (2+3j)x^2 + (-2+0j)xy - 1jy^2"),
    (poly_str, (((0, 0), complex(-1, 0)), ((1, 0), complex(0.5, -0.25))), "(-1+0j) + (0.5-0.25j)x"),
    (poly_str, (((1, 0), _F(-1, 2)), ((0, 3), 1), ((0, 0), _F(-1)), ((2, 1), -1)), "-1 - 1/2x - x^2y + y^3"),
    (poly_str, (), "0"),
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
