"""Exact linear algebra over the rationals, with an optional complex float mode.

Everything downstream (moment maps, Koszul normalization, fiber solves,
endomorphism algebras) reduces to the primitives here: reduced row echelon
form, affine solving with an explicit kernel basis, characteristic
polynomials, and matrix polynomial evaluation.

The default field is ``Fraction`` arithmetic, where every comparison is
exact.  The complex mode carries an explicit tolerance; zero tests and pivot
selection are the only places the tolerance enters.

Linear systems in matrix unknowns use one vectorization convention.  The
unknowns are a square block Z (n x n) and a framing block F: ``vec`` lists Z
column-major, then F row-major.  Each matrix equation contributes its entries
as consecutive rows, row-major.  ``add_sandwich`` writes the coefficients of
a term +-(Z |-> A Z B) straight into such a system, and ``unvec`` reads a
solution vector back into its two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[Fraction, complex]


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is not."""


@dataclass(frozen=True)
class Field:
    """Arithmetic policy: ``rational`` (exact) or ``complex`` (tolerance-based).

    Pivoting follows the policy of the field: first nonzero entry in column
    order for rationals, entry of maximal absolute value for complex floats.
    """

    name: str
    tolerance: float = 0.0

    @property
    def is_rational(self) -> bool:
        return self.name == "rational"

    def coerce(self, value) -> Scalar:
        if self.is_rational:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, str)):
                return Fraction(value)
            if isinstance(value, float) and value.is_integer():
                return Fraction(int(value))
            raise TypeError(f"cannot coerce {value!r} into the rational field")
        if isinstance(value, complex):
            return value
        if isinstance(value, (int, float, Fraction)):
            return complex(value)
        raise TypeError(f"cannot coerce {value!r} into the complex field")

    def is_zero(self, value: Scalar) -> bool:
        if self.is_rational:
            return value == 0
        return abs(value) <= self.tolerance

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.is_rational else complex(0)

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.is_rational else complex(1)


RATIONAL = Field("rational")


def complex_field(tolerance: float = 1e-9) -> Field:
    return Field("complex", tolerance)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with entries in a fixed :class:`Field`.

    Entries are stored row-major in a flat tuple.  All operations return new
    matrices; values are safe to share across threads.
    """

    rows: int
    cols: int
    entries: tuple[Scalar, ...]
    field: Field = RATIONAL

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], field: Field = RATIONAL) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(field.coerce(v) for v in r)
        return Matrix(nrows, ncols, tuple(flat), field)

    @staticmethod
    def zeros(rows: int, cols: int, field: Field = RATIONAL) -> "Matrix":
        return Matrix(rows, cols, (field.zero,) * (rows * cols), field)

    @staticmethod
    def identity(n: int, field: Field = RATIONAL) -> "Matrix":
        flat = [field.zero] * (n * n)
        for k in range(n):
            flat[k * n + k] = field.one
        return Matrix(n, n, tuple(flat), field)

    @staticmethod
    def column(values: Sequence, field: Field = RATIONAL) -> "Matrix":
        return Matrix.from_rows([[v] for v in values], field)

    @staticmethod
    def row_vector(values: Sequence, field: Field = RATIONAL) -> "Matrix":
        return Matrix.from_rows([list(values)], field)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, k = key
        if not (0 <= i < self.rows and 0 <= k < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + k]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, k: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i * self.cols + k] for i in range(self.rows))

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        if self.field != other.field:
            raise ShapeError("mixed fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        flat = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, flat, self.field)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        flat = tuple(a - b for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, flat, self.field)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries), self.field)

    def __rmul__(self, scalar) -> "Matrix":
        c = self.field.coerce(scalar)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries), self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.field != other.field:
            raise ShapeError("mixed fields")
        n, m, p = self.rows, self.cols, other.cols
        flat = [self.field.zero] * (n * p)
        se, oe = self.entries, other.entries
        for i in range(n):
            base = i * m
            for k in range(m):
                a = se[base + k]
                if a == 0:
                    continue
                ob = k * p
                rb = i * p
                for c in range(p):
                    flat[rb + c] += a * oe[ob + c]
        return Matrix(n, p, tuple(flat), self.field)

    def transpose(self) -> "Matrix":
        flat = tuple(self[i, k] for k in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, flat, self.field)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ShapeError("trace of non-square matrix")
        return sum((self[k, k] for k in range(self.rows)), self.field.zero)

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.entries)

    def allclose(self, other: "Matrix") -> bool:
        """Equality up to the field tolerance (exact in rational mode)."""
        self._same_shape(other)
        return (self - other).is_zero()

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + list(Matrix.identity(n, self.field).row(i)) for i in range(n)]
        _, pivots = _rref(aug, self.field)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        flat = tuple(aug[i][n + k] for i in range(n) for k in range(n))
        return Matrix(n, n, flat, self.field)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.field != other.field:
            raise ShapeError("hstack mismatch")
        flat: list[Scalar] = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return Matrix(self.rows, self.cols + other.cols, tuple(flat), self.field)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"[{body}]"


def _rref(rows: list[list[Scalar]], field: Field) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form, in place.  Returns (rows, pivot columns).

    Rational mode pivots on the first nonzero entry below the current row;
    complex mode on the entry of maximal absolute value above tolerance.
    Zero entries are skipped in the elimination inner loop, so sparse inputs
    stay cheap.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        choice = -1
        if field.is_rational:
            for r in range(pr, nrows):
                if rows[r][pc] != 0:
                    choice = r
                    break
        else:
            best = field.tolerance
            for r in range(pr, nrows):
                a = abs(rows[r][pc])
                if a > best:
                    best = a
                    choice = r
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


def rank(a: Matrix) -> int:
    _, pivots = _rref(a.to_rows(), a.field)
    return len(pivots)


def _kernel_from_rref(rows: list[list[Scalar]], pivots: list[int], ncols: int, field: Field) -> list[Matrix]:
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [field.zero] * ncols
        v[f] = field.one
        for k, p in enumerate(pivots):
            v[p] = -rows[k][f]
        basis.append(Matrix.column(v, field))
    return basis


def kernel_basis(a: Matrix) -> list[Matrix]:
    """Basis of {v : Av = 0}, one column per free variable, ascending."""
    rows, pivots = _rref(a.to_rows(), a.field)
    return _kernel_from_rref(rows, pivots, a.cols, a.field)


class AffineSolution(NamedTuple):
    particular: Matrix
    kernel_basis: list[Matrix]


def solve_affine(a: Matrix, b: Matrix) -> AffineSolution | None:
    """Solve Ax = b; None when inconsistent.

    The particular solution sets all free variables to zero; the kernel basis
    spans the homogeneous solutions, so the full solution set is
    ``particular + span(kernel_basis)``.
    """
    if b.cols != 1 or b.rows != a.rows:
        raise ShapeError(f"rhs must be a {a.rows}x1 column, got {b.rows}x{b.cols}")
    if a.field != b.field:
        raise ShapeError("mixed fields")
    aug = [list(a.row(i)) + [b[i, 0]] for i in range(a.rows)]
    rows, pivots = _rref(aug, a.field)
    if any(p == a.cols for p in pivots):
        return None
    x = [a.field.zero] * a.cols
    for k, p in enumerate(pivots):
        x[p] = rows[k][a.cols]
    # The A-part of the reduced augmented rows is the RREF of A itself.
    kern = _kernel_from_rref([r[: a.cols] for r in rows], pivots, a.cols, a.field)
    return AffineSolution(Matrix.column(x, a.field), kern)


def vec(square: Matrix, framing: Matrix) -> list[Scalar]:
    """The unknown vector of (square, framing): square column-major, then framing row-major."""
    n = square.rows
    return [square.entries[row * n + col] for col in range(n) for row in range(n)] + list(framing.entries)


def unvec(v: Matrix, n: int, framing_rows: int, framing_cols: int) -> tuple[Matrix, Matrix]:
    """Inverse of :func:`vec` on a column: (n x n square block, framing block)."""
    flat = v.entries
    square = tuple(flat[col * n + row] for row in range(n) for col in range(n))
    framing = flat[n * n : n * n + framing_rows * framing_cols]
    return Matrix(n, n, square, v.field), Matrix(framing_rows, framing_cols, framing, v.field)


def add_sandwich(
    flat: list,
    ncols: int,
    a: Matrix,
    b: Matrix,
    *,
    eq_row: int,
    unknown_col: int,
    square: bool,
    negate: bool = False,
) -> None:
    """Add the coefficients of +-(Z |-> A Z B) into a flat row-major system with ncols columns.

    Entry (p, q) of A Z B is equation ``eq_row + p * B.cols + q``.  Unknown
    Z[k, l] is column ``unknown_col + l * A.cols + k`` when Z is the square
    block (column-major) and ``unknown_col + k * B.rows + l`` when it is the
    framing block (row-major).  Its coefficient in equation (p, q) is
    A[p, k] * B[l, q]; only nonzero entries of A and B are visited.
    """
    zr, zc, bc = a.cols, b.rows, b.cols
    a_nz = [(*divmod(t, zr), x) for t, x in enumerate(a.entries) if x != 0]
    b_nz = [(*divmod(t, bc), y) for t, y in enumerate(b.entries) if y != 0]
    for p, k, x in a_nz:
        for l, q, y in b_nz:
            col = unknown_col + (l * zr + k if square else k * zc + l)
            idx = (eq_row + p * bc + q) * ncols + col
            if negate:
                flat[idx] -= x * y
            else:
                flat[idx] += x * y


def char_poly(a: Matrix) -> list[Scalar]:
    """Coefficients of det(tI - A), ascending in t; monic of degree n.

    Computed by the Faddeev-LeVerrier recurrence, which stays in the field
    (the only divisions are by 1..n).
    """
    if a.rows != a.cols:
        raise ShapeError("char_poly needs a square matrix")
    n = a.rows
    field = a.field
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    m = Matrix.identity(n, field)
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        coeffs[n - k] = field.coerce(c) if field.is_rational else c
        m = am + c * Matrix.identity(n, field)
    return coeffs


def eval_matrix_poly(coeffs: Iterable, x: Matrix) -> Matrix:
    """Evaluate sum_k coeffs[k] * X^k (coefficients ascending)."""
    if x.rows != x.cols:
        raise ShapeError("matrix polynomial needs a square matrix")
    cs = [x.field.coerce(c) for c in coeffs]
    if not cs:
        return Matrix.zeros(x.rows, x.cols, x.field)
    acc = cs[-1] * Matrix.identity(x.rows, x.field)
    for c in reversed(cs[:-1]):
        acc = acc @ x + c * Matrix.identity(x.rows, x.field)
    return acc


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a
