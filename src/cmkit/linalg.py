"""Exact linear algebra over the rationals, with an optional complex float mode.

Everything downstream (moment maps, Koszul normalization, fiber solves,
endomorphism algebras) reduces to the primitives here: reduced row echelon
form, affine solving with an explicit kernel basis, characteristic
polynomials, and matrix polynomial evaluation.

The default field is ``Fraction`` arithmetic, where every comparison is
exact.  Rational elimination runs fraction-free on primitive integer rows
and turns only the reduced rows back into Fractions; a matrix has one RREF,
so the result is the one Gauss-Jordan on Fractions gives.  The complex mode
carries an explicit tolerance; zero tests and pivot selection are the only
places the tolerance enters.

Linear systems in matrix unknowns use one vectorization convention.  The
unknowns are a square block Z (n x n) and a framing block F: ``vec`` lists Z
column-major, then F row-major.  Each matrix equation contributes its entries
as consecutive rows, row-major.  ``add_sandwich`` writes the coefficients of
a term Z |-> A Z B straight into such a system, and ``unvec`` reads a
solution vector back into its two blocks.

``_product`` is the one matrix product loop, shared by both fields:
complex entries go in as they are, rational ones as integer numerators over
a common denominator.

``_closure_rank`` (the dimension of the operator-invariant span of some
seed columns, for stability and framing surjectivity) also runs on
``_rref``, which is the one elimination routine of the package.
``format_terms`` and ``power`` are the one monomial printer, shared by the
polynomial, factor and Weyl-algebra formatters.

The model objects (CM quadruples, Koszul triples, framed torsion sheaves)
are a few matrix blocks sized by n and r.  Each lists its blocks once, as
:class:`Block` rows in ``BLOCKS``; the base class :class:`Blocks` checks
them at construction and ``serialize`` reads and writes documents from the
same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
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

# The complex field's tolerance wherever neither the document nor the caller gives one.
DEFAULT_TOLERANCE = 1e-9


def complex_field(tolerance: float = DEFAULT_TOLERANCE) -> Field:
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
        if self.field.is_rational:
            a, da = _numerators(self.entries)
            b, db = _numerators(other.entries)
            d, zero = da * db, Fraction(0)
            flat = tuple(Fraction(v, d) if v else zero for v in _product(a, b, n, m, p, 0))
        else:
            flat = tuple(_product(self.entries, other.entries, n, m, p, self.field.zero))
        return Matrix(n, p, flat, self.field)

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
        eye = Matrix.identity(n, self.field)
        aug = [list(self.row(i)) + list(eye.row(i)) for i in range(n)]
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


class Block(NamedTuple):
    """One block of a model object: its name, its rows and columns named by "n" or "r", and its type."""

    name: str
    shape: str
    type: str = "matrix"  # or "covector": a polynomial covector, each coefficient of this shape


class Blocks:
    """Base of a frozen dataclass of matrix blocks, listed in constructor order in ``BLOCKS``.

    n is the number of rows of X and r the number of columns of i.  Both
    must be at least 1, every block (every coefficient of a covector) must
    have the shape ``BLOCKS`` gives it, and all blocks must share one field.
    """

    BLOCKS: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        size = {"n": self.n, "r": self.r}
        if size["n"] < 1 or size["r"] < 1:
            raise ShapeError(f"need n >= 1 and r >= 1, got n = {size['n']} and r = {size['r']}")
        fields = set()
        for b in self.BLOCKS:
            rows, cols = size[b.shape[0]], size[b.shape[1]]
            value = getattr(self, b.name)
            for m in value.coeffs if b.type == "covector" else (value,):
                if (m.rows, m.cols) != (rows, cols):
                    raise ShapeError(f"block {b.name} must be {rows}x{cols}, got {m.rows}x{m.cols}")
                fields.add(m.field)
        if len(fields) != 1:
            raise ShapeError("all blocks must share one field")

    @property
    def n(self) -> int:
        return self.X.rows

    @property
    def r(self) -> int:
        return self.i.cols

    @property
    def field(self) -> Field:
        return self.X.field


def _numerators(entries: tuple) -> tuple[list[int], int]:
    """Integer numerators of rational entries over the lcm of their denominators."""
    d = lcm(*{x.denominator for x in entries})
    return [x.numerator * (d // x.denominator) for x in entries], d


def _product(left: Sequence, right: Sequence, n: int, m: int, p: int, zero) -> list:
    """Entries of the product of an n x m and an m x p matrix, row-major, summed from ``zero``.

    This is the one product loop of :class:`Matrix`.  Zeros are skipped on
    both sides, and each entry sums its terms in ascending inner index.
    Complex entries go in as they are; skipping a zero of ``right`` changes
    no bit of a finite result, since a sum started from +0.0 is never -0.0
    (only an overflowed ``inf`` times an exact zero would differ).  A
    rational operand goes in as integer numerators over one common
    denominator, so the loop multiplies plain ints and each entry becomes a
    Fraction once.  That pays off when the entries of each operand share
    their denominators, as products of conjugated CM points do.  If both
    operands have many distinct large coprime denominators, the common ones
    grow with the sum of their sizes and the products cost more than
    entrywise Fraction arithmetic would (n = 12, distinct 30-bit primes:
    about 5x slower).
    """
    right_rows = [[(c, y) for c, y in enumerate(right[k * p : (k + 1) * p]) if y] for k in range(m)]
    flat: list = []
    for i in range(n):
        acc = [zero] * p
        for k, x in enumerate(left[i * m : (i + 1) * m]):
            if x:
                for c, y in right_rows[k]:
                    acc[c] += x * y
        flat.extend(acc)
    return flat


def _rref(
    rows: list[list[Scalar]], field: Field, *, write_back: bool = True
) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form, in place.  Returns (rows, pivot columns).

    Rational mode pivots on the first nonzero entry at or below the current
    row and eliminates fraction-free on primitive integer rows (see
    :func:`_integer_rref` for the method and its worst case); the RREF of a
    matrix is unique, so rows and pivots are the ones Gauss-Jordan on
    Fractions gives.
    ``write_back=False`` only finds the pivots and leaves ``rows`` as they
    are.  Complex mode pivots on the entry of maximal absolute value above
    tolerance.  Zero entries are skipped in the elimination inner loops, so
    sparse inputs stay cheap.
    """
    if field.is_rational:
        return rows, _integer_rref(rows, write_back)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        choice = -1
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


def _integer_rref(rows: list[list[Fraction]], write_back: bool) -> list[int]:
    """Pivot columns of the rational RREF of ``rows``; with ``write_back``, the RREF itself in place.

    Each row is scaled to primitive integer numerators over the lcm of its
    denominators.  A pivot row p with entry a clears f = r[pc] from every
    other row r by r <- (a/g) r - (f/g) p, g = gcd(a, f), and r is divided
    by its content, so rows stay primitive and no entry is normalized as a
    Fraction during elimination.  Every row remains a nonzero multiple of
    the row Fraction Gauss-Jordan would hold, so the same pivots are chosen;
    at the end each pivot row is divided by its pivot entry.  The worst case
    is rows with many distinct coprime denominators, which start from large
    numerators; it is still faster than Fraction elimination: ``solve_affine``
    over distinct 30-bit primes, 12 x 12, took 32 ms instead of 47 ms, and
    over 16-bit primes, 20 x 20, 219 ms instead of 353 ms (Xeon 2.1 GHz,
    Python 3.11).
    """
    ints = []
    for row in rows:
        nums = _numerators(row)[0]
        g = gcd(*nums)
        ints.append([x // g for x in nums] if g > 1 else nums)
    nrows = len(ints)
    ncols = len(ints[0]) if nrows else 0
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        choice = next((r for r in range(pr, nrows) if ints[r][pc]), -1)
        if choice < 0:
            continue
        ints[pr], ints[choice] = ints[choice], ints[pr]
        prow = ints[pr]
        a = prow[pc]
        nz = [(c, x) for c, x in enumerate(prow) if x]
        for r, rr in enumerate(ints):
            f = rr[pc]
            if not f or r == pr:
                continue
            g = gcd(a, f)
            ag, fg = a // g, f // g
            if ag != 1:
                rr = [ag * x for x in rr]
            for c, x in nz:
                rr[c] -= fg * x
            g = gcd(*rr)
            ints[r] = [x // g for x in rr] if g > 1 else rr
        pivots.append(pc)
    if write_back:
        zero = Fraction(0)
        for k, row in enumerate(ints):
            p = row[pivots[k]] if k < len(pivots) else 1
            rows[k] = [Fraction(x, p) if x else zero for x in row]
    return pivots


def rank(a: Matrix) -> int:
    _, pivots = _rref(a.to_rows(), a.field, write_back=False)
    return len(pivots)


def _closure_rank(seeds: Matrix, operators: Sequence[Matrix]) -> int:
    """Dimension of the smallest subspace containing the columns of ``seeds`` and invariant under ``operators``.

    Each round puts the frontier after the columns kept so far and keeps the
    new pivot columns of their RREF, which are the frontier columns
    independent of all columns before them (the kept columns are
    independent, so they are the first pivots).  The next frontier is every
    operator applied to those, ``[op_1 @ new | op_2 @ new | ...]``.
    """
    n, field = seeds.rows, seeds.field
    kept, frontier = Matrix(n, 0, (), field), seeds
    while frontier.cols and kept.cols < n:
        block = kept.hstack(frontier)
        _, pivots = _rref(block.to_rows(), field, write_back=False)
        cols = pivots[kept.cols :]
        new = Matrix(n, len(cols), tuple(block.entries[i * block.cols + c] for i in range(n) for c in cols), field)
        kept = kept.hstack(new)
        frontier = reduce(Matrix.hstack, [op @ new for op in operators])
    return kept.cols


def _kernel_from_rref(rows: list[list[Scalar]], pivots: list[int], ncols: int, field: Field) -> list[Matrix]:
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [field.zero] * ncols
        v[f] = field.one
        for k, p in enumerate(pivots):
            v[p] = -rows[k][f]
        basis.append(Matrix(ncols, 1, tuple(v), field))
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
    return AffineSolution(Matrix(a.cols, 1, tuple(x), a.field), kern)


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


def add_sandwich(flat: list, ncols: int, a: Matrix, b: Matrix, *, eq_row: int, unknown_col: int, square: bool) -> None:
    """Add the coefficients of Z |-> A Z B into a flat row-major system with ncols columns.

    Entry (p, q) of A Z B is equation ``eq_row + p * B.cols + q``.  Unknown
    Z[k, l] is column ``unknown_col + l * A.cols + k`` when Z is the square
    block (column-major) and ``unknown_col + k * B.rows + l`` when it is the
    framing block (row-major).  Its coefficient in equation (p, q) is
    A[p, k] * B[l, q]; only nonzero entries of A and B are visited.  A term
    -(Z |-> A Z B) is added as Z |-> (-A) Z B.
    """
    zr, zc, bc = a.cols, b.rows, b.cols
    a_nz = [(*divmod(t, zr), x) for t, x in enumerate(a.entries) if x != 0]
    b_nz = [(*divmod(t, bc), y) for t, y in enumerate(b.entries) if y != 0]
    for p, k, x in a_nz:
        for l, q, y in b_nz:
            col = unknown_col + (l * zr + k if square else k * zc + l)
            flat[(eq_row + p * bc + q) * ncols + col] += x * y


def power(var: str, k: int) -> str:
    """The monomial ``var^k``: ``""`` for k = 0, ``var`` for k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def format_terms(terms: Iterable[tuple[object, str]], sep: str = "") -> str:
    """Print a sum of (coefficient, monomial) pairs in the order given; ``""`` is the constant monomial.

    A coefficient of +-1 is dropped before a monomial, any other coefficient
    is joined to it by ``sep``; "+ -" is printed as "- ", and the empty sum as "0".
    """
    parts = []
    for c, mono in terms:
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}{sep}{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


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
        coeffs[n - k] = c
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
