"""Exact linear algebra over the rationals, with an optional complex float mode.

Everything downstream (moment maps, Koszul normalization, fiber solves,
endomorphism algebras) reduces to the primitives here: reduced row echelon
form, affine solving with an explicit kernel basis, characteristic
polynomials, and matrix polynomial evaluation.

The default field is ``Fraction`` arithmetic, where every comparison is
exact.  A rational matrix is its canonical integer form, integer numerators
over the lcm of the denominators (see :class:`Matrix`), and a Fraction is
built only where an entry is read.  A complex matrix has the same form, its
entries over 1, so negation, sums, scalar and matrix products, ``gather``,
``hstack`` and the rows handed to elimination are written once for both
fields.  Rational elimination runs fraction-free
on integer rows sliced out of the forms and leaves them primitive.  Its
passes skip zero entries, so a sparse system costs about its nonzeros:
``itertools.compress`` finds the nonzero positions of a row in C, and
``_numerators``, the content division of the forward pass and the back pass
(and ``Matrix.rational_strings``) work on those positions alone; the forward
pass scans each column once for its pivot row and the rows to clear, and the
back pass reads each pivot row past its pivot.
:func:`_read` takes every answer from the pivot rows as (p, q) pairs, which
:meth:`Matrix.from_pairs` makes into a form.  A matrix has one RREF, so the
answers are the ones Gauss-Jordan on Fractions gives.  A rational literal
has one grammar, :func:`parse_rational`, which the document reader and
:meth:`Field.coerce` share.

The complex mode carries an explicit tolerance; zero tests and pivot
selection are the only places the tolerance enters.  The tolerance is
absolute and answers scale with the input, so it does not decide which
answers are round-off.  Instead the elimination stores a row update that
cancelled to within 2^-44 (256 units in the last place) of the term it
subtracts as exact 0, so a cancellation leaves no residue near 1e-16 for the
answers to carry.  Residue that builds up over several updates of an
ill-conditioned system can still be read out.

Linear systems in matrix unknowns use one vectorization convention.  The
unknowns are a square block Z (n x n) and a framing block F: ``vec`` lists Z
column-major, then F row-major.  Each matrix equation contributes its entries
as consecutive rows, row-major.  ``add_sandwich``, the one writer of such
systems, adds the coefficients of a term Z |-> A Z B, for A and B row-major
sequences of any entry type, into its rows: the four terms of ``moduli``'s
End system, integer numerators of X and i on rows of int zeros, and the
three of the Koszul fiber system, Fraction coefficients on rows of int
zeros (complex entries on ``0j`` in the complex field).  The fiber rows,
with their right-hand side, go to :func:`_solve_rows`, the body of
``solve_affine``, and never become a :class:`Matrix`; a rational row goes
as its integer numerators (``_numerators``).
``unvec`` reads a solution vector back into its two blocks.  A kernel basis
can also stay one matrix, one vector per row, read off the pivot rows by
``_kernel_pairs``.

``_product`` is the one matrix product loop, shared by both fields: it
multiplies the two forms, complex entries or integer numerators, so chains
of rational products build Fractions only for the entries that are read.
``_apply`` applies the numerator rows of a rational operator to an integer
vector, for the integer vectors of ``_closure_rank`` and of the rational
Hilbert ideal, which build no matrix.

``_rref`` is the one elimination routine of the package for matrices, and
``_solve_rows`` the one affine solver on it, for both fields;
``_pivots`` runs its rational forward pass alone, for the readers that need
only the pivot columns (``rank``, the trace form and the support check).
``_closure_rank`` (the dimension of the operator-invariant span of some
seed columns, for stability and framing surjectivity) needs no matrix in
the rational field: it reduces each new integer vector once against the
primitive echelon rows kept so far, by the fraction-free row step of
``_clear`` without its content division, which costs more than it saves on
vectors of length n.  The complex field runs it in rounds on ``_rref``,
whose tolerance pivoting decides the rank.
``format_terms`` and ``power`` are the one monomial printer, shared by the
polynomial, factor and Weyl-algebra formatters.

The model objects (CM quadruples, Koszul triples, framed torsion sheaves)
are a few matrix blocks sized by n and r.  Each lists its blocks once, as
:class:`Block` rows in ``BLOCKS``; the base class :class:`Blocks` builds
and checks the object from that table, whose block names are its fields,
and ``serialize`` reads and writes documents from the same table.

The value classes of the package (:class:`Matrix`, :class:`Blocks`, the
Koszul covector and the ring elements) derive from :class:`Value`, which
writes equality, hash, repr, pickling and refused assignment once, over the
fields each class names in ``_FIELDS``.  The result records are
``NamedTuple`` classes.  Neither is a dataclass: importing ``dataclasses``
loads ``inspect`` and ``ast``, which is a large share of a cold command's
start-up.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[Fraction, complex]

# Immutable classes set their fields once, in __init__, past their own __setattr__.
_set = object.__setattr__


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is not."""


# No exponent, decimal point, "+", "_", space or non-ASCII digit: a number is never longer than its literal.
_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> tuple[int, int]:
    """(p, q), q > 0 and not reduced, of a literal ``-?[0-9]+(/[0-9]+)?``, the one rational grammar.

    Any other string raises ``ValueError`` with the message ``Fraction(text)``
    gives (``Fraction(1, 0)`` for a zero denominator) after ``bad rational literal 'text': ``.
    """
    literal = _RATIONAL_LITERAL.fullmatch(text)
    if literal is None:
        raise ValueError(f"bad rational literal {text!r}: Invalid literal for Fraction: {text!r}")
    num, den = literal.groups()
    try:  # int() refuses more digits than the interpreter's limit
        p, q = int(num), int(den) if den else 1
    except ValueError as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None
    if not q:
        raise ValueError(f"bad rational literal {text!r}: Fraction({p}, 0)")
    return p, q


_ZERO, _ONE, _CZERO, _CONE = Fraction(0), Fraction(1), complex(0), complex(1)
_RATIONAL_TYPES = frozenset((Fraction, int))
_COMPLEX_TYPES = frozenset((complex, float, int))


class Field(NamedTuple):
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
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(*parse_rational(value))
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
        return _ZERO if self.is_rational else _CZERO

    @property
    def one(self) -> Scalar:
        return _ONE if self.is_rational else _CONE


RATIONAL = Field("rational")

# The complex field's tolerance wherever neither the document nor the caller gives one.
DEFAULT_TOLERANCE = 1e-9
# A complex row update a - f p whose result is within this fraction of |f p|
# has cancelled to round-off, and the elimination stores it as exact 0.
_CANCELLED = 2.0 ** -44


def complex_field(tolerance: float = DEFAULT_TOLERANCE) -> Field:
    return Field("complex", tolerance)


def _frozen(self, name, value=None) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


class Value:
    """Base of the package's immutable values, whose fields ``_FIELDS`` names in constructor order.

    Two values are equal when they are of one class and their ``_key()``
    values are equal, and the hash reads the same key; by default the key is
    the tuple of the fields, which the ``Kind(a=..., b=...)`` repr and
    pickling read, and pickling rebuilds a value through its constructor.
    ``__init__`` sets the fields past ``__setattr__``; assigning or deleting
    an attribute afterwards raises ``AttributeError``.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def _key(self) -> tuple:
        return self._fields()

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    __setattr__ = __delattr__ = _frozen


class Matrix(Value):
    """Immutable dense matrix with entries in a fixed :class:`Field`.

    Entries are row-major.  All operations return new matrices; values are
    safe to share across threads.  Two matrices are equal when their shapes,
    entries and fields are.

    A matrix is its form (values, d), row-major values over a scale d.  A
    rational form is the integer form ``_numerators(entries)`` returns,
    integer numerators over the lcm d of the denominators, kept canonical by
    dividing out gcd(d, *numerators) (:func:`_reduced`).  A complex form is
    the entries over 1, so arithmetic, ``gather``, ``hstack`` and ``_rows``
    take one path in both fields.  Forms over one d are added unscaled and
    d = 1 is never reduced: a complex value times 1 can lose the sign of a
    zero part.  ``==`` and ``hash`` compare forms.  Arithmetic, ``hstack``,
    ``is_zero``, elimination, the solvers' answers and ``serialize`` work on
    forms, and ``trace`` sums the integer diagonal over d.  A Fraction is
    built only where an entry is read, and ``entries``, ``[]`` and ``row``
    (so ``repr``, ``str`` and pickling) build every entry once and keep
    them.  A rational matrix made from entries computes its form on first
    use, so the constructor refuses a rational entry that is not an int or a
    Fraction (``TypeError``) where the matrix is made, and a complex one
    refuses an entry that is not an int, float or complex: a Fraction kept
    there would print as "1/3" and differ from 1/3 + 0j.  It keeps
    ``tuple(entries)``, so a matrix made from a list does not change with it.
    ``entries`` is a property over the slot ``_entries``, not a slot with a
    ``__getattr__`` fallback: on CPython 3.11 defining ``__getattr__`` slows
    every attribute read of the class, ``rows``, ``cols`` and methods too.
    """

    _FIELDS = ("rows", "cols", "entries", "field")
    __slots__ = ("rows", "cols", "_entries", "field", "_ints")

    def __init__(self, rows: int, cols: int, entries: tuple[Scalar, ...], field: Field = RATIONAL) -> None:
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        if field.is_rational:
            if not _RATIONAL_TYPES.issuperset(map(type, entries)):
                for x in entries:
                    if not isinstance(x, (int, Fraction)):
                        raise TypeError(f"a rational matrix takes int or Fraction entries, got {x!r}")
        elif not _COMPLEX_TYPES.issuperset(map(type, entries)):
            for x in entries:
                if not isinstance(x, (int, float, complex)):
                    raise TypeError(f"a complex matrix takes int, float or complex entries, got {x!r}")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_entries", entries)
        _set(self, "field", field)
        _set(self, "_ints", None if field.is_rational else (entries, 1))

    @staticmethod
    def _from_ints(rows: int, cols: int, ints: tuple[Sequence, int], field: Field) -> "Matrix":
        """The matrix with canonical form ``ints``: a rational one builds its entries when first read."""
        m = object.__new__(Matrix)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "_entries", None if field.is_rational else tuple(ints[0]))
        _set(m, "field", field)
        _set(m, "_ints", ints)
        return m

    @staticmethod
    def from_pairs(rows: int, cols: int, pairs: Sequence[tuple[int, int]], field: Field = RATIONAL) -> "Matrix":
        """The rational matrix with entries p / q, row-major, from integer pairs (p, q), q != 0, in any terms.

        The form is the numerators over d = lcm of the |q|, reduced by
        :func:`_reduced`; no Fraction is built.
        """
        if rows < 0 or cols < 0 or len(pairs) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(pairs)}")
        d = lcm(*[q for _, q in pairs])
        return Matrix._from_ints(rows, cols, _reduced([p * (d // q) for p, q in pairs], d), field)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        entries = self._entries
        if entries is None:
            nums, d = self._ints
            entries = tuple(Fraction(v, d) if v else _ZERO for v in nums)
            _set(self, "_entries", entries)
        return entries

    def _integer_form(self) -> tuple[Sequence, int]:
        """The form (values, d): a rational matrix's numerators over d, as ``_numerators(self.entries)`` gives
        them, or a complex matrix's entries over 1."""
        ints = self._ints
        if ints is None:
            ints = _numerators(self._entries)
            _set(self, "_ints", ints)
        return ints

    def _key(self) -> tuple:
        values, d = self._integer_form()
        return self.rows, self.cols, tuple(values), d, self.field

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

    def rational_strings(self) -> list[list[str]]:
        """The rows of a rational matrix as ``str(Fraction)`` prints its entries, "p/q" or "p", read off the form.

        A form over d = 1 is its numerators printed; otherwise a zero is "0"
        and only the nonzero values, which ``compress`` finds, take a gcd."""
        (nums, d), c = self._integer_form(), self.cols
        if d == 1:
            flat = list(map(str, nums))
        else:
            flat = ["0"] * len(nums)
            for t in compress(range(len(nums)), nums):
                v = nums[t]
                g = gcd(v, d)
                flat[t] = str(v // g) if g == d else f"{v // g}/{d // g}"
        return [flat[i * c : (i + 1) * c] for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        if self.field != other.field:
            raise ShapeError("mixed fields")

    def _sum(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, made from the two forms over the lcm of their d.

        Forms over one d are added as they stand: scaling by 1 is not exact for
        complex values, since ``complex(-0.0, -1.0) * 1`` is ``-1j``."""
        self._same_shape(other)
        (a, da), (b, db) = self._integer_form(), other._integer_form()
        if da == db:
            flat = list(map(add if sign > 0 else sub, a, b))
            return Matrix._from_ints(self.rows, self.cols, _reduced(flat, da), self.field)
        d = lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        return Matrix._from_ints(self.rows, self.cols, _reduced([x * sa + y * sb for x, y in zip(a, b)], d), self.field)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, -1)

    def __neg__(self) -> "Matrix":
        values, d = self._integer_form()
        return Matrix._from_ints(self.rows, self.cols, ([-v for v in values], d), self.field)

    def __rmul__(self, scalar) -> "Matrix":
        """c * self: each value times p over the scale times q, c = p / q (a complex c is c / 1)."""
        c = self.field.coerce(scalar)
        p, q = (c.numerator, c.denominator) if self.field.is_rational else (c, 1)
        values, d = self._integer_form()
        return Matrix._from_ints(self.rows, self.cols, _reduced([v * p for v in values], d * q), self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.field != other.field:
            raise ShapeError("mixed fields")
        n, m, p = self.rows, self.cols, other.cols
        (a, da), (b, db) = self._integer_form(), other._integer_form()
        zero = 0 if self.field.is_rational else self.field.zero  # 0j keeps an empty complex sum 0j
        return Matrix._from_ints(n, p, _reduced(_product(a, b, n, m, p, zero), da * db), self.field)

    def gather(self, rows: int, cols: int, at: Sequence[int]) -> "Matrix":
        """The rows x cols matrix whose entries, row-major, are this one's at the row-major indices ``at``."""
        if len(at) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(at)}")
        values, d = self._integer_form()
        return Matrix._from_ints(rows, cols, _reduced([values[t] for t in at], d), self.field)

    def transpose(self) -> "Matrix":
        rows, cols = self.rows, self.cols
        return self.gather(cols, rows, [i * cols + k for k in range(cols) for i in range(rows)])

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ShapeError("trace of non-square matrix")
        if self.field.is_rational:
            nums, d = self._integer_form()
            return Fraction(sum(nums[:: self.rows + 1]), d)
        return sum(self.entries[:: self.rows + 1], self.field.zero)

    def is_zero(self) -> bool:
        if self.field.is_rational:
            return not any(self._integer_form()[0])
        return all(self.field.is_zero(a) for a in self.entries)

    def allclose(self, other: "Matrix") -> bool:
        """Equality up to the field tolerance (exact in rational mode)."""
        self._same_shape(other)
        return (self - other).is_zero()

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        rows, pivots = _rref(_rows(self, Matrix.identity(n, self.field)), self.field)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        cols = [_read(rows, pivots, n + k, n, self.field) for k in range(n)]
        return _answer(n, n, [col[i] for i in range(n) for col in cols], self.field)

    def hstack(self, *others: "Matrix") -> "Matrix":
        """[self | others[0] | ...], made from the forms over their lcm."""
        blocks, rows, cols = (self, *others), self.rows, self.cols + sum(m.cols for m in others)
        if any(m.rows != rows or m.field != self.field for m in others):
            raise ShapeError("hstack mismatch")
        flat = list(chain.from_iterable(_rows(*blocks)))
        return Matrix._from_ints(rows, cols, (flat, lcm(*(m._integer_form()[1] for m in blocks))), self.field)

    def _columns(self, cols: list[int]) -> "Matrix":
        """The columns ``cols`` of this matrix, in that order."""
        return self.gather(self.rows, len(cols), [i * self.cols + c for i in range(self.rows) for c in cols])

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"[{body}]"


class Block(NamedTuple):
    """One block of a model object: its name, its rows and columns named by "n" or "r", and its type."""

    name: str
    shape: str
    type: str = "matrix"  # or "covector": a polynomial covector, each coefficient of this shape


class Blocks(Value):
    """Base of an immutable value made of matrix blocks, listed in constructor order in ``BLOCKS``.

    The constructor takes the blocks positionally and stores each under its
    ``BLOCKS`` name, which is also its field name.  n is the number of rows
    of X and r the number of columns of i.  Both must be at least 1, every
    block (every coefficient of a covector) must have the shape ``BLOCKS``
    gives it, and all blocks must share one field.
    """

    BLOCKS: tuple[Block, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._FIELDS = tuple(b.name for b in cls.BLOCKS)

    def __init__(self, *blocks) -> None:
        if len(blocks) != len(self.BLOCKS):
            raise TypeError(f"{type(self).__name__} takes {len(self.BLOCKS)} blocks, got {len(blocks)}")
        self.__dict__.update(zip(self._FIELDS, blocks))
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


def _numerators(entries: Sequence) -> tuple[list[int], int]:
    """Integer numerators of rational entries over the lcm of their denominators, as a new list.

    Zeros are skipped, as :func:`_product` skips them: a zero's denominator
    is 1, which changes no lcm (the lcm of no denominators is 1 too), and its
    numerator is the int 0 over any d.  ``compress`` finds the nonzero
    positions in C, and only those are read and written into a list of int
    zeros, so a sparse row costs about its nonzeros.
    ``koszul.solve_cm_fiber`` calls it once per row of the fiber system.
    """
    at = list(compress(range(len(entries)), entries))
    d = lcm(*{entries[t].denominator for t in at})
    nums = [0] * len(entries)
    for t in at:
        x = entries[t]
        nums[t] = x.numerator * (d // x.denominator)
    return nums, d


def _reduced(nums: list, d: int) -> tuple[list, int]:
    """nums and d divided by g = gcd(d, *nums): the form ``_numerators`` gives, as lcm_k(d / gcd(d, v_k)) = d / g.

    A form over d = 1 is returned as it is: every complex form is one, and ``gcd`` refuses complex values."""
    if d == 1:
        return nums, d
    g = gcd(d, *nums)
    return ([v // g for v in nums], d // g) if g > 1 else (nums, d)


def _product(left: Sequence, right: Sequence, n: int, m: int, p: int, zero) -> list:
    """Entries of the product of an n x m and an m x p matrix, row-major, summed from ``zero``.

    This is the one product loop of :class:`Matrix`.  Zeros are skipped on
    both sides, and each entry sums its terms in ascending inner index.
    Complex entries go in as they are; skipping a zero of ``right`` changes
    no bit of a finite result, since a sum started from +0.0 is never -0.0
    (only an overflowed ``inf`` times an exact zero would differ).  A
    rational operand goes in as its integer form (see :class:`Matrix`), so
    the loop multiplies plain ints: with numerators over d and d', the sums
    over d d' are the product, which ``@`` reduces with :func:`_reduced`.  That
    pays off when the entries of each operand share their denominators, as
    products of conjugated CM points do.  If both operands have many distinct
    large coprime denominators, the common ones grow with the sum of their
    sizes and the products cost more than entrywise Fraction arithmetic would
    (n = 12, distinct 30-bit primes: about 5x slower).
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


def _trace_sum(x: Sequence, y: Sequence, n: int, m: int):
    """tr(x y) for row-major lists x (n x m) and y (m x n): the sum of x_kl y_lk, n m multiplications."""
    return sum(sum(map(mul, x[k * m : (k + 1) * m], y[k::n])) for k in range(n))


def _rows(*blocks: Matrix) -> list[list]:
    """The rows of [blocks[0] | ...] for :func:`_rref`, each a list of its own, sliced out of the blocks' forms and
    scaled to their common lcm, the form ``hstack`` keeps: integer rows, or complex entries, whose d is 1."""
    forms = [(m._integer_form(), m.cols) for m in blocks]
    d = lcm(*(e for (_, e), _ in forms))
    rows: list[list] = [[] for _ in range(blocks[0].rows)]
    for (nums, e), c in forms:
        for i, row in enumerate(rows):
            row += nums[i * c : (i + 1) * c] if e == d else [v * (d // e) for v in nums[i * c : (i + 1) * c]]
    return rows


def _apply(rows: list[list[int]], v: list[int]) -> list[int]:
    """The integer vector d A v: the numerator rows ``_rows(A)`` of a rational operator A over d, applied to v."""
    return [sum(map(mul, row, v)) for row in rows]


def _rref(rows: list[list], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, in place, of the rows :func:`_rows` gives.  Returns (rows, pivot columns).

    Rational mode takes integer rows and leaves pivot row k a nonzero
    multiple of row k of the RREF, as primitive integers, and the rows after
    the pivot rows zero (see :func:`_integer_rref`); :func:`_read` reads
    answers from them.  Complex mode pivots on the entry of maximal absolute
    value above tolerance and leaves the RREF itself, pivots 1; an update
    a - f p with |a - f p| <= ``_CANCELLED`` |f| |p| is stored as 0j.  Zero
    entries are skipped in the elimination inner loops, so sparse inputs
    stay cheap.
    """
    if field.is_rational:
        return rows, _integer_rref(rows)
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
        cancelled = [_CANCELLED * abs(prow[c]) for c in nz_cols]
        for r in range(nrows):
            if r == pr:
                continue
            f = rows[r][pc]
            if field.is_zero(f):
                rows[r][pc] = field.zero
                continue
            rr = rows[r]
            af = abs(f)
            for c, m in zip(nz_cols, cancelled):
                x = rr[c] - f * prow[c]
                rr[c] = x if abs(x) > af * m else _CZERO
            rr[pc] = field.zero
        pivots.append(pc)
        pr += 1
    return rows, pivots


def _integer_rref(ints: list[list[int]]) -> list[int]:
    """Pivot columns of the rational RREF of the integer rows ``ints``, which it reduces in place.

    The rows are lists of their own, never a cached integer form.  Two
    passes reduce them, and neither builds a Fraction.  Every pivot row
    ends the primitive multiple of the row Fraction Gauss-Jordan would
    hold, so the pivots are the same.

    The forward pass, :func:`_echelon`, divides each row by its content,
    sets the all-zero rows aside after the others and eliminates the others
    last equation first: one scan of each column at and below the current
    row finds the first nonzero entry, the pivot, and the rows below it to
    clear, by the row step of :func:`_clear`.  The RREF does not depend on
    the row order, but the path to it does: the systems of the package are
    written row-major, and on dense X the reverse takes a tenth fewer row
    steps for the CM fiber and a quarter fewer for End (450 against 505 and
    633 against 841 at n = 6), and 40 against 56 for the trace form of a
    scalar sheaf (n = 5, r = 1).  Readers of the pivot columns alone stop here (:func:`_pivots`).

    The back pass, :func:`_back_substitute`, finishes each pivot row once,
    from the last to the first.  Row k of the RREF is (row k - sum of
    c_q R_q) / a_k, a_k its pivot entry and R_q the finished rows below
    whose pivot column row k holds as c_q.  So the row is scaled once, to
    the lcm of those rows' pivot entries; the free entries of each R_q are
    subtracted once; and one gcd divides the result.  A finished row is
    kept as its pivot entry and its sparse (free column, numerator) list; a
    row that holds no later pivot column is finished as it stands.

    The worst case is rows with many distinct coprime denominators, which
    start from large numerators; it is still faster than Fraction
    Gauss-Jordan: ``solve_affine`` over distinct 30-bit primes, 12 x 12,
    took 20 ms instead of 35 ms, and over 16-bit primes, 20 x 20, 124 ms
    instead of 261 ms (best of 5, Xeon 2.1 GHz, Python 3.11).
    """
    pivots = _echelon(ints)
    _back_substitute(ints, pivots)
    return pivots


def _echelon(ints: list[list[int]]) -> list[int]:
    """The forward pass of :func:`_integer_rref`: primitive echelon rows in place, zero rows last; the pivot columns.

    Each column is scanned once, from the current row down.  Its first hit
    is the pivot row, and the other hits are the rows to clear: each lies
    after the chosen row, so the swap moves none of them, and the row
    swapped into the chosen row's place holds a zero there.  :func:`_clear`
    runs only when there is a row to clear, which on a diagonal fiber system
    there never is.  The content of a row is the gcd of its nonzero entries,
    whose positions ``compress`` finds; a row with content g > 1 is copied
    and only those entries are divided.
    """
    ncols = len(ints[0]) if ints else 0
    nonzero, zero = [], []
    for row in reversed(ints):
        at = list(compress(range(ncols), row))
        if not at:
            zero.append(row)
            continue
        g = gcd(*[row[c] for c in at])
        if g > 1:
            row = row.copy()
            for c in at:
                row[c] //= g
        nonzero.append(row)
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
            _clear(ints, pr, pc, hits[1:])
        pivots.append(pc)
    return pivots


def _back_substitute(ints: list[list[int]], pivots: list[int]) -> None:
    """The back pass of :func:`_integer_rref`: the echelon pivot rows made primitive RREF rows, last first.

    Row k is read past its pivot column, since an echelon row is zero to the
    left of its pivot, and only at the nonzero entries there, which
    ``compress`` finds, before they are sorted into free and touched entries."""
    ncols = len(ints[0]) if ints else 0
    at = {pc: k for k, pc in enumerate(pivots)}
    finished: list[tuple[int, list[tuple[int, int]]]] = [(0, [])] * len(pivots)  # (pivot entry, free entries)
    for k in range(len(pivots) - 1, -1, -1):
        row, pk = ints[k], pivots[k]
        free, touched = [], []
        for c in compress(range(pk + 1, ncols), row[pk + 1 :]):
            x = row[c]
            q = at.get(c)
            if q is None:
                free.append((c, x))
            else:
                touched.append((finished[q], x))
        if not touched:
            finished[k] = (row[pk], free)
            continue
        # A list, not a generator: unpacking a generator resizes its argument tuple, and the freed tuples pile
        # up on CPython's per-size free lists (2 MB more peak memory over a run of dense fiber solves).
        m = lcm(*[a for (a, _), _ in touched])
        acc = dict(free) if m == 1 else {c: m * x for c, x in free}
        for (a, entries), f in touched:
            f *= m // a
            for c, x in entries:
                acc[c] = acc.get(c, 0) - f * x
        a = m * row[pk]
        g = gcd(a, *acc.values())
        a //= g
        entries = [(c, x // g) for c, x in acc.items() if x]
        finished[k] = (a, entries)
        row = [0] * ncols
        row[pk] = a
        for c, x in entries:
            row[c] = x
        ints[k] = row


def _pivots(rows: list[list], field: Field) -> list[int]:
    """The pivot columns of the RREF of the rows :func:`_rref` takes, reduced in place, for readers of the pivots alone.

    Rational mode runs only the forward pass, :func:`_echelon`, which finds the same pivots."""
    return _echelon(rows) if field.is_rational else _rref(rows, field)[1]


def _clear(ints: list[list[int]], pr: int, pc: int, hits: list[int]) -> None:
    """Clear column pc from the rows ``hits`` of ``ints`` by the pivot row p = ints[pr], whose entry there is a.

    ``hits`` lists the rows below p that hold a nonzero f = r[pc], as
    :func:`_echelon` finds them.  The row step is r <- (a/g) r - (f/g) p,
    g = gcd(a, f), then r divided by its content: integer rows stay primitive."""
    p = ints[pr]
    a, nz = p[pc], [(c, x) for c, x in enumerate(p) if x]
    for k in hits:
        r = ints[k]
        f = r[pc]
        g = gcd(a, f)
        ag, f = a // g, f // g
        if ag != 1:
            r = [ag * x for x in r]
        for c, x in nz:
            r[c] -= f * x
        g = gcd(*r)
        ints[k] = [x // g for x in r] if g > 1 else r


def _read(rows: list[list], pivots: list[int], col: int, size: int, field: Field, negate: bool = False) -> list:
    """The vector of length ``size`` with entry p_k = r_k[col] / r_k[p_k] for pivot row k, else zero.

    The entries are negated with ``negate``.  A rational entry is the pair
    (r_k[col], r_k[p_k]) of integers, (0, 1) for a zero, which
    :func:`_answer` builds into a matrix.  Complex rows have pivots 1 and are
    read as they are, signed zeros too."""
    if field.is_rational:
        v = [(0, 1)] * size
        for r, p in zip(rows, pivots):
            x = r[col]
            if x:
                v[p] = (-x if negate else x, r[p])
        return v
    v = [field.zero] * size
    for r, p in zip(rows, pivots):
        v[p] = -r[col] if negate else r[col]
    return v


def _answer(rows: int, cols: int, values: list, field: Field) -> Matrix:
    """The matrix of values read by :func:`_read`: (p, q) pairs in the rational field, entries in the complex one."""
    return Matrix.from_pairs(rows, cols, values, field) if field.is_rational else Matrix(rows, cols, tuple(values), field)


def rank(a: Matrix) -> int:
    return len(_pivots(_rows(a), a.field))


def _closure_rank(seeds: Matrix, operators: Sequence[Matrix]) -> int:
    """Dimension of the smallest subspace containing the columns of ``seeds`` and invariant under ``operators``.

    Rational mode makes one pass over integer vectors.  The kept vectors
    are primitive integer echelon rows keyed by pivot, the index of their
    first nonzero entry.  Each seed column, and each operator applied to a
    kept vector, is reduced once against them by the row step of
    :func:`_clear` without its content division; it is kept when a nonzero
    entry is left at a column that is no pivot yet.  The operators act
    through their numerator rows (:func:`_apply`), since a span does not
    depend on the scale.  The pass stops at n kept vectors.

    Complex mode runs in rounds on :func:`_rref`, whose tolerance pivoting
    decides the rank.  Each round puts the frontier after the columns kept so
    far and keeps the new pivot columns of their RREF, which are the
    frontier columns independent of all columns before them (the kept
    columns are independent, so they are the first pivots).  The next
    frontier is every operator applied to those, ``[op_1 @ new | ...]``.
    """
    n, field = seeds.rows, seeds.field
    if not field.is_rational:
        kept, frontier = Matrix(n, 0, (), field), seeds
        while frontier.cols and kept.cols < n:
            _, pivots = _rref(_rows(kept, frontier), field)
            new = frontier._columns([p - kept.cols for p in pivots[kept.cols :]])
            kept = kept.hstack(new)
            frontier = Matrix.hstack(*[op @ new for op in operators])
        return kept.cols
    ops = [_rows(op) for op in operators]
    nums, r = seeds._integer_form()[0], seeds.cols
    todo = [nums[c::r] for c in range(r)]
    echelon: dict[int, list[int]] = {}
    while todo and len(echelon) < n:
        v = todo.pop()
        for c in range(n):
            f = v[c]
            if not f:
                continue
            e = echelon.get(c)
            if e is None:
                g = gcd(*v)
                echelon[c] = v = [x // g for x in v] if g > 1 else v
                todo.extend(_apply(op, v) for op in ops)
                break
            g = gcd(e[c], f)
            a, f = e[c] // g, f // g
            v = [a * x - f * y for x, y in zip(v, e)]
    return len(echelon)


def _kernel_pairs(rows: list[list], pivots: list[int], ncols: int, field: Field) -> list[list]:
    """The canonical kernel basis of the first ``ncols`` columns of the reduced rows, as :func:`_read` gives vectors.

    One vector per free column f, ascending: 1 at f, minus column f of the
    RREF at the pivot columns, zero elsewhere.  A rational entry is a pair
    (p, q) of integers, (0, 1) for a zero, so no Fraction is built."""
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = _read(rows, pivots, f, ncols, field, negate=True)
        v[f] = (1, 1) if field.is_rational else field.one
        basis.append(v)
    return basis


def _kernel(rows: list[list], pivots: list[int], ncols: int, field: Field) -> list[Matrix]:
    """The kernel basis of the first ``ncols`` columns of the reduced rows, which are their own RREF."""
    return [_answer(ncols, 1, v, field) for v in _kernel_pairs(rows, pivots, ncols, field)]


def kernel_basis(a: Matrix) -> list[Matrix]:
    """Basis of {v : Av = 0}, one column per free variable, ascending."""
    return _kernel(*_rref(_rows(a), a.field), a.cols, a.field)


class AffineSolution(NamedTuple):
    particular: Matrix
    kernel_basis: list[Matrix]


def solve_affine(a: Matrix, b: Matrix) -> AffineSolution | None:
    """Solve Ax = b; None when inconsistent.

    The particular solution sets all free variables to zero; the kernel basis
    spans the homogeneous solutions, so the full solution set is
    ``particular + span(kernel_basis)``.  After the shape checks this is
    :func:`_solve_rows` on the rows of [A | b].
    """
    if b.cols != 1 or b.rows != a.rows:
        raise ShapeError(f"rhs must be a {a.rows}x1 column, got {b.rows}x{b.cols}")
    if a.field != b.field:
        raise ShapeError("mixed fields")
    return _solve_rows(_rows(a, b), a.cols, a.field)


def _solve_rows(rows: list[list], ncols: int, field: Field) -> AffineSolution | None:
    """:func:`solve_affine` on the augmented rows [A | b], A with ``ncols`` columns, each row a list of its own.

    This is the one solver body of both fields, for ``solve_affine`` and for
    a system written as rows, such as the fiber system of ``koszul``, which
    then never becomes a :class:`Matrix`.  Rational rows are integer rows, as
    :func:`_rows` gives them and :func:`_rref` takes them; a caller whose
    rows hold Fractions makes each one integer over the lcm of its own
    denominators first (:func:`_numerators`).  That scales the row by a
    positive factor, which the content division of :func:`_echelon` removes,
    so the elimination takes the path it takes on the rows :func:`_rows`
    gives.  Complex rows go to :func:`_rref` as they are.
    """
    rows, pivots = _rref(rows, field)
    if any(p == ncols for p in pivots):
        return None
    x = _read(rows, pivots, ncols, ncols, field)
    return AffineSolution(_answer(ncols, 1, x, field), _kernel(rows, pivots, ncols, field))


def vec(square: Matrix, framing: Matrix) -> list[Scalar]:
    """The unknown vector of (square, framing): square column-major, then framing row-major."""
    n = square.rows
    return [square.entries[row * n + col] for col in range(n) for row in range(n)] + list(framing.entries)


def unvec(v: Matrix, n: int, framing_rows: int, framing_cols: int) -> tuple[Matrix, Matrix]:
    """Inverse of :func:`vec` on a column: (n x n square block, framing block)."""
    square = v.gather(n, n, [col * n + row for row in range(n) for col in range(n)])
    return square, v.gather(framing_rows, framing_cols, range(n * n, n * n + framing_rows * framing_cols))


def add_sandwich(rows: list[list], a: Sequence, b: Sequence, zr: int, zc: int, *, eq_row: int, unknown_col: int) -> None:
    """Add the coefficients of Z |-> A Z B, Z a zr x zc block, into a system's rows, one list per equation.

    A and B are row-major sequences of integer numerators, Fractions or
    complex entries, A with zr columns and B with zc rows and bc columns.
    Entry (p, q) of A Z B is equation ``eq_row + p * bc + q``; its
    coefficient A[p, k] * B[l, q] of Z[k, l] is added at column
    ``l * zr + k`` when Z is the square block, which ``vec`` lists first,
    column-major (``unknown_col`` 0), and at ``unknown_col + k * zc + l``
    when Z is the framing block, row-major from column n^2 >= 1.  Only the
    nonzero entries of A and B are visited, in order, and a row may hold
    more columns than the unknowns, such as a right-hand side.  A term
    -(Z |-> A Z B) is added as Z |-> (-A) Z B.  Rational rows start from the
    int 0: ``moduli._end_rows`` adds integer numerators into them and
    ``koszul._fiber_system`` Fraction coefficients, so a fiber row holds a
    Fraction only at the columns a term reaches, and ``solve_cm_fiber``
    takes its numerators row by row.
    """
    bc = len(b) // zc
    k_step, l_step = (zc, 1) if unknown_col else (1, zr)
    a_nz = [(eq_row + t // zr * bc, unknown_col + t % zr * k_step, x) for t, x in enumerate(a) if x]
    b_nz = [(t % bc, t // bc * l_step, y) for t, y in enumerate(b) if y]
    for eq, col, x in a_nz:
        for q, c, y in b_nz:
            rows[eq + q][col + c] += x * y


def power(var: str, k: int) -> str:
    """The monomial ``var^k``: ``""`` for k = 0, ``var`` for k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def format_terms(terms: Iterable[tuple[object, str]], sep: str = "") -> str:
    """Print a sum of (coefficient, monomial) pairs in the order given; ``""`` is the constant monomial.

    A coefficient is printed with ``str``, so it may come printed already.
    One equal to +-1, or printed as "1" or "-1", is dropped before a
    monomial; any other is joined to it by ``sep``.  "+ -" is printed as
    "- ", and the empty sum as "0".
    """
    parts = []
    for c, mono in terms:
        s = str(c)
        if not mono:
            parts.append(s)
        elif s == "1" or c == 1:
            parts.append(mono)
        elif s == "-1" or c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{s}{sep}{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def char_poly(a: Matrix) -> list[Scalar]:
    """Coefficients of det(tI - A), ascending in t; monic of degree n.

    Computed by the Faddeev-LeVerrier recurrence, which stays in the field
    (the only divisions are by 1..n).  The rational one runs on integer
    lists, with no Matrix per step: M_(k-1) is numerators over e, A M_(k-1)
    is one :func:`_product` with the numerators of A, over d = d_A e, and
    c_k = -tr(A M_(k-1)) / k is the one Fraction of the step.  M_k = A M_(k-1)
    + c_k I is then (p/q) d added on the diagonal, over d q, reduced by
    :func:`_reduced`.  The last step needs only c_0 = -tr(A M_(n-1)) / n,
    which :func:`_trace_sum` takes from the two integer lists, so a matrix of
    size n takes n - 1 products.  A complex AM + cI is made entrywise, since
    adding c only on the diagonal could flip the sign of a float zero.
    """
    if a.rows != a.cols:
        raise ShapeError("char_poly needs a square matrix")
    n = a.rows
    field = a.field
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    if field.is_rational:
        (x, dx), m, e = a._integer_form(), [int(t % (n + 1) == 0) for t in range(n * n)], 1
        for k in range(1, n):
            am, d = _product(x, m, n, n, n, 0), dx * e
            c = coeffs[n - k] = Fraction(-sum(am[:: n + 1]), d * k)
            p, q = c.numerator, c.denominator
            m, e = _reduced([v * q + p * d if t % (n + 1) == 0 else v * q for t, v in enumerate(am)], d * q)
        if n:
            coeffs[0] = Fraction(-_trace_sum(x, m, n, n), dx * e * n)
        return coeffs
    eye = m = Matrix.identity(n, field)
    for k in range(1, n + 1):
        am = a @ m
        c = coeffs[n - k] = -am.trace() / k
        m = am + c * eye
    return coeffs


def eval_matrix_poly(coeffs: Iterable, x: Matrix) -> Matrix:
    """Evaluate sum_k coeffs[k] * X^k (coefficients ascending)."""
    if x.rows != x.cols:
        raise ShapeError("matrix polynomial needs a square matrix")
    cs = [x.field.coerce(c) for c in coeffs]
    if not cs:
        return Matrix.zeros(x.rows, x.cols, x.field)
    eye = Matrix.identity(x.rows, x.field)
    acc = cs[-1] * eye
    for c in reversed(cs[:-1]):
        acc = acc @ x + c * eye
    return acc


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a
