"""Every model object checks one rule at construction, read from its ``BLOCKS``: n, r >= 1, block shapes, one field."""

from __future__ import annotations

import pytest

from cmkit import CMQuadruple, FramedTorsionSheaf, KoszulTriple, Matrix, PolyCovector, RATIONAL, ShapeError, complex_field
from cmkit.serialize import write_document

KINDS = [CMQuadruple, KoszulTriple, FramedTorsionSheaf]


def block_value(block, rows, cols, field=RATIONAL):
    """A block of the given shape with every entry 1; a covector gets two such coefficients (one if they are empty)."""
    m = Matrix(rows, cols, (field.one,) * (rows * cols), field)
    return PolyCovector.from_coeffs([m, m]) if block.type == "covector" else m


def build(kind, n, r, *, wrong=None, field_of=None):
    """The ``kind`` object of size (n, r); block ``wrong`` gets a (rows + dr, cols + dc) shape, block ``field_of`` the complex field."""
    size = {"n": n, "r": r}
    values = []
    for b in kind.BLOCKS:
        rows, cols = size[b.shape[0]], size[b.shape[1]]
        if wrong is not None and wrong[0] == b.name:
            rows, cols = rows + wrong[1], cols + wrong[2]
        field = complex_field() if b.name == field_of else RATIONAL
        values.append(block_value(b, rows, cols, field))
    return kind(*values)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_valid_blocks_construct(kind):
    obj = build(kind, 3, 2)
    assert (obj.n, obj.r, obj.field) == (3, 2, RATIONAL)
    assert list(write_document(obj)) == ["n", "r", "field", *(b.name for b in kind.BLOCKS)]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("n, r", [(0, 1), (0, 2), (2, 0), (0, 0)])
def test_empty_size_is_refused(kind, n, r):
    with pytest.raises(ShapeError, match="n >= 1 and r >= 1"):
        build(kind, n, r)


# Each block with one row or one column too many.  The one exception is the
# sheaf's i with one more column: no other block of a sheaf has r columns or
# rows, so that is a valid sheaf of rank 2.
WRONG_SHAPES = [
    (k, b.name, dr, dc)
    for k in KINDS
    for b in k.BLOCKS
    for dr, dc in ((1, 0), (0, 1))
    if (k, b.name, dc) != (FramedTorsionSheaf, "i", 1)
]


@pytest.mark.parametrize("kind, name, dr, dc", WRONG_SHAPES, ids=lambda v: getattr(v, "__name__", v))
def test_each_wrong_block_shape_is_refused(kind, name, dr, dc):
    with pytest.raises(ShapeError):
        build(kind, 2, 1, wrong=(name, dr, dc))


@pytest.mark.parametrize("kind, name", [(k, b.name) for k in KINDS for b in k.BLOCKS],
                         ids=lambda v: getattr(v, "__name__", v))
def test_each_block_in_another_field_is_refused(kind, name):
    with pytest.raises(ShapeError, match="one field"):
        build(kind, 2, 1, field_of=name)
