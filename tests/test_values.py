"""The model objects, matrices, ring elements and result records are immutable values.

Equal copies compare equal and hash alike, changing any one field makes them
unequal, assignment raises ``AttributeError``, the repr names every field in
constructor order, pickling and copying keep the value, and the
construction errors are the documented ones.
"""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import cmkit
from cmkit import (
    CMQuadruple,
    Field,
    FiberSolution,
    FramedTorsionSheaf,
    HilbertIdeal,
    KoszulTriple,
    Matrix,
    MicrolocalElement,
    PolyCovector,
    RATIONAL,
    ShapeError,
    SupportReport,
    WeylElement,
    complex_field,
    hilbert_ideal,
)
from cmkit.linalg import Blocks, Value

F = Fraction
A, B = Matrix(1, 1, (F(1),), RATIONAL), Matrix(1, 1, (F(2),), RATIONAL)
ROW = Matrix(1, 2, (F(1), F(2)), RATIONAL)
PA, PB = PolyCovector((A,)), PolyCovector((A, B))
TERMS, OTHER_TERMS = (((1, 0), F(1)),), (((1, 0), F(2)), ((0, 1), F(1)))
NAMES = {
    Matrix: ("rows", "cols", "entries", "field"),
    PolyCovector: ("coeffs",),
    MicrolocalElement: ("terms", "floor"),
    WeylElement: ("terms", "floor"),
    Field: ("name", "tolerance"),
    FiberSolution: ("X", "i", "particular_Y", "particular_j", "kernel_basis"),
    HilbertIdeal: ("monomials", "basis", "quotient_dim", "degree_bound"),
    SupportReport: ("in_support", "fiber_dim"),
    **{kind: tuple(b.name for b in kind.BLOCKS) for kind in (CMQuadruple, KoszulTriple, FramedTorsionSheaf)},
}
# (class, constructor arguments, {argument index: another valid value}); together
# the rows change every field of every class once.
VALUES = [
    (Matrix, (0, 2, (), RATIONAL), {1: 3}),
    (Matrix, (2, 0, (), RATIONAL), {0: 3}),
    (Matrix, (1, 2, (F(1), F(2)), RATIONAL), {2: (F(1), F(3)), 3: complex_field()}),
    (PolyCovector, ((A,),), {0: (B,)}),
    (MicrolocalElement, (TERMS, None), {0: OTHER_TERMS, 1: -2}),
    (WeylElement, (TERMS, None), {0: OTHER_TERMS}),
    (Field, ("complex", 1e-9), {0: "rational", 1: 1e-6}),
    (CMQuadruple, (A, A, A, A), {0: B, 1: B, 2: B, 3: B}),
    (KoszulTriple, (A, A, A, PA), {0: B, 1: B, 2: B, 3: PB}),
    (FramedTorsionSheaf, (A, A), {0: B, 1: B}),
    (FiberSolution, (A, A, A, A, ((A, A),)), {0: B, 1: B, 2: B, 3: B, 4: ()}),
    (HilbertIdeal, (((0, 0),), (), 1, 0), {0: ((1, 0),), 1: ((((0, 0), F(1)),),), 2: 2, 3: 1}),
    (SupportReport, (True, 2), {0: False, 1: None}),
    (HilbertIdeal, (((0, 0), (1, 0)), ((((1, 0), F(1)),),), 1, 1), {1: ((((1, 0), F(2)),),)}),
    (Matrix, (1, 2, (1j, complex(-0.0, 2.0)), complex_field()), {2: (1j, 3j)}),
]
IDS = [f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(VALUES)]
# These define + or * or [], so they must not be tuples: m * 2 would repeat the entries.
NOT_TUPLES = (Matrix, PolyCovector, CMQuadruple, KoszulTriple, FramedTorsionSheaf)


@pytest.mark.parametrize("cls, args, changes", VALUES, ids=IDS)
def test_equal_copies_are_equal_and_hash_alike(cls, args, changes):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, args, changes", VALUES, ids=IDS)
def test_changing_one_field_makes_them_unequal(cls, args, changes):
    base = cls(*args)
    for k, value in changes.items():
        changed = cls(*args[:k], value, *args[k + 1 :])
        assert changed != base and base != changed, NAMES[cls][k]


@pytest.mark.parametrize("cls, args", [(cls, args) for cls, args, _ in VALUES if cls in NOT_TUPLES])
def test_never_equal_to_a_tuple_of_the_fields(cls, args):
    obj = cls(*args)
    assert obj != tuple(args) and tuple(args) != obj
    assert not isinstance(obj, tuple)


def test_matrix_times_an_int_on_the_right_is_a_type_error():
    with pytest.raises(TypeError):
        ROW * 2
    assert 2 * ROW == Matrix(1, 2, (F(2), F(4)), RATIONAL)


@pytest.mark.parametrize("cls, args, changes", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, changes):
    obj = cls(*args)
    for name in NAMES[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(*args)


@pytest.mark.parametrize("cls, args, changes", VALUES, ids=IDS)
def test_repr_names_every_field_in_order(cls, args, changes):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(NAMES[cls], args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, args, changes", VALUES, ids=IDS)
def test_pickle_and_copy_keep_the_value(cls, args, changes):
    obj = cls(*args)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj


# (class, constructor arguments, index of the sequence argument, a new first item for it).
LISTED = [
    (Matrix, (1, 2, (F(1), F(2)), RATIONAL), 2, F(7)),
    (Matrix, (1, 2, (1j, 2j), complex_field()), 2, 7j),
    (PolyCovector, ((A,),), 0, B),
    (MicrolocalElement, (OTHER_TERMS, None), 0, ((0, -3), F(5))),
    (WeylElement, (OTHER_TERMS, None), 0, ((0, -1), F(1))),
]


@pytest.mark.parametrize("cls, args, k, item", LISTED, ids=[f"{cls.__name__}-{n}" for n, (cls, *_) in enumerate(LISTED)])
def test_a_value_built_from_a_list_keeps_its_own_tuple(cls, args, k, item):
    """Editing the caller's list afterwards changes nothing: the value equals, hashes and prints like the one
    built from the tuple, and a Weyl element keeps only the terms it checked."""
    items = list(args[k])
    value = cls(*args[:k], items, *args[k + 1 :])
    items[0] = item
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert repr(value) == repr(cls(*args)) and str(value) == str(cls(*args))


def test_ring_elements_compare_by_value_across_kinds():
    assert WeylElement(TERMS, None) == MicrolocalElement(TERMS, None)
    assert hash(WeylElement(TERMS, None)) == hash(MicrolocalElement(TERMS, None))
    assert WeylElement(TERMS, None) != MicrolocalElement(TERMS, -2)


def test_blocks_of_different_kinds_differ():
    assert FramedTorsionSheaf(A, A) != CMQuadruple(A, A, A, A)
    assert FramedTorsionSheaf(A, A) != KoszulTriple(A, A, A, PA)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Matrix(2, 2, (F(1),), RATIONAL),
        lambda: Matrix(-1, 0, (), RATIONAL),
        lambda: PolyCovector(()),
        lambda: PolyCovector((A, ROW)),
        lambda: PolyCovector((A, Matrix(1, 1, (F(0),), RATIONAL))),
        lambda: CMQuadruple(ROW, A, A, A),
        lambda: KoszulTriple(A, A, A, PolyCovector((ROW,))),
        lambda: FramedTorsionSheaf(A, Matrix(1, 1, (1 + 0j,), complex_field())),
    ],
    ids=["matrix-entries", "matrix-negative", "covector-empty", "covector-shapes", "covector-leading-zero",
         "quadruple-block", "triple-covector", "sheaf-field"],
)
def test_bad_blocks_raise_shape_error(make):
    with pytest.raises(ShapeError):
        make()


@pytest.mark.parametrize("kind, count", [(CMQuadruple, 4), (KoszulTriple, 4), (FramedTorsionSheaf, 2)])
def test_wrong_number_of_blocks_is_a_type_error(kind, count):
    with pytest.raises(TypeError):
        kind(*[A] * (count - 1))
    with pytest.raises(TypeError):
        kind(*[A] * (count + 1))


@pytest.mark.parametrize("args", [(TERMS, 0), ((((0, -1), F(1)),), None)], ids=["floor", "negative-power"])
def test_weyl_element_refuses_floor_and_negative_powers(args):
    with pytest.raises(ValueError):
        WeylElement(*args)


def test_hilbert_ideal_is_a_value():
    # two points (0, 0) and (1, 0): the basis is nonempty
    q = CMQuadruple(Matrix.from_rows([[0, 0], [0, 1]]), Matrix.zeros(2, 2), Matrix.column([1, 1]), Matrix.zeros(1, 2))
    ideal = hilbert_ideal(q, 2)
    assert ideal.basis and ideal == hilbert_ideal(q, 2) and hash(ideal) == hash(hilbert_ideal(q, 2))
    assert ideal.basis[0] == (((0, 1), F(1)),)  # y, as ((a, b), c) pairs in poly_str order
    with pytest.raises(TypeError):
        ideal.basis[0][0] = ((0, 1), F(2))
    assert ideal == hilbert_ideal(q, 2)


# A 2 x 1 times a 1 x 2 product, and the same matrix built from its entries.
FACTORS = (Matrix(2, 1, (F(1, 2), F(-3)), RATIONAL), Matrix(1, 2, (F(2, 3), F(5, 7)), RATIONAL))
BUILT = Matrix(2, 2, (F(1, 3), F(5, 14), F(-2), F(-15, 7)), RATIONAL)
TWINS = {
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _product() -> Matrix:
    """A fresh product of FACTORS, whose entries are not built yet."""
    m = FACTORS[0] @ FACTORS[1]
    assert m._entries is None
    return m


def test_product_is_the_matrix_of_its_entries():
    assert _product() == BUILT and BUILT == _product() and not _product() != BUILT
    assert hash(_product()) == hash(BUILT)
    assert repr(_product()) == repr(BUILT)
    assert str(_product()) == str(BUILT)
    assert _product() != Matrix(2, 2, (F(1, 3), F(5, 14), F(-2), F(15, 7)), RATIONAL)


@pytest.mark.parametrize("twin", TWINS.values(), ids=TWINS)
def test_product_survives_pickle_and_copy(twin):
    got = twin(_product())
    assert type(got) is Matrix and got == BUILT and hash(got) == hash(BUILT)


def test_product_fields_cannot_be_assigned_or_deleted():
    m = _product()
    for name in NAMES[Matrix]:
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(BUILT, name))
        with pytest.raises(AttributeError):
            delattr(m, name)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m == BUILT


def test_every_value_class_is_in_the_contract_table():
    for module in pkgutil.iter_modules(cmkit.__path__):
        importlib.import_module(f"cmkit.{module.name}")
    found, todo = [], [Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += subclasses
        todo += subclasses
    concrete = [cls for cls in found if cls is not Blocks and cls.__module__.startswith("cmkit.")]
    assert {cls for cls in NAMES if issubclass(cls, Value)} <= set(concrete)
    for cls in concrete:
        assert cls in NAMES, cls.__name__
        assert NAMES[cls] == cls._FIELDS, cls.__name__
