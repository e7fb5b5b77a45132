"""Normal-ordered arithmetic in the first Weyl algebra and its microlocalization.

Elements of the Weyl algebra C[x]<d> (with the relation d*x = x*d + 1) are
stored in normal order: every monomial is x^a d^b with a, b >= 0.  The
microlocal ring adjoins inverse powers of d; its elements are finite
truncations of formal series that may extend infinitely in negative
d-degree, so arithmetic tracks an explicit trust floor below which
coefficients are unknown.

The Weyl algebra sits inside the microlocal ring, and the types say so:
``WeylElement`` is the exact, nonnegative-d case of ``MicrolocalElement``
(no floor, every d power >= 0), and all arithmetic is written once, on the
latter.  A sum, difference or product of two Weyl elements, and a scalar
times a Weyl element, is a ``WeylElement``; anything that involves a
``MicrolocalElement`` is a ``MicrolocalElement`` carrying the propagated
floor.  Elements compare by value, ``(terms, floor)``, so a Weyl element
equals its embedding; a scalar (``int`` or ``Fraction``) may stand on either
side of ``*``.

The single rewriting fact everything rests on is the finite expansion

    d^b * x^c = sum_{k=0}^{c} binom(b, k) * c!/(c-k)! * x^(c-k) d^(b-k)

valid for every integer b (binom is the generalized binomial coefficient).
For b >= 0 this is ordinary normal ordering; for b < 0 it is forced order by
order by inverting d*x = x*d + 1, and it is validated against that inversion
in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable, Mapping, NamedTuple

from .linalg import Value, _set, format_terms, power
from .linalg import rank  # noqa: F401  (tracer sites: bench/spans.py wraps them)

TermKey = tuple[int, int]  # (x power, d power)


class ZeroElementError(ValueError):
    """The zero element has no order."""


class CutoffExhausted(ArithmeticError):
    """Every computed term fell below the trust floor of a truncated product."""


def _clean(terms: Mapping[TermKey, Fraction]) -> tuple[tuple[TermKey, Fraction], ...]:
    return tuple(sorted((k, c) for k, c in terms.items() if c != 0))


def _gbinom(b: int, k: int) -> int:
    """Generalized binomial coefficient b(b-1)...(b-k+1)/k!; for b < 0 it is (-1)^k binom(k - b - 1, k)."""
    return comb(b, k) if b >= 0 else (-1) ** k * comb(k - b - 1, k)


def _normal_order_product(
    u: Iterable[tuple[TermKey, Fraction]], v: Iterable[tuple[TermKey, Fraction]]
) -> dict[TermKey, Fraction]:
    out: dict[TermKey, Fraction] = {}
    for (a1, b1), c1 in u:
        for (a2, b2), c2 in v:
            coeff = c1 * c2
            for k in range(a2 + 1):
                w = coeff * _gbinom(b1, k) * perm(a2, k)
                if w == 0:
                    continue
                key = (a1 + a2 - k, b1 + b2 - k)
                out[key] = out.get(key, Fraction(0)) + w
    return out


def _terms_str(terms: Iterable[tuple[TermKey, Fraction]]) -> str:
    """Terms c x^a ∂^b printed by descending ∂ power, then descending x power."""
    ordered = sorted(terms, key=lambda t: (-t[0][1], -t[0][0]))
    return format_terms(((c, power("x", a) + power("∂", b)) for (a, b), c in ordered), "·")


class MicrolocalElement(Value):
    """Truncated element of the microlocal ring C[x]((d^-1)).

    ``floor=None`` marks an exact finite Laurent element: absent coefficients
    are exactly zero.  ``floor=f`` marks a truncation: coefficients with
    d-degree < f are unknown, and arithmetic propagates the floor so that
    stored terms are always correct.  Elements are immutable.
    """

    __slots__ = _FIELDS = ("terms", "floor")

    def __init__(self, terms: tuple[tuple[TermKey, Fraction], ...], floor: int | None = None) -> None:
        _set(self, "terms", tuple(terms))
        _set(self, "floor", floor)

    @classmethod
    def from_terms(cls, terms: Mapping[TermKey, object], floor: int | None = None) -> "MicrolocalElement":
        frac = {}
        for (a, b), c in terms.items():
            if a < 0:
                raise ValueError(f"x powers must be nonnegative, got {(a, b)}")
            if floor is not None and b < floor:
                raise ValueError(f"stored term {(a, b)} lies below the floor {floor}")
            frac[(a, b)] = Fraction(c)
        return cls(_clean(frac), floor)

    @property
    def truncated(self) -> bool:
        return self.floor is not None

    def is_zero(self) -> bool:
        """True when every *trusted* coefficient vanishes."""
        return not self.terms

    @property
    def max_order(self) -> int:
        """Maximal d-degree over the stored terms; the zero element has none."""
        if not self.terms:
            raise ZeroElementError("order of the zero element is undefined")
        return max(b for (_, b), _ in self.terms)

    def coeff(self, a: int, b: int) -> Fraction:
        if self.floor is not None and b < self.floor:
            raise CutoffExhausted(f"coefficient at d-degree {b} is below the trust floor {self.floor}")
        return dict(self.terms).get((a, b), Fraction(0))

    def truncate(self, floor: int) -> "MicrolocalElement":
        new_floor = floor if self.floor is None else max(self.floor, floor)
        kept = {k: c for k, c in self.terms if k[1] >= new_floor}
        return MicrolocalElement(_clean(kept), new_floor)

    def __eq__(self, other) -> bool:
        """By value across kinds: a Weyl element equals its embedding."""
        if not isinstance(other, MicrolocalElement):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = Value.__hash__

    def __add__(self, other: "MicrolocalElement") -> "MicrolocalElement":
        if not isinstance(other, MicrolocalElement):
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        floors = [f for f in (self.floor, other.floor) if f is not None]
        floor = max(floors) if floors else None
        if floor is not None:
            acc = {k: c for k, c in acc.items() if k[1] >= floor}
        return _kind(self, other)(_clean(acc), floor)

    def __sub__(self, other: "MicrolocalElement") -> "MicrolocalElement":
        if not isinstance(other, MicrolocalElement):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar: int | Fraction) -> "MicrolocalElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return type(self)(_clean({k: scalar * c for k, c in self.terms}), self.floor)

    def __mul__(self, other: "MicrolocalElement | int | Fraction") -> "MicrolocalElement":
        if isinstance(other, MicrolocalElement):
            return micro_mul(self, other)
        return self.__rmul__(other)  # scalars commute with every element

    def __str__(self) -> str:
        body = _terms_str(self.terms)
        if self.floor is not None:
            return f"{body} + O(∂^{self.floor - 1})"
        return body


class WeylElement(MicrolocalElement):
    """Finite sum of c_{a,b} x^a d^b in normal order: no floor and every b >= 0.

    Equality and hash are the parent's, by value.
    """

    __slots__ = ()

    def __init__(self, terms: tuple[tuple[TermKey, Fraction], ...], floor: int | None = None) -> None:
        if floor is not None:
            raise ValueError(f"a Weyl element is exact and has no floor, got {floor}")
        terms = tuple(terms)
        for (a, b), _ in terms:
            if b < 0:
                raise ValueError(f"Weyl monomial powers must be nonnegative, got {(a, b)}")
        super().__init__(terms, floor)


def _kind(u: MicrolocalElement, v: MicrolocalElement) -> type[MicrolocalElement]:
    """Two Weyl elements give a Weyl element; anything else is microlocal."""
    return WeylElement if isinstance(u, WeylElement) and isinstance(v, WeylElement) else MicrolocalElement


def weyl_element(terms: Mapping[TermKey, object]) -> WeylElement:
    return WeylElement.from_terms(terms)


def x_pow(a: int, coeff=1) -> WeylElement:
    return WeylElement.from_terms({(a, 0): coeff})


def d_pow(b: int, coeff=1) -> WeylElement:
    return WeylElement.from_terms({(0, b): coeff})


WEYL_ZERO = WeylElement(())


def order(u: WeylElement) -> int:
    """Maximal d-degree over the stored terms; the zero element has none."""
    return u.max_order


def embed(u: WeylElement) -> MicrolocalElement:
    """The Weyl algebra sits inside the microlocal ring; embedding is exact."""
    return MicrolocalElement(u.terms, None)


def micro(terms: Mapping[TermKey, object], floor: int | None = None) -> MicrolocalElement:
    return MicrolocalElement.from_terms(terms, floor)


def d_inv(power: int = 1, coeff=1) -> MicrolocalElement:
    """The exact element d^(-power)."""
    return MicrolocalElement.from_terms({(0, -power): coeff})


def micro_mul(u: MicrolocalElement, v: MicrolocalElement) -> MicrolocalElement:
    """Product in the microlocal ring, correct above the propagated floor.

    An unknown tail O(d^(f-1)) in one factor contributes terms of d-degree at
    most (f-1) + max_order(other factor); everything strictly above that is
    exact, everything at or below it is discarded and the result is flagged.
    Raises :class:`CutoffExhausted` when nonzero computed terms exist but all
    of them fall below the propagated floor.
    """
    prod = _normal_order_product(u.terms, v.terms)
    ceilings = []
    if u.floor is not None:
        if v.terms:
            ceilings.append(u.floor - 1 + v.max_order)
        if v.floor is not None:
            ceilings.append(u.floor - 1 + v.floor - 1)
    if v.floor is not None and u.terms:
        ceilings.append(v.floor - 1 + u.max_order)
    if not ceilings:
        return _kind(u, v)(_clean(prod), None)
    floor = max(ceilings) + 1
    kept = {k: c for k, c in prod.items() if k[1] >= floor and c != 0}
    if not kept and any(c != 0 for c in prod.values()):
        raise CutoffExhausted(
            f"all product terms lie below the trust floor {floor}; "
            "widen the input truncations"
        )
    return MicrolocalElement(_clean(kept), floor)


# The product of two Weyl elements is a Weyl element, so the Weyl algebra
# needs no product of its own.
weyl_mul = micro_mul


class CechRanks(NamedTuple):
    """Degree-zero cohomology ranks of D + E^twist -> E; ``certified`` is always True.

    On a window with x-degrees 0..w and d-degrees -w..w, w > |twist|, every
    column of the difference map is a +-unit vector (D sends x^a d^b to itself
    and e to its negative), so both ranks per x-degree are the closed form.
    """

    h0_rank: int
    h1_rank: int
    certified: bool


def cech_graded_ranks(twist: int, cutoff: int | None = None) -> CechRanks:
    """Degree-zero cohomology ranks of the two-term complex D + E^twist -> E.

    The map sends (D, e), D a differential operator and e a microlocal element
    of d-degree <= ``twist``, to D - e.  Its kernel is the operators of order
    at most ``twist``, of rank max(0, twist + 1) over the polynomial
    coefficients, and its cokernel the gap of negative orders between twist
    and -1, of rank max(0, -1 - twist); the ranks are that closed form and
    need no cutoff.  A ``cutoff`` below |twist| + 2 is refused: the windows
    w = cutoff - 1 and w = cutoff that it names must both exceed |twist|.
    """
    need = abs(twist) + 2
    if cutoff is not None and cutoff < need:
        raise ValueError(f"cutoff {cutoff} names a window no wider than |twist| = {abs(twist)}; need >= {need}")
    return CechRanks(max(0, twist + 1), max(0, -1 - twist), True)
