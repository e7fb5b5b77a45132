"""Normal-ordered arithmetic in the first Weyl algebra and its microlocalization.

Elements of the Weyl algebra C[x]<d> (with the relation d*x = x*d + 1) are
stored in normal order: every monomial is x^a d^b with a, b >= 0.  The
microlocal ring adjoins inverse powers of d; its elements are finite
truncations of formal series that may extend infinitely in negative
d-degree, so arithmetic tracks an explicit trust floor below which
coefficients are unknown.

The single rewriting fact everything rests on is the finite expansion

    d^b * x^c = sum_{k=0}^{c} binom(b, k) * c!/(c-k)! * x^(c-k) d^(b-k)

valid for every integer b (binom is the generalized binomial coefficient).
For b >= 0 this is ordinary normal ordering; for b < 0 it is forced order by
order by inverting d*x = x*d + 1, and it is validated against that inversion
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .linalg import rank  # noqa: F401  (bench/spans.py wraps weyl.rank)

TermKey = tuple[int, int]  # (x power, d power)


class ZeroElementError(ValueError):
    """The zero element has no order."""


class CutoffExhausted(ArithmeticError):
    """Every computed term fell below the trust floor of a truncated product."""


def _clean(terms: Mapping[TermKey, Fraction]) -> tuple[tuple[TermKey, Fraction], ...]:
    return tuple(sorted((k, c) for k, c in terms.items() if c != 0))


def _gbinom(b: int, k: int) -> int:
    """Generalized binomial coefficient b(b-1)...(b-k+1)/k!; exact for int b."""
    num = 1
    for t in range(k):
        num *= b - t
    den = 1
    for t in range(2, k + 1):
        den *= t
    q, r = divmod(num, den)
    assert r == 0
    return q


def _falling(c: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= c - t
    return out


def _normal_order_product(
    u: Iterable[tuple[TermKey, Fraction]], v: Iterable[tuple[TermKey, Fraction]]
) -> dict[TermKey, Fraction]:
    out: dict[TermKey, Fraction] = {}
    for (a1, b1), c1 in u:
        for (a2, b2), c2 in v:
            coeff = c1 * c2
            for k in range(a2 + 1):
                w = coeff * _gbinom(b1, k) * _falling(a2, k)
                if w == 0:
                    continue
                key = (a1 + a2 - k, b1 + b2 - k)
                out[key] = out.get(key, Fraction(0)) + w
    return out


@dataclass(frozen=True)
class WeylElement:
    """Finite sum of c_{a,b} x^a d^b in normal order (all x left of all d)."""

    terms: tuple[tuple[TermKey, Fraction], ...]

    @staticmethod
    def from_terms(terms: Mapping[TermKey, object]) -> "WeylElement":
        frac = {}
        for (a, b), c in terms.items():
            if a < 0 or b < 0:
                raise ValueError(f"Weyl monomial powers must be nonnegative, got {(a, b)}")
            frac[(a, b)] = Fraction(c)
        return WeylElement(_clean(frac))

    def as_dict(self) -> dict[TermKey, Fraction]:
        return dict(self.terms)

    def coeff(self, a: int, b: int) -> Fraction:
        return dict(self.terms).get((a, b), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WeylElement") -> "WeylElement":
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return WeylElement(_clean(acc))

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "WeylElement":
        s = Fraction(scalar)
        return WeylElement(_clean({k: s * c for k, c in self.terms}))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self.terms, key=lambda t: (-t[0][1], -t[0][0])):
            mono = "".join(
                [f"x^{a}" if a not in (0, 1) else "x" if a == 1 else "",
                 f"∂^{b}" if b not in (0, 1) else "∂" if b == 1 else ""]
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}·{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def weyl_element(terms: Mapping[TermKey, object]) -> WeylElement:
    return WeylElement.from_terms(terms)


def x_pow(a: int, coeff=1) -> WeylElement:
    return WeylElement.from_terms({(a, 0): coeff})


def d_pow(b: int, coeff=1) -> WeylElement:
    return WeylElement.from_terms({(0, b): coeff})


WEYL_ONE = WeylElement.from_terms({(0, 0): 1})
WEYL_ZERO = WeylElement(())


def weyl_mul(u: WeylElement, v: WeylElement) -> WeylElement:
    return WeylElement(_clean(_normal_order_product(u.terms, v.terms)))


def order(u: WeylElement) -> int:
    """Maximal d-degree over the stored terms; the zero element has none."""
    if u.is_zero():
        raise ZeroElementError("order of the zero element is undefined")
    return max(b for (_, b), _ in u.terms)


@dataclass(frozen=True)
class MicrolocalElement:
    """Truncated element of the microlocal ring C[x]((d^-1)).

    ``floor=None`` marks an exact finite Laurent element: absent coefficients
    are exactly zero.  ``floor=f`` marks a truncation: coefficients with
    d-degree < f are unknown, and arithmetic propagates the floor so that
    stored terms are always correct.
    """

    terms: tuple[tuple[TermKey, Fraction], ...]
    floor: int | None = None

    @staticmethod
    def from_terms(terms: Mapping[TermKey, object], floor: int | None = None) -> "MicrolocalElement":
        frac = {}
        for (a, b), c in terms.items():
            if a < 0:
                raise ValueError(f"x powers must be nonnegative, got {(a, b)}")
            if floor is not None and b < floor:
                raise ValueError(f"stored term {(a, b)} lies below the floor {floor}")
            frac[(a, b)] = Fraction(c)
        return MicrolocalElement(_clean(frac), floor)

    @property
    def truncated(self) -> bool:
        return self.floor is not None

    def is_zero(self) -> bool:
        """True when every *trusted* coefficient vanishes."""
        return not self.terms

    @property
    def max_order(self) -> int:
        if not self.terms:
            raise ZeroElementError("order of a zero truncation is undefined")
        return max(b for (_, b), _ in self.terms)

    @property
    def min_order(self) -> int:
        """Lowest trusted d-degree: the floor if truncated, else the support minimum."""
        if self.floor is not None:
            return self.floor
        if not self.terms:
            raise ZeroElementError("the exact zero element has no support")
        return min(b for (_, b), _ in self.terms)

    def coeff(self, a: int, b: int) -> Fraction:
        if self.floor is not None and b < self.floor:
            raise CutoffExhausted(f"coefficient at d-degree {b} is below the trust floor {self.floor}")
        return dict(self.terms).get((a, b), Fraction(0))

    def truncate(self, floor: int) -> "MicrolocalElement":
        new_floor = floor if self.floor is None else max(self.floor, floor)
        kept = {k: c for k, c in self.terms if k[1] >= new_floor}
        return MicrolocalElement(_clean(kept), new_floor)

    def __add__(self, other: "MicrolocalElement") -> "MicrolocalElement":
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        floors = [f for f in (self.floor, other.floor) if f is not None]
        floor = max(floors) if floors else None
        if floor is not None:
            acc = {k: c for k, c in acc.items() if k[1] >= floor}
        return MicrolocalElement(_clean(acc), floor)

    def __sub__(self, other: "MicrolocalElement") -> "MicrolocalElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "MicrolocalElement":
        s = Fraction(scalar)
        return MicrolocalElement(_clean({k: s * c for k, c in self.terms}), self.floor)

    def __mul__(self, other: "MicrolocalElement") -> "MicrolocalElement":
        return micro_mul(self, other)

    def __str__(self) -> str:
        body = str(WeylElement(self.terms)) if self.terms else "0"
        # WeylElement.__str__ tolerates negative d powers; reuse its formatting.
        if self.floor is not None:
            return f"{body} + O(∂^{self.floor - 1})"
        return body


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
        return MicrolocalElement(_clean(prod), None)
    floor = max(ceilings) + 1
    kept = {k: c for k, c in prod.items() if k[1] >= floor and c != 0}
    if not kept and any(c != 0 for c in prod.values()):
        raise CutoffExhausted(
            f"all product terms lie below the trust floor {floor}; "
            "widen the input truncations"
        )
    return MicrolocalElement(_clean(kept), floor)


class CechRanks(NamedTuple):
    h0_rank: int
    h1_rank: int
    certified: bool


def _window_ranks(twist: int, w: int) -> tuple[Fraction, Fraction]:
    """Kernel and cokernel ranks per x-degree of the difference map on a window.

    The window keeps x-degrees 0..w and d-degrees -w..w.  The map sends a
    pair (D, e) with D a differential operator (d-degrees 0..w) and e a
    microlocal element of d-degree <= twist to the difference D - e.  Both
    ranks are returned per x-degree slice; they are integers exactly when the
    windowed kernel and cokernel are free over C[x] restricted to the window.
    """
    # Every column of the window map is a +-unit vector at (a, b): D sends
    # x^a d^b to itself and e sends it to its negative.  So the rank is the
    # number of distinct codomain monomials hit, (w + 1) per d-degree.
    d_degrees = range(0, w + 1)
    e_degrees = range(-w, min(twist, w) + 1)
    nrows = (w + 1) * (2 * w + 1)
    ncols = (w + 1) * (len(d_degrees) + len(e_degrees))
    r = (w + 1) * len(set(d_degrees) | set(e_degrees))
    per_x = Fraction(1, w + 1)
    return Fraction(ncols - r) * per_x, Fraction(nrows - r) * per_x


def cech_graded_ranks(twist: int, cutoff: int) -> CechRanks:
    """Degree-zero cohomology ranks of the two-term complex D + E^twist -> E.

    The kernel is the operators of order at most ``twist`` (a free module of
    rank twist+1 over the polynomial coefficients when twist >= 0); the
    cokernel is the gap of negative orders between twist and -1.  Both are
    computed by exact rank calculations on two successive finite windows and
    certified when the windows agree.
    """
    if cutoff < abs(twist) + 2:
        raise ValueError(f"cutoff {cutoff} is too small to certify stabilization; need >= {abs(twist) + 2}")
    prev = _window_ranks(twist, cutoff - 1)
    last = _window_ranks(twist, cutoff)
    integral = all(v.denominator == 1 for v in (*prev, *last))
    certified = integral and prev == last
    return CechRanks(int(last[0]), int(last[1]), certified)
