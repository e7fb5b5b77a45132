from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cmkit import (
    CutoffExhausted,
    MicrolocalElement,
    WeylElement,
    ZeroElementError,
    cech_graded_ranks,
    d_inv,
    d_pow,
    embed,
    micro,
    micro_mul,
    order,
    weyl_element,
    weyl_mul,
    x_pow,
)

# --- independent oracle: string rewriting with the single rule dx -> xd + 1 ---


def _rewrite_word(word: str) -> dict[str, Fraction]:
    """Normal order a word in letters x, d by repeatedly applying dx -> xd + 1."""
    acc = {word: Fraction(1)}
    while True:
        target = next((w for w in acc if "dx" in w), None)
        if target is None:
            return acc
        coeff = acc.pop(target)
        k = target.index("dx")
        swapped = target[:k] + "xd" + target[k + 2 :]
        dropped = target[:k] + target[k + 2 :]
        acc[swapped] = acc.get(swapped, Fraction(0)) + coeff
        acc[dropped] = acc.get(dropped, Fraction(0)) + coeff
        acc = {w: c for w, c in acc.items() if c != 0}


def _oracle_product(a1: int, b1: int, a2: int, b2: int) -> WeylElement:
    terms: dict[tuple[int, int], Fraction] = {}
    for w, c in _rewrite_word("x" * a1 + "d" * b1 + "x" * a2 + "d" * b2).items():
        key = (w.count("x"), w.count("d"))
        terms[key] = terms.get(key, Fraction(0)) + c
    return WeylElement.from_terms(terms)


def test_defining_relation():
    assert weyl_mul(d_pow(1), x_pow(1)) == weyl_element({(1, 1): 1, (0, 0): 1})


def test_commuting_generators():
    assert weyl_mul(x_pow(1), x_pow(1)) == x_pow(2)


def test_d2_x2_against_rewrite_oracle():
    expected = _oracle_product(0, 2, 2, 0)
    assert expected == weyl_element({(2, 2): 1, (1, 1): 4, (0, 0): 2})
    assert weyl_mul(d_pow(2), x_pow(2)) == expected


def test_monomial_products_against_rewrite_oracle():
    for a1 in range(3):
        for b1 in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    got = weyl_mul(weyl_element({(a1, b1): 1}), weyl_element({(a2, b2): 1}))
                    assert got == _oracle_product(a1, b1, a2, b2)


def test_commutator_d_x_is_one():
    d, x = d_pow(1), x_pow(1)
    assert weyl_mul(d, x) - weyl_mul(x, d) == weyl_element({(0, 0): 1})


def _rand_weyl(rng: random.Random, max_deg: int = 5, nterms: int = 4) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylElement.from_terms(terms)


def test_associativity_random():
    rng = random.Random(29)
    for _ in range(60):
        u, v, w = (_rand_weyl(rng) for _ in range(3))
        assert weyl_mul(weyl_mul(u, v), w) == weyl_mul(u, weyl_mul(v, w))


def test_order():
    assert order(weyl_element({(1, 1): 1, (0, 0): 1})) == 1
    assert order(x_pow(5)) == 0
    with pytest.raises(ZeroElementError):
        order(WeylElement(()))


def test_order_multiplicative():
    rng = random.Random(31)
    for _ in range(40):
        u, v = _rand_weyl(rng), _rand_weyl(rng)
        if u.is_zero() or v.is_zero():
            continue
        assert order(weyl_mul(u, v)) == order(u) + order(v)


# --- microlocal ring ---


def test_embed_agrees_with_weyl_mul():
    rng = random.Random(37)
    for _ in range(40):
        u, v = _rand_weyl(rng, max_deg=4), _rand_weyl(rng, max_deg=4)
        assert micro_mul(embed(u), embed(v)) == embed(weyl_mul(u, v))


def test_inverse_pair_exact():
    assert micro_mul(embed(d_pow(1)), d_inv(1)) == embed(weyl_element({(0, 0): 1}))
    assert micro_mul(d_inv(1), embed(d_pow(1))) == embed(weyl_element({(0, 0): 1}))
    assert micro_mul(d_inv(2), embed(d_pow(2))) == embed(weyl_element({(0, 0): 1}))


def _oracle_d_inv_times_x(depth: int) -> dict[tuple[int, int], Fraction]:
    """Solve N = d^-1 x order by order from d N = x, using only d f = f d + f'.

    Coefficients q_b(x) of N = sum q_b(x) d^b satisfy q_{b-1} + q_b' = [b = 0] x
    going down from b = 0 (with q_0 = 0).  Polynomials are coefficient lists.
    """

    def derivative(p: list[Fraction]) -> list[Fraction]:
        return [k * c for k, c in enumerate(p)][1:] or [Fraction(0)]

    q: dict[int, list[Fraction]] = {0: [Fraction(0)]}
    rhs = {0: [Fraction(0), Fraction(1)]}  # the polynomial x at level b = 0
    for b in range(0, -depth, -1):
        target = rhs.get(b, [Fraction(0)])
        dq = derivative(q[b])
        width = max(len(target), len(dq))
        target = target + [Fraction(0)] * (width - len(target))
        dq = dq + [Fraction(0)] * (width - len(dq))
        q[b - 1] = [t - d for t, d in zip(target, dq)]
    out: dict[tuple[int, int], Fraction] = {}
    for b, poly in q.items():
        for a, c in enumerate(poly):
            if c != 0:
                out[(a, b)] = c
    return out


def test_d_inv_x_commutator_against_order_by_order_oracle():
    expected = MicrolocalElement.from_terms(_oracle_d_inv_times_x(6))
    got = micro_mul(d_inv(1), embed(x_pow(1)))
    assert got == expected
    assert got == micro({(1, -1): 1, (0, -2): -1})
    comm = got - micro_mul(embed(x_pow(1)), d_inv(1))
    assert comm == micro({(0, -2): -1})


def test_truncation_floor_propagates():
    u = d_inv(1).truncate(-3)  # d^-1 + O(d^-4)
    v = embed(d_pow(1))
    prod = micro_mul(u, v)
    assert prod.truncated
    assert prod.floor == -2
    assert prod.coeff(0, 0) == 1
    with pytest.raises(CutoffExhausted):
        prod.coeff(0, -5)


def test_truncated_tail_is_not_trusted():
    # (x d^-1 + unknown tail) squared: the d^-3 term is discarded, the
    # trusted d^-2 term survives.
    u = micro({(1, -1): 1}, floor=-1)
    sq = micro_mul(u, u)
    assert sq.truncated and sq.floor == -2
    assert sq.coeff(2, -2) == 1


def test_cutoff_exhaustion_on_untrusted_access():
    u = micro({(0, -2): 1}, floor=-2)
    prod = micro_mul(u, u)
    # order additivity keeps the top term d^-4 trusted; below it is unknown
    assert prod.coeff(0, -4) == 1 and prod.floor == -4
    with pytest.raises(CutoffExhausted):
        prod.coeff(0, -5)


def test_truncated_zero_is_honest():
    u = micro({(0, 0): 1}, floor=0)
    w = u - embed(weyl_element({(0, 0): 1}))  # O(d^-1): zero in every trusted degree
    assert w.truncated and w.is_zero() and w.floor == 0
    assert w.coeff(0, 0) == 0
    with pytest.raises(CutoffExhausted):
        w.coeff(0, -1)


def test_micro_agreement_above_cutoff_on_truncations():
    rng = random.Random(41)
    for _ in range(25):
        u, v = _rand_weyl(rng, max_deg=3), _rand_weyl(rng, max_deg=3)
        if u.is_zero() or v.is_zero():
            continue
        exact = weyl_mul(u, v)
        ut = embed(u).truncate(-1)
        vt = embed(v).truncate(-1)
        prod = micro_mul(ut, vt)
        for (a, b), c in exact.terms:
            if b >= prod.floor:
                assert prod.coeff(a, b) == c


# --- graded cohomology ranks of the difference complex ---


def test_cech_known_twist_values():
    assert cech_graded_ranks(0, 2) == (1, 0, True)
    assert cech_graded_ranks(-1, 3) == (0, 0, True)
    assert cech_graded_ranks(-2, 6) == (0, 1, True)


def test_cech_closed_form_window_independence():
    for twist in range(-6, 6):
        base = cech_graded_ranks(twist, abs(twist) + 2)
        wider = cech_graded_ranks(twist, abs(twist) + 3)
        assert base.certified and wider.certified
        assert (base.h0_rank, base.h1_rank) == (wider.h0_rank, wider.h1_rank)
        if twist >= -1:
            assert (base.h0_rank, base.h1_rank) == (twist + 1, 0)
        else:
            assert (base.h0_rank, base.h1_rank) == (0, -1 - twist)


def test_cech_cutoff_too_small():
    with pytest.raises(ValueError):
        cech_graded_ranks(-4, 5)


def test_micro_associativity_exact_laurent():
    rng = random.Random(139)

    def rand_laurent():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 3), rng.randint(-3, 3))] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 2)
            )
        return MicrolocalElement.from_terms(terms)

    for _ in range(60):
        u, v, w = rand_laurent(), rand_laurent(), rand_laurent()
        assert micro_mul(micro_mul(u, v), w) == micro_mul(u, micro_mul(v, w))


def test_micro_inverse_of_x_squared_action():
    # d^-1 x^2 = x^2 d^-1 - 2x d^-2 + 2 d^-3, checked via d * N = x^2
    n = micro_mul(d_inv(1), embed(x_pow(2)))
    assert n == micro({(2, -1): 1, (1, -2): -2, (0, -3): 2})
    assert micro_mul(embed(d_pow(1)), n) == embed(x_pow(2))


def test_cech_larger_twists():
    assert cech_graded_ranks(8, 10) == (9, 0, True)
    assert cech_graded_ranks(-9, 11) == (0, 8, True)


def _dense_window_ranks(twist: int, w: int) -> tuple[Fraction, Fraction]:
    """Reference oracle: the window map as a dense matrix, ranked by elimination."""
    from cmkit import Matrix, MicrolocalElement, WeylElement, rank

    cod_index = {(a, b): k for k, (a, b) in enumerate((a, b) for a in range(w + 1) for b in range(-w, w + 1))}
    columns = []
    for a in range(w + 1):
        for b in range(0, w + 1):
            columns.append(dict(embed(WeylElement.from_terms({(a, b): 1})).terms))
        for b in range(-w, min(twist, w) + 1):
            columns.append(dict((-1 * MicrolocalElement.from_terms({(a, b): 1})).terms))
    m = Matrix.from_rows([[col.get(key, 0) for col in columns] for key in cod_index])
    r = rank(m)
    return Fraction(len(columns) - r, w + 1), Fraction(len(cod_index) - r, w + 1)


def test_window_ranks_match_dense_rank():
    from cmkit.weyl import _window_ranks

    for twist in range(-6, 7):
        for w in range(0, 7):
            assert _window_ranks(twist, w) == _dense_window_ranks(twist, w), (twist, w)
