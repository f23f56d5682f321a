"""Cusp enumeration, equivalence, and exact vanishing-order tables."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orders_oracle as oracle
from qlambert import gamma0
from qlambert.constructors import EtaQuotient, GenEtaQuotient
from qlambert.gamma0 import (
    Cusp,
    apply_gamma,
    class_representative,
    cusp_equivalent,
    cusp_set,
    cusp_width,
    eta_cusp_order,
    gen_eta_cusp_ord,
    parse_cusp,
    psi,
)

# the generalized eta quotients of level 14 used throughout
G1 = GenEtaQuotient(14, {6: 2, 1: -2})
G2 = GenEtaQuotient(14, {4: 2, 3: -2})
G3 = GenEtaQuotient(14, {2: 2, 5: -2})

# h1, h2 as plain eta quotients of level 28, and h1 as a generalized
# eta quotient of level 28 (evens over odds), h2 with those flipped
H1_ETA = EtaQuotient(28, {2: 4, 14: 8, 1: -2, 7: -2, 28: -8})
H2_ETA = EtaQuotient(28, {1: 2, 14: 16, 2: -4, 7: -6, 28: -8})
_h1exp = {14: 4, 7: -4}
_h1exp.update({g: 2 for g in (2, 4, 6, 8, 10, 12)})
_h1exp.update({g: -2 for g in (1, 3, 5, 9, 11, 13)})
H1_GEN = GenEtaQuotient(28, _h1exp)
_h2exp = {14: 4, 7: -4}
_h2exp.update({g: -2 for g in (2, 4, 6, 8, 10, 12)})
_h2exp.update({g: 2 for g in (1, 3, 5, 9, 11, 13)})
H2_GEN = GenEtaQuotient(28, _h2exp)

ALPHA = ((1, 0), (14, 1))


def _square(quot: GenEtaQuotient) -> GenEtaQuotient:
    return GenEtaQuotient(quot.level, {g: 2 * r for g, r in quot.exponents.items()})


def _product(a: GenEtaQuotient, b: GenEtaQuotient) -> GenEtaQuotient:
    exps = dict(a.exponents)
    for g, r in b.exponents.items():
        exps[g] = exps.get(g, 0) + r
    return GenEtaQuotient(a.level, exps)


# ---------------------------------------------------------------- cusps


def test_cusp_normalization_and_parse():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(3, 0) == Cusp(1, 0)
    assert Cusp(0, -5) == Cusp(0, 1)
    assert str(Cusp(1, 0)) == "inf"
    assert str(Cusp(0, 1)) == "0"
    assert str(Cusp(1, 14)) == "1/14"
    assert parse_cusp("inf") == Cusp(1, 0)
    assert parse_cusp(" 1/2") == Cusp(1, 2)
    assert parse_cusp("-3") == Cusp(-3, 1)
    with pytest.raises(ValueError):
        Cusp(0, 0)


def test_cusp_set_14():
    table = cusp_set(14)
    assert table.cusps == (Cusp(0, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 0))
    assert table.widths == (14, 7, 2, 1)


def test_cusp_set_28():
    table = cusp_set(28)
    assert table.cusps == (
        Cusp(0, 1),
        Cusp(1, 2),
        Cusp(1, 4),
        Cusp(1, 7),
        Cusp(1, 14),
        Cusp(1, 0),
    )
    assert table.widths == (28, 7, 7, 4, 1, 1)


def test_cusp_set_edge_levels():
    assert cusp_set(1).cusps == (Cusp(1, 0),)
    assert cusp_set(1).widths == (1,)
    # level 45 has cusps 1/3 and 2/3 in distinct classes
    reps = cusp_set(45).cusps
    assert Cusp(1, 3) in reps and Cusp(2, 3) in reps


def test_levels_past_the_bound_are_refused_before_any_divisor_walk(monkeypatch):
    def walked(n):
        raise AssertionError("a divisor walk ran")

    monkeypatch.setattr(gamma0, "_divisors", walked)
    for n in (gamma0._MAX_LEVEL + 1, 10**16):
        with pytest.raises(ValueError, match="largest supported level 100000000"):
            cusp_set(n)
        with pytest.raises(ValueError, match="largest supported level"):
            psi(n)
    # the bound itself is a level; psi(10^8) = 10^8 * (3/2) * (6/5)
    assert psi(gamma0._MAX_LEVEL) == 180_000_000


@pytest.mark.parametrize("n", [0, -14])
def test_cusp_width_refuses_a_level_below_one(n):
    # at -14 the formula gave -7 at 1/2 and -1 at infinity, at 0 a division by zero
    for r in ("1/2", "inf", Cusp(1, 7)):
        with pytest.raises(ValueError, match="^level must be a positive integer$"):
            cusp_width(n, r)


def test_divisors_are_every_divisor_in_order():
    for n in range(1, 400):
        assert gamma0._divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_width_sums_match_index():
    for n in range(1, 61):
        table = cusp_set(n)
        assert sum(table.widths) == psi(n)
        for r, h in table:
            assert cusp_width(n, r) == h


def test_representatives_pairwise_inequivalent():
    for n in (12, 14, 28, 36):
        reps = cusp_set(n).cusps
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert not cusp_equivalent(n, r1, r2)
            assert cusp_equivalent(n, r1, r1)


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_every_cusp_has_unique_representative(n, a, c):
    if a == 0 and c == 0:
        a = 1
    r = Cusp(a, c)
    matches = [rep for rep, _ in cusp_set(n) if cusp_equivalent(n, r, rep)]
    assert len(matches) == 1
    assert class_representative(n, r) == matches[0]


def test_alpha_equivalences_on_gamma0_28():
    # images of the six cusp classes under tau -> tau/(14 tau + 1)
    expected = {
        Cusp(0, 1): Cusp(0, 1),
        Cusp(1, 2): Cusp(1, 4),
        Cusp(1, 4): Cusp(1, 2),
        Cusp(1, 7): Cusp(1, 7),
        Cusp(1, 14): Cusp(1, 0),
        Cusp(1, 0): Cusp(1, 14),
    }
    for r, image_class in expected.items():
        assert class_representative(28, apply_gamma(ALPHA, r)) == image_class


# ----------------------------------------------------- eta cusp orders


def test_eta_cusp_order_g_squared():
    # invariant orders of the weight-0 quotient eta(2)^8 eta(7)^4 / (eta(1)^4 eta(14)^8)
    g_sq = EtaQuotient(14, {2: 8, 7: 4, 1: -4, 14: -8})
    orders = {str(r): eta_cusp_order(g_sq, 14, r) for r, _ in cusp_set(14)}
    assert orders == {"0": 0, "1/2": 3, "1/7": 0, "inf": -3}
    assert sum(orders.values()) == 0


def test_eta_cusp_order_reduces_to_class_representative():
    g_sq = EtaQuotient(14, {2: 8, 7: 4, 1: -4, 14: -8})
    # 1/1 ~ 0, 3/2 ~ 1/2, 1/16 ~ ... all orders must match the class rep
    for a, c in ((1, 1), (3, 2), (5, 14), (9, 7), (1, 16)):
        rep = class_representative(14, Cusp(a, c))
        assert eta_cusp_order(g_sq, 14, Cusp(a, c)) == eta_cusp_order(g_sq, 14, rep)


def _order_by_class_search(quot, n, r):
    # the order at the representative that the class search finds
    rep = class_representative(n, r)
    total = sum(
        (Fraction(math.gcd(rep.c, d) ** 2, d) * rd for d, rd in quot.exponents.items()),
        Fraction(0),
    )
    return Fraction(cusp_width(n, rep), 24) * total


@st.composite
def _quotient_level_cusp(draw):
    m = draw(st.integers(1, 120))
    deltas = [d for d in range(1, m + 1) if m % d == 0]
    exponents = draw(st.dictionaries(st.sampled_from(deltas), st.integers(-6, 6)))
    quot = EtaQuotient(m, exponents)
    # the quotient's own level, or any other: a delta need not divide n
    n = m if draw(st.booleans()) else draw(st.integers(1, 120))
    if draw(st.booleans()):
        return quot, n, draw(st.sampled_from(cusp_set(n).cusps))
    a, c = draw(st.integers(-500, 500)), draw(st.integers(0, 500))
    return quot, n, Cusp(a or 1, c)


@settings(max_examples=300)
@given(_quotient_level_cusp())
def test_eta_cusp_order_matches_the_class_search(case):
    quot, n, r = case
    assert eta_cusp_order(quot, n, r) == _order_by_class_search(quot, n, r)


def test_eta_cusp_order_runs_no_class_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("eta_cusp_order searched the cusp classes")

    monkeypatch.setattr(gamma0, "cusp_equivalent", refuse)
    quot = EtaQuotient(8000, {1: 24, 8000: -24})
    orders = [eta_cusp_order(quot, 8000, r) for r, _ in cusp_set(8000)]
    assert sum(orders) == 0  # weight 0
    # a cusp equivalent to infinity: the order there is the q-valuation
    assert eta_cusp_order(quot, 8000, Cusp(7, 8000 * 3)) == quot.prefactor_exponent()
    with pytest.raises(ValueError):
        eta_cusp_order(quot, 0, Cusp(1, 0))


@pytest.mark.parametrize(
    "order, quot",
    [(eta_cusp_order, EtaQuotient(14, {2: 1})), (gen_eta_cusp_ord, GenEtaQuotient(14, {1: 2}))],
)
@pytest.mark.parametrize("n", [0, -14])
def test_cusp_orders_refuse_a_level_below_one(order, quot, n):
    # both families go through one body, which checks the level first
    for r in (Cusp(1, 0), Cusp(0, 1), Cusp(1, 7)):
        with pytest.raises(ValueError, match="^level must be a positive integer$"):
            order(quot, n, r)


def test_eta_order_at_infinity_is_valuation():
    for quot, n in ((H1_ETA, 28), (H2_ETA, 28)):
        assert eta_cusp_order(quot, n, Cusp(1, 0)) == quot.prefactor_exponent()


def test_weight_zero_divisor_degree_is_zero():
    for quot, n in (
        (EtaQuotient(14, {2: 8, 7: 4, 1: -4, 14: -8}), 14),
        (H1_ETA, 28),
        (H2_ETA, 28),
        (EtaQuotient(28, {14: 24, 7: -8, 28: -16}), 28),
    ):
        total = sum(eta_cusp_order(quot, n, r) for r, _ in cusp_set(n))
        assert total == 0


# -------------------------------------------------- the level-14 tables


def _gen_row(quot: GenEtaQuotient, n: int, reps) -> list[Fraction]:
    return [gen_eta_cusp_ord(quot, n, r) for r in reps]


def test_order_table_squares_level_14():
    reps = [Cusp(0, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 0)]
    assert _gen_row(_square(G1), 14, reps) == [0, 1, 0, -5]
    assert _gen_row(_square(G2), 14, reps) == [0, 1, 0, -1]
    assert _gen_row(_square(G3), 14, reps) == [0, 1, 0, 3]


def test_order_table_products_level_14():
    reps = [Cusp(0, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 0)]
    assert _gen_row(_product(G1, G2), 14, reps) == [0, 1, 0, -3]
    assert _gen_row(_product(G1, G3), 14, reps) == [0, 1, 0, -1]
    assert _gen_row(_product(G2, G3), 14, reps) == [0, 1, 0, 1]


def test_order_table_h_functions_on_gamma0_28():
    reps28 = [Cusp(0, 1), Cusp(1, 2), Cusp(1, 4), Cusp(1, 7), Cusp(1, 14), Cusp(1, 0)]
    # row 1: orders of h1 composed with tau -> tau/(14 tau + 1), i.e. of h1
    # at the image cusp class
    row1 = [
        eta_cusp_order(H1_ETA, 28, class_representative(28, apply_gamma(ALPHA, r)))
        for r in reps28
    ]
    row2 = [eta_cusp_order(H2_ETA, 28, r) for r in reps28]
    assert row1 == [0, 1, 2, 0, -5, 2]
    assert row2 == [0, -1, -2, 0, 5, -2]
    # the product has order 0 everywhere, hence is constant
    row3 = [a + b for a, b in zip(row1, row2)]
    assert row3 == [0, 0, 0, 0, 0, 0]


def test_order_table_h_functions_on_gamma0_14():
    # mixed level: level-28 quotients ordered at the 1/c cusps of Gamma_0(14)
    reps = [Cusp(1, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 14)]
    row_h1 = _gen_row(H1_GEN, 14, reps)
    row_inv_h2 = _gen_row(GenEtaQuotient(28, {g: -r for g, r in H2_GEN.exponents.items()}), 14, reps)
    assert row_h1 == [0, 2, 0, 2]
    assert row_inv_h2 == [0, 1, 0, -5]


def test_gen_eta_order_at_infinity_is_valuation():
    # the valuation sum_g r_g (M/2) P2(g/M), from the oracle's P2
    for quot in (G1, G2, G3, _square(G1), _product(G1, G3), H1_GEN, H2_GEN):
        m = quot.level
        val = sum(
            r * Fraction(m, 2) * oracle.p2(Fraction(g, m)) for g, r in quot.exponents.items()
        )
        assert gen_eta_cusp_ord(quot, m, Cusp(1, 0)) == val


def test_gen_eta_orders_match_series_valuations():
    # the invariant order at infinity equals the q-valuation of the expansion
    for quot, n in ((_square(G1), 14), (_square(G3), 14), (H1_GEN, 28), (H2_GEN, 28)):
        s = quot.series(2)
        assert gen_eta_cusp_ord(quot, n, Cusp(1, 0)) == Fraction(s.v, s.D)


# ------------------------------- integer order sums against a Fraction oracle


def _draw_cusp(draw, n: int) -> Cusp:
    # infinity, a cusp a/c with c | n, or one with c not dividing n
    kind = draw(st.sampled_from(("inf", "divides", "other")))
    if kind == "inf":
        return Cusp(1, 0)
    if kind == "divides":
        c = draw(st.sampled_from(gamma0._divisors(n)))
    else:
        c = draw(st.integers(1, 500).filter(lambda c: n % c))
    return Cusp(draw(st.integers(-500, 500)) or 1, c)


@st.composite
def _gen_quotient_level_cusp(draw):
    m = draw(st.integers(2, 60))
    exponents = draw(st.dictionaries(st.integers(1, m // 2), st.integers(-12, 12)))
    quot = GenEtaQuotient(m, exponents)
    # the quotient's own level, or any other (mixed level, as in table 4.2)
    n = m if draw(st.booleans()) else draw(st.integers(1, 60))
    return quot, n, _draw_cusp(draw, n)


@st.composite
def _eta_quotient_any_cusp(draw):
    m = draw(st.integers(1, 60))
    deltas = gamma0._divisors(m)
    exponents = draw(st.dictionaries(st.sampled_from(deltas), st.integers(-12, 12)))
    quot = EtaQuotient(m, exponents)
    n = m if draw(st.booleans()) else draw(st.integers(1, 60))
    return quot, n, _draw_cusp(draw, n)


@settings(max_examples=400)
@given(_gen_quotient_level_cusp())
def test_gen_eta_cusp_ord_matches_the_bernoulli_oracle(case):
    quot, n, r = case
    got = gen_eta_cusp_ord(quot, n, r)
    assert type(got) is Fraction
    assert got == oracle.gen_eta_order(quot, n, r)


@settings(max_examples=400)
@given(_eta_quotient_any_cusp())
def test_eta_cusp_order_matches_the_gcd_sum_oracle(case):
    quot, n, r = case
    got = eta_cusp_order(quot, n, r)
    assert type(got) is Fraction
    assert got == oracle.eta_order(quot, n, r)


def test_the_order_tables_match_the_oracles():
    # table 4.2's shape: level-28 quotients at the 1/c cusps of level 14
    for r in (Cusp(1, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 14), Cusp(1, 0)):
        for quot in (G1, G2, G3, H1_GEN, H2_GEN):
            assert gen_eta_cusp_ord(quot, 14, r) == oracle.gen_eta_order(quot, 14, r)
    for r in cusp_set(28).cusps:
        for quot in (H1_ETA, H2_ETA):
            assert eta_cusp_order(quot, 28, r) == oracle.eta_order(quot, 28, r)
