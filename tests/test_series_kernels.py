"""Differential tests: the QSeries kernels against the Fraction oracle.

Every result must agree with ``series_oracle`` in grid index, grid
denominator, stride, truncation and coefficients, and every failure must
raise the same exception type.  Kernel results must also be in canonical
storage form: integer numerators over one positive denominator ``L`` that
shares no factor with all of them.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from qlambert import QSeries, series as kernels

integers = st.integers(-9, 9)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coefficients = st.one_of(integers, rationals)
leads = st.one_of(
    st.sampled_from([1, -1]),
    integers.filter(bool),
    rationals.filter(lambda c: c.denominator > 1),
    st.sampled_from([4, F(9, 4), F(1, 9), 25]),  # squares: sqrt gets past its check
)
grids = st.sampled_from([1, 2, 3, 4, 6, 12, 84])


@st.composite
def series(draw, nonzero=False):
    kind = draw(st.sampled_from(["int", "rational", "mixed"]))
    pool = {"int": integers, "rational": rationals, "mixed": coefficients}[kind]
    lead = draw(leads) if nonzero or draw(st.booleans()) else 0
    tail = draw(st.lists(pool, max_size=10))
    # sparse tails exercise the walk over nonzero pairs
    if draw(st.booleans()):
        tail = [c if k % 3 == 0 else 0 for k, c in enumerate(tail)]
    cs = [lead] + tail if lead or tail else []
    v = draw(st.integers(-5, 5))
    D = draw(grids)
    T = None if draw(st.booleans()) else v + len(cs) + draw(st.integers(0, 3))
    return QSeries(cs, v, D, T)


@st.composite
def coset_series(draw):
    # terms every 2nd, 3rd or 5th step of the grid 1/D, moved off that
    # step's lattice by a factor q^(a/b): stored on a stride of a finer grid
    terms = draw(st.lists(coefficients, min_size=1, max_size=8))
    terms[0] = terms[0] or draw(leads)
    step = draw(st.sampled_from([2, 3, 5]))
    a, b = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 7]))
    D = draw(st.sampled_from([1, 2, 3]))
    cs = [0] * ((len(terms) - 1) * step * b + 1)
    cs[:: step * b] = terms
    v = draw(st.integers(-5, 5)) * b + a * D
    # a finite T may fall between two terms
    T = None if draw(st.booleans()) else v + draw(st.integers(1, len(cs) + 3))
    return QSeries(cs, v, D * b, T)


zero_series = st.one_of(
    st.just(QSeries()),
    st.builds(lambda T, D: QSeries.zero(T, D), st.integers(-3, 8), grids),
)
substituted = st.builds(
    lambda f, m: f.subs_qpow(m),
    series(),
    st.sampled_from([2, 3, F(1, 2), F(2, 3), F(5, 3)]),
)
operands = st.one_of(
    series(), series(nonzero=True), zero_series, coset_series(), substituted
)
terms = st.one_of(st.none(), st.integers(1, 8))


def cut(f, k):
    """f cut k orders past its first index, the window the oracle's
    ``terms=k`` takes, which the kernels read from the operand alone; an
    exact series of at most one term has an exact inverse and root, and
    stays as it is."""
    if k is None or (f.is_exact() and len(f.coeffs) < 2):
        return f
    return f.truncate(F(f.v, f.D) + k)


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)
    assert all(type(c) is int for c in result.coeffs), result.coeffs
    assert result.L >= 1
    assert math.gcd(result.L, *result.coeffs) == 1
    return result.v, result.D, result.S, result.T, result.L, result.coeffs


@settings(max_examples=300)
@given(operands, operands)
def test_mul_matches_oracle(f, g):
    assert outcome(lambda: f * g) == outcome(oracle.mul, f, g)


@settings(max_examples=200)
@given(operands, st.integers(-3, 4))
def test_pow_matches_oracle(f, n):
    assert outcome(lambda: f**n) == outcome(oracle.power, f, n)


@settings(max_examples=300)
@given(operands, terms)
def test_invert_matches_oracle(f, k):
    assert outcome(cut(f, k).invert) == outcome(oracle.invert, f, k)


@settings(max_examples=300)
@given(operands, terms)
def test_sqrt_matches_oracle(f, k):
    assert outcome(cut(f, k).sqrt) == outcome(oracle.sqrt, f, k)


@settings(max_examples=200)
@given(series(nonzero=True), terms)
def test_sqrt_of_a_square_matches_oracle(f, k):
    # squares get past the leading-coefficient check on every draw
    sq = f * f
    assert outcome(cut(sq, k).sqrt) == outcome(oracle.sqrt, sq, k)


@st.composite
def exact_divisors(draw):
    # exact series of two or more terms: their inverses have no end
    tail = draw(st.lists(coefficients, min_size=1, max_size=6).filter(any))
    return QSeries([draw(leads), *tail], draw(st.integers(-5, 5)), draw(grids))


@settings(max_examples=200)
@given(operands.filter(lambda f: not f.is_exact()), exact_divisors())
def test_division_by_an_exact_series_matches_oracle(f, g):
    # the divisor is expanded through the dividend's relative window, in
    # whole orders and at least one
    k = max(1, -((f.v - f.T) // f.D))
    assert outcome(lambda: f / g) == outcome(lambda: oracle.mul(f, oracle.invert(g, k)))


@settings(max_examples=200)
@given(operands, operands)
def test_add_and_sub_match_oracle(f, g):
    assert outcome(lambda: f + g) == outcome(oracle.add, f, g)
    assert outcome(lambda: f - g) == outcome(oracle.add, f, -g)


big_integers = st.integers(-(2**80), 2**80)
big_rationals = st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 30))
long_pools = st.sampled_from(
    [big_integers, big_rationals, st.one_of(big_integers, big_rationals)]
)


@st.composite
def long_series(draw):
    # 20-150 terms on every 1st, 2nd, 3rd or 24th slot: long enough for
    # products past the crossover to the packed path
    pool = draw(long_pools)
    size = draw(st.integers(20, 150))
    terms = draw(st.lists(pool, min_size=size, max_size=size))
    terms[0] = terms[0] or 1
    stride = draw(st.sampled_from([1, 2, 3, 24]))
    cs = [0] * ((len(terms) - 1) * stride + 1)
    cs[::stride] = terms
    v = draw(st.integers(-5, 5))
    D = draw(grids)
    # a finite T keeps at least half the terms and cuts the product short
    # of its full length
    T = None
    if draw(st.booleans()):
        T = v + draw(st.integers(len(cs) // 2, len(cs) + 3))
    return QSeries(cs, v, D, T)


@settings(max_examples=25, deadline=None)
@given(long_series(), long_series())
def test_long_mul_matches_oracle(f, g):
    assert outcome(lambda: f * g) == outcome(oracle.mul, f, g)


def test_packed_product_starts_at_the_crossover(monkeypatch):
    packed = []
    real = kernels._packed_product

    def spying(*args):
        packed.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_packed_product", spying)
    # first a catalog-sized product, 60 by 60 terms: it takes the packed path
    # (this also bounds the operands built below)
    f = QSeries(range(1, 61), v=-3, D=2)
    assert outcome(lambda: f * f) == outcome(oracle.mul, f, f)
    assert len(packed) == 1
    # a three-term factor: one row of pairs short of the crossover walks, at
    # it packs
    three = QSeries([3, -1, 2], v=1)
    rows = -(-kernels.CROSSOVER // 3)
    below = QSeries(range(1, rows))
    at = QSeries(range(1, rows + 1))
    assert outcome(lambda: below * three) == outcome(oracle.mul, below, three)
    assert len(packed) == 1
    assert outcome(lambda: at * three) == outcome(oracle.mul, at, three)
    assert len(packed) == 2
    # a one- or two-term factor walks however many pairs there are
    one = QSeries.monomial(3, 1)
    two = QSeries([3, 0, -2], v=1)
    for f, g in (
        (QSeries(range(1, kernels.CROSSOVER + 1)), one),
        (QSeries(range(1, kernels.CROSSOVER // 2 + 1)), two),
    ):
        assert outcome(lambda: f * g) == outcome(oracle.mul, f, g)
        assert outcome(lambda: g * f) == outcome(oracle.mul, g, f)
    assert len(packed) == 2


def test_packed_digits_hold_extreme_coefficients():
    # 255 equal terms of the largest size their bit length allows: the middle
    # product coefficient comes within a factor of 2 of each width's sign bit
    P = 255
    for bits in (4, 12, 28, 60):
        c = 2**bits - 1
        f = QSeries([c] * P)
        square = tuple(c * c * min(k + 1, 2 * P - 1 - k) for k in range(2 * P - 1))
        assert (f * f).coeffs == square
        assert (f * -f).coeffs == tuple(-x for x in square)


def test_leading_unit_inverse_stays_integral():
    f = QSeries([-1, 3, 0, -2, 5], v=2, D=3, T=9)
    inv = f.invert()
    assert inv.L == 1
    assert outcome(f.invert) == outcome(oracle.invert, f)


def test_negative_leading_coefficient_has_no_square_root():
    for f in (QSeries([-4, 1], T=5), QSeries([F(-9, 4), 1, 2], v=1, D=2)):
        assert outcome(cut(f, 3).sqrt) == outcome(oracle.sqrt, f, 3) == ValueError
