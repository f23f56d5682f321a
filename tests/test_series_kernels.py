"""Differential tests: the QSeries kernels against the Fraction oracle.

Every result must agree with ``series_oracle`` in grid index, grid
denominator, truncation and coefficients, and every failure must raise the
same exception type.  Kernel results must also be in canonical storage form:
an ``int`` for each integral coefficient, a ``Fraction`` otherwise.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from qlambert import QSeries

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


zero_series = st.one_of(
    st.just(QSeries()),
    st.builds(lambda T, D: QSeries.zero(T, D), st.integers(-3, 8), grids),
)
operands = st.one_of(series(), series(nonzero=True), zero_series)
terms = st.one_of(st.none(), st.integers(1, 8))


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)
    for c in result.coeffs:
        assert type(c) is int or (type(c) is F and c.denominator > 1), c
    return result.v, result.D, result.T, result.coeffs


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
    assert outcome(f.invert, k) == outcome(oracle.invert, f, k)


@settings(max_examples=300)
@given(operands, terms)
def test_sqrt_matches_oracle(f, k):
    assert outcome(f.sqrt, k) == outcome(oracle.sqrt, f, k)


@settings(max_examples=200)
@given(series(nonzero=True), terms)
def test_sqrt_of_a_square_matches_oracle(f, k):
    # squares get past the leading-coefficient check on every draw
    sq = f * f
    assert outcome(sq.sqrt, k) == outcome(oracle.sqrt, sq, k)


@settings(max_examples=200)
@given(operands, operands)
def test_add_and_sub_match_oracle(f, g):
    assert outcome(lambda: f + g) == outcome(oracle.add, f, g)
    assert outcome(lambda: f - g) == outcome(oracle.add, f, -g)


def test_leading_unit_inverse_stays_integral():
    f = QSeries([-1, 3, 0, -2, 5], v=2, D=3, T=9)
    inv = f.invert()
    assert all(type(c) is int for c in inv.coeffs)
    assert outcome(f.invert) == outcome(oracle.invert, f)


def test_negative_leading_coefficient_has_no_square_root():
    for f in (QSeries([-4, 1], T=5), QSeries([F(-9, 4), 1, 2], v=1, D=2)):
        assert outcome(f.sqrt, 3) == outcome(oracle.sqrt, f, 3) == ValueError
