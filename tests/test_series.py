"""Ring axioms, truncation bookkeeping and edge cases for QSeries."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlambert import ONE, PrecisionError, QSeries, qpow
from qlambert.constructors import eta, gen_eta, gosper_symbols
from qlambert.dsl import evaluate, parse

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def series(draw, min_len=0, nonzero=False, exact_allowed=True):
    cs = draw(st.lists(rationals, min_size=min_len, max_size=8))
    if nonzero and not any(cs):
        cs.append(draw(rationals.filter(bool)))
    v = draw(st.integers(-6, 6))
    D = draw(st.sampled_from([1, 2, 3, 4, 84]))
    if exact_allowed and draw(st.booleans()):
        T = None
    else:
        T = v + len(cs) + draw(st.integers(0, 4))
    return QSeries(cs, v, D, T)


nonzero_series = series(min_len=1, nonzero=True)
truncated_nonzero = series(min_len=1, nonzero=True, exact_allowed=False)


# -- ring axioms ---------------------------------------------------------


@given(series(), series())
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(series(), series(), series())
def test_addition_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(series(), series())
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=60)
@given(series(), series(), series())
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60)
@given(series(), series(), series())
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(series())
def test_identities(f):
    assert f + 0 == f
    assert f * 1 == f
    assert f - f == QSeries.zero()
    assert (f - f).is_zero()
    assert f * 0 == 0 or not f.is_exact()  # 0*f is zero through some order


@given(series())
def test_scalar_coercion(f):
    assert f + F(1, 2) == f + QSeries.constant(F(1, 2))
    assert 3 * f == QSeries.constant(3) * f
    assert 2 - f == QSeries.constant(2) - f


# -- grid invariance ------------------------------------------------------


@given(series(), st.sampled_from([2, 3, 7]))
def test_grid_rescaling_is_invisible(f, m):
    # one entry per step of the finer grid: term k sits k*S*m steps from v
    if f.coeffs:
        spread = [F(0)] * ((len(f.coeffs) - 1) * f.S * m + 1)
        for k, c in enumerate(f.coeffs):
            spread[k * f.S * m] = F(c, f.L)
    else:
        spread = []
    T = None if f.T is None else f.T * m
    g = QSeries(spread, f.v * m, f.D * m, T)
    assert f == g
    assert g.D == f.D  # normalisation compresses the grid right back
    assert (g.v, g.S, g.T, g.L, g.coeffs) == (f.v, f.S, f.T, f.L, f.coeffs)


@pytest.mark.parametrize(
    "build, slots",
    [
        pytest.param(lambda: eta(1, 100), 93, id="eta(1)"),
        pytest.param(lambda: gen_eta(11, 3, 312), 313, id="gen_eta(11,3)"),
        pytest.param(lambda: qpow(F(1, 1009)) * eta(1, 40), 36, id="q^(1/1009)*eta(1)"),
        pytest.param(
            lambda: qpow(F(1, 1000003)) * eta(1, 5), 3, id="q^(1/1000003)*eta(1)"
        ),
        pytest.param(lambda: gosper_symbols("g", 100), 100, id="symbol(g)"),
        pytest.param(
            lambda: evaluate(parse("subq(theta(1,1,1,1)^4, 3)"), 450),
            150,
            id="subq(theta(1,1,1,1)^4,3)",
        ),
        # halves whose sum cancels the denominator
        pytest.param(
            lambda: F(1, 2) * eta(1, 100) + eta(1, 100) / 2, 93, id="eta(1)/2+eta(1)/2"
        ),
    ],
)
def test_storage_is_one_slot_per_step_of_the_terms(build, slots):
    # a series on a coset of a coarse step stores no slot between two steps;
    # every series here is integral, so it is stored over L = 1
    f = build()
    assert f.L == 1
    assert len(f.coeffs) == slots
    offsets = [int(e * f.D) - f.v for e, _ in f.items()]
    assert math.gcd(*offsets) == f.S
    assert offsets[-1] == (slots - 1) * f.S


def test_compression_keeps_truncation_exact():
    f = QSeries([1, 0, 2], v=-2, D=2, T=6)  # support even, T even -> D=1
    assert (f.D, f.v, f.T) == (1, -1, 3)
    g = QSeries([1, 0, 2], v=-2, D=2, T=5)  # T odd blocks compression
    assert (g.D, g.T) == (2, 5)
    assert f == g


# -- truncation propagation ----------------------------------------------


@given(truncated_nonzero, truncated_nonzero)
def test_truncation_of_sum_is_min(f, g):
    te = (f + g).truncation_exponent()
    assert te == min(f.truncation_exponent(), g.truncation_exponent())


@given(truncated_nonzero, truncated_nonzero)
def test_truncation_of_product_rule(f, g):
    te = (f * g).truncation_exponent()
    expect = min(
        f.truncation_exponent() + g.valuation(),
        g.truncation_exponent() + f.valuation(),
    )
    assert te == expect


@given(series(exact_allowed=True), truncated_nonzero)
def test_exact_factor_does_not_truncate_sum(f, g):
    if f.T is None:
        assert (f + g).truncation_exponent() == g.truncation_exponent()


def test_stored_terms_beyond_truncation_are_dropped():
    f = QSeries([1, 2, 3, 4, 5], v=0, D=1, T=3)
    assert f == QSeries([1, 2, 3], v=0, D=1, T=3)
    with pytest.raises(PrecisionError):
        f.coefficient(3)


# -- inversion / division -------------------------------------------------


@given(truncated_nonzero)
def test_invert_roundtrip(f):
    inv = f.invert()
    assert f * inv == 1
    # relative window is preserved
    assert inv.truncation_exponent() - inv.valuation() == (
        f.truncation_exponent() - f.valuation()
    )


@given(series(min_len=1, nonzero=True), st.integers(1, 6))
def test_invert_exact_with_window(f, k):
    g = QSeries(f.coeffs, f.v, f.D)  # exact version
    # an exact operand's window is the one it is cut at
    inv = g.truncate(g.valuation() + k).invert()
    assert g * inv == 1
    assert inv.truncation_exponent() - inv.valuation() == k


@given(truncated_nonzero, truncated_nonzero)
def test_division_roundtrip(f, g):
    assert (f * g).div(g) == f


def test_invert_errors():
    with pytest.raises(ZeroDivisionError):
        QSeries().invert()
    with pytest.raises(PrecisionError):
        QSeries.zero(T=5).invert()
    with pytest.raises(PrecisionError, match="truncate it first"):
        QSeries([1, 1]).invert()
    # single exact terms invert exactly
    assert qpow(F(-3, 2)).invert() == qpow(F(3, 2))
    assert QSeries.constant(F(2, 3)).invert() == QSeries.constant(F(3, 2))
    # cut at its leading exponent, nothing of an exact series is known
    with pytest.raises(PrecisionError, match="zero through its truncation"):
        QSeries([1, 1]).truncate(0).invert()


def test_zero_through_its_truncation_divides_by_an_exact_series():
    # the dividend has no relative window; the divisor still gets one order
    quotient = QSeries.zero(T=5).div(QSeries([1, 1], v=1))
    assert quotient.is_zero() and quotient.truncation_exponent() == 4


# -- square root -----------------------------------------------------------


@given(truncated_nonzero)
def test_sqrt_roundtrip(f):
    s = (f * f).sqrt()
    assert s.leading_coefficient() > 0
    assert s == (f if f.leading_coefficient() > 0 else -f)


def test_sqrt_refines_grid_on_odd_valuation():
    f = qpow(1) * QSeries([1, 2], v=0, D=1, T=6)
    s = f.sqrt()
    assert s.valuation() == F(1, 2)
    assert s * s == f


def test_sqrt_errors():
    with pytest.raises(ValueError, match="no rational square root"):
        QSeries([-1, 1], T=4).sqrt()
    with pytest.raises(ValueError, match="no rational square root"):
        QSeries([2, 1], T=4).sqrt()
    with pytest.raises(ValueError, match="no rational square root"):
        QSeries([F(4, 3), 1], T=4).sqrt()
    with pytest.raises(PrecisionError):
        QSeries.zero(T=4).sqrt()
    with pytest.raises(PrecisionError, match="truncate it first"):
        QSeries([1, 1]).sqrt()
    assert QSeries().sqrt() == 0


# -- coefficient access -----------------------------------------------------


@given(truncated_nonzero)
def test_coefficient_reads_match_window(f):
    for e, c in f.items():
        assert f.coefficient(e) == c
    # off-grid below truncation is exactly zero
    e = f.valuation() + F(1, 13 * f.D)
    if e < f.truncation_exponent():
        assert f.coefficient(e) == 0
    with pytest.raises(PrecisionError, match="insufficient precision"):
        f.coefficient(f.truncation_exponent())


def test_exact_series_knows_everything():
    f = QSeries([1, 2], v=-1, D=2)
    assert f.coefficient(100) == 0
    assert f.coefficient(F(-1, 2)) == 1
    assert f.coefficient(F(1, 3)) == 0
    assert f.is_exact() and f.truncation_exponent() is None


def test_valuation_semantics():
    assert QSeries().valuation() is None
    with pytest.raises(PrecisionError):
        QSeries.zero(T=3).valuation()
    assert QSeries([5], v=-3, D=2).valuation() == F(-3, 2)


# -- powers and substitution -----------------------------------------------


@given(truncated_nonzero)
def test_pow_matches_repeated_product(f):
    assert f**3 == f * f * f
    assert f**1 == f
    assert f**0 == 1


@given(truncated_nonzero)
def test_negative_pow(f):
    assert f**-2 == f.invert() * f.invert()


def test_fractional_pow_on_monomials_only():
    assert qpow(F(1, 2)) ** F(2, 3) == qpow(F(1, 3))
    with pytest.raises(ValueError, match="fractional powers"):
        QSeries([1, 1]) ** F(1, 2)


@given(series(min_len=1, nonzero=True, exact_allowed=False), st.integers(1, 5))
def test_subs_qpow(f, m):
    g = f.subs_qpow(m)
    for e, c in f.items():
        assert g.coefficient(e * m) == c
    assert g.truncation_exponent() == f.truncation_exponent() * m


# -- misc -------------------------------------------------------------------


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="exact rational"):
        QSeries([0.5])
    with pytest.raises(TypeError):
        qpow(0.25)


def test_display():
    f = QSeries([1, -2, 0, F(1, 3)], v=-2, D=2, T=5)
    assert str(f) == "q^-1 - 2*q^(-1/2) + 1/3*q^(1/2) + O(q^(5/2))"
    assert str(QSeries()) == "0"
    assert str(QSeries.zero(T=7)) == "O(q^7)"
    assert str(ONE) == "1"
    assert str(qpow(3) - 1) == "-1 + q^3"


def test_truncate():
    f = QSeries([1, 1, 1, 1], v=0, D=1)
    g = f.truncate(2)
    assert g.truncation_exponent() == 2
    assert g == QSeries([1, 1], 0, 1, 2)
    assert f.truncate(F(3, 2)).truncation_exponent() == 2  # ceil onto the grid


# -- the Fraction boundary -----------------------------------------------------


@example(QSeries([1, 2, 3], v=-1, D=2, T=6) ** 3)  # stored as ints
@given(series(min_len=1, nonzero=True))
def test_public_readers_return_fractions(f):
    # integral coefficients are stored as ints; readers must not leak them
    assert type(f.leading_coefficient()) is F
    assert type(f.valuation()) is F
    for e, c in f.items():
        assert type(e) is F and type(c) is F
        assert type(f.coefficient(e)) is F
    assert type(f.coefficient(f.valuation() - 1)) is F
