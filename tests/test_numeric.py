"""Floating-point checks of transformation laws and product evaluations."""

import cmath
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import products_oracle as oracle
from qlambert import numeric as nm
from qlambert.constructors import (
    SYMBOL_NAMES,
    EtaQuotient,
    GenEtaQuotient,
    gen_eta,
    gosper_symbols,
    pochhammer,
)
from qlambert.level14 import GAMMA_CYCLE, H1_ETA

IDENTITY = ((1, 0), (0, 1))


# -- eval_product ------------------------------------------------------------


def test_eta_fixed_point_of_inversion():
    # tau = i is fixed by tau -> -1/tau and sqrt(-i*i) = 1
    assert nm.check_eta_inversion(samples=(1j,)) < 1e-14
    val = nm.eta_value(1j)
    assert abs(val.imag) < 1e-15
    assert 0.7 < val.real < 0.8


def test_eta_inversion_off_axis():
    assert nm.check_eta_inversion(samples=(0.25 + 2j,)) < 1e-10


def test_series_vs_product_euler():
    # two independent evaluations of (q; q)_inf
    tau = 0.3 + 1.1j
    partial = nm.eval_product(pochhammer(1, 1, 1, 60), tau)
    direct = nm.eta_value(tau) / nm.q_point(tau, F(1, 24))
    assert abs(partial / direct - 1) < 1e-12


def test_eval_product_matches_series_eta_quotient():
    quot = EtaQuotient(14, {2: 4, 7: 2, 1: -2, 14: -4})
    tau = 0.2 + 1.3j
    partial = nm.eval_product(quot.series(20), tau)
    direct = nm.eval_product(quot, tau)
    assert abs(partial / direct - 1) < 1e-10


def test_eval_product_matches_series_gen_eta_quotient():
    quot = GenEtaQuotient(14, {6: 2, 1: -2})
    tau = -0.4 + 0.9j
    partial = nm.eval_product(quot.series(18), tau)
    direct = nm.eval_product(quot, tau)
    assert abs(partial / direct - 1) < 1e-10


def test_eval_product_rejects_low_points_and_bad_types():
    with pytest.raises(ValueError, match="Im"):
        nm.eval_product(EtaQuotient(1, {1: 1}), 0.3 + 0.01j)
    with pytest.raises(ValueError, match="finite"):
        nm.eval_product(EtaQuotient(1, {1: 1}), complex(0, float("nan")))
    with pytest.raises(TypeError):
        nm.eval_product("eta", 1j)


def test_gen_eta_value_matches_series_with_reduction():
    # index 17 reduces through the sign laws before expanding
    tau = 1.3j
    partial = nm.eval_product(gen_eta(14, 17, 20), tau)
    direct = nm.gen_eta_value(14, 17, tau)
    assert abs(partial / direct - 1) < 1e-10


def test_eta_value_matches_the_direct_product():
    for tau in nm._SAMPLES:
        assert nm.eta_value(tau) == oracle.eta_value(tau), tau


@pytest.mark.parametrize("level", [2, 6, 7, 12, 14, 28])
def test_gen_eta_value_matches_the_direct_product(level):
    # every index from -2L to 2L not divisible by L, L/2 among them
    for g in range(-2 * level, 2 * level + 1):
        if g % level == 0:
            continue
        for tau in nm._SAMPLES:
            got = nm.gen_eta_value(level, g, tau)
            want = oracle.gen_eta_value(level, g, tau)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (g, tau)


def test_values_that_leave_double_precision_are_value_errors():
    # q^(-5/2) overflows for z; f1 sums products that reach inf
    for call in (
        lambda: nm.eval_symbol("z", 33j),
        lambda: nm.eval_symbol("z", 300j),
        lambda: nm.eval_product(H1_ETA, 30j),
        lambda: nm.eval_symbol("f1", 40j),
    ):
        with pytest.raises(ValueError, match="tau"):
            call()


def test_gen_eta_value_rejects_divisible_index():
    with pytest.raises(ValueError, match="divisible"):
        nm.gen_eta_value(14, 28, 1j)


# -- transformation law ------------------------------------------------------


def test_transform_14_1_cycle_matrix():
    assert nm.check_gen_eta_transform(14, 1, GAMMA_CYCLE) < 1e-9


def test_transform_other_levels_and_indices():
    assert nm.check_gen_eta_transform(14, 3, ((5, 1), (14, 3))) < 1e-9
    assert nm.check_gen_eta_transform(28, 5, ((1, 0), (28, 1))) < 1e-9


def test_transform_identity_is_exact():
    assert nm.check_gen_eta_transform(14, 1, IDENTITY) == 0.0
    assert nm.check_gen_eta_transform(14, 5, ((-1, 0), (0, -1))) == 0.0


def test_transform_rejects_bad_matrices():
    with pytest.raises(ValueError, match="SL2"):
        nm.check_gen_eta_transform(14, 1, ((2, 1), (14, 8)))
    with pytest.raises(ValueError, match="Gamma0"):
        nm.check_gen_eta_transform(28, 5, ((3, 1), (14, 5)))
    with pytest.raises(ValueError, match="lower-left"):
        nm.check_gen_eta_transform(14, 1, ((1, 1), (0, 1)))


@given(
    st.floats(-0.5, 0.5),
    st.floats(0.3, 2.0),
    st.sampled_from([1, 3, 5]),
)
def test_transform_property(re, im, g):
    dev = nm.check_gen_eta_transform(14, g, GAMMA_CYCLE, samples=(complex(re, im),))
    assert dev < 1e-9


def test_index_cycle():
    assert nm.check_index_cycle() < 1e-9
    assert nm.check_index_cycle(samples=(0.1 + 1.5j,)) < 1e-9


# -- multiplier ---------------------------------------------------------------


def test_epsilon_exact_units():
    assert nm.epsilon(1, 0, 0, 1) == 1
    assert abs(nm.epsilon(0, -1, 1, 0) + 1j) < 1e-15


@given(st.integers(-10**4, 10**4), st.integers(1, 1000))
def test_unit_phase_matches_the_complex_exponential(n, d):
    got = nm._unit_phase(n, d)
    assert abs(got - cmath.exp(1j * cmath.pi * float(F(n, d)))) < 1e-11
    if (2 * n) % d:
        # off the quarter turns: the phase of n/d reduced modulo 2, bit for bit
        assert got == cmath.exp(1j * cmath.pi * float(F(n, d) % 2))


@pytest.mark.parametrize("k", range(-9, 10))
@pytest.mark.parametrize("scale", [1, 3, 14])
def test_unit_phase_is_exact_at_half_integers(k, scale):
    # e^(pi i k/2) is 1, i, -1 or -i exactly, however n/d is written
    want = (1, 1j, -1, -1j)[k % 4]
    got = nm._unit_phase(k * scale, 2 * scale)
    assert got == want and type(got) is complex


def test_epsilon_modulus_random_gamma0_14():
    assert nm.check_epsilon_modulus(count=100) < 1e-12


@given(st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99))
def test_epsilon_always_unit(a, b, c, d):
    assert abs(abs(nm.epsilon(a, b, c, d)) - 1) < 1e-12


def test_sign_laws():
    assert nm.check_sign_laws() < 1e-12


# -- level-14 evaluations -----------------------------------------------------


def test_eq41_default_samples():
    assert nm.check_eq41(samples=(2j,)) < 1e-8
    assert nm.check_eq41(samples=(F(1, 3) + 1j,)) < 1e-8


def test_symbol_consistency_at_2i():
    assert nm.check_symbol_consistency(tau=2j) < 1e-8


def test_eval_symbol_agrees_with_series_individually():
    for tau in (2j, 1.2j, 0.1 + 1.5j):
        for name in SYMBOL_NAMES:
            partial = nm.eval_product(gosper_symbols(name, 30), tau)
            direct = nm.eval_symbol(name, tau)
            assert abs(partial / direct - 1) < 1e-13, (name, tau)


def test_eval_symbol_lambert_route():
    # w sums Lambert series rather than products
    tau = 1.2j
    partial = nm.eval_product(gosper_symbols("w", 25), tau)
    direct = nm.eval_symbol("w", tau)
    assert abs(partial / direct - 1) < 1e-10


@pytest.mark.parametrize("name", SYMBOL_NAMES)
def test_eval_symbol_matches_the_float_oracle(name):
    # the oracle writes each function from the gosper_symbols table with its
    # own products and Lambert sums, sharing no code with the float walk
    for tau in nm._SAMPLES:
        got, want = nm.eval_symbol(name, tau), oracle.symbol_value(name, tau)
        assert abs(got / want - 1) < 1e-12, (name, tau)


def test_eval_symbol_validation():
    with pytest.raises(KeyError):
        nm.eval_symbol("nope", 1j)
    with pytest.raises(ValueError, match="Im"):
        nm.eval_symbol("z", 0.02j)
    # a NaN Im(tau) passed the floor check, and a NaN q never ended the
    # Lambert sums of z
    nan, inf = float("nan"), float("inf")
    for tau in (complex(nan, 1), complex(0, nan), complex(0, inf)):
        with pytest.raises(ValueError, match="finite"):
            nm.eval_symbol("z", tau)


# -- suite report -------------------------------------------------------------


def test_numeric_report_all_pass():
    report = nm.numeric_report()
    assert set(report) == {
        "eta_inversion",
        "gen_eta_transform",
        "index_cycle",
        "eq41",
        "sign_laws",
        "epsilon_modulus",
        "symbol_consistency",
    }
    for entry in report.values():
        assert entry["passed"], entry
        assert entry["deviation"] <= entry["tolerance"]


def test_numeric_report_uniform_tolerance():
    report = nm.numeric_report(tol=1e-20)
    assert all(entry["tolerance"] == 1e-20 for entry in report.values())
    assert not all(entry["passed"] for entry in report.values())
