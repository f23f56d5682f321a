"""Oracle-backed tests for the q-product and Lambert-series constructors."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import products_oracle
from qlambert.constructors import (
    SYMBOL_NAMES,
    EtaQuotient,
    GenEtaQuotient,
    bailey_specialization,
    eta,
    gen_eta,
    gen_eta_prefactor,
    gosper_symbols,
    lambert_L,
    lambert_L_odd,
    lambert_mod,
    pi_q,
    pochhammer,
    theta_f,
)
from qlambert.series import QSeries, qpow

signs = st.sampled_from([1, -1])


# -- pochhammer against the pentagonal-number bilateral sum -----------------


def _pentagonal(order):
    # independent route: (q;q)_inf = sum_{k in Z} (-1)^k q^(k(3k-1)/2)
    c = [0] * order
    k = 0
    while True:
        hit = False
        for n in (k,) if k == 0 else (k, -k):
            e = n * (3 * n - 1) // 2
            if e < order:
                c[e] += (-1) ** (n % 2)
                hit = True
        if k and not hit:
            return c
        k += 1


def test_euler_product_matches_pentagonal_sum():
    order = 80
    assert pochhammer(1, 1, 1, order) == QSeries(_pentagonal(order), 0, 1, order)


@given(st.integers(1, 5))
def test_scaled_euler_product(d):
    order = 60
    oracle = QSeries(_pentagonal(order), 0, 1, order).subs_qpow(d)
    assert pochhammer(1, d, d, order * d) == oracle


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        pochhammer(2, 1, 1, 10)
    with pytest.raises(ValueError):
        pochhammer(1, 0, 1, 10)
    with pytest.raises(ValueError):
        pochhammer(1, 1, 1, 0)


# -- theta: triple product vs bilateral sum ----------------------------------


@given(signs, signs, st.integers(1, 6), st.integers(1, 6))
def test_theta_product_equals_bilateral_sum(sa, sb, a, b):
    assert theta_f(sa, a, sb, b, 40) == products_oracle.theta_sum(sa, a, sb, b, 40)


def test_theta_euler_special_case():
    # f(-q, -q^2) = (q; q)_inf
    assert theta_f(-1, 1, -1, 2, 50) == pochhammer(1, 1, 1, 50)


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_f(2, 1, -1, 1, 10)
    with pytest.raises(ValueError):
        theta_f(-1, 0, -1, 1, 10)


# -- Lambert series against brute-force divisor sums -------------------------


def _divisor_sum(M, r, L):
    return sum(M // d for d in range(1, M + 1) if M % d == 0 and d % L == r % L)


@given(st.integers(0, 6), st.integers(1, 7))
def test_lambert_mod_matches_divisor_sums(r, L):
    s = lambert_mod(r, L, 30)
    for M in range(1, 30):
        assert s.coefficient(M) == _divisor_sum(M, r, L)


def test_lambert_classics():
    # L_1 has coefficients sigma(n)
    assert [lambert_L(1, 8).coefficient(n) for n in range(1, 8)] == [
        1, 3, 4, 7, 6, 12, 8,
    ]
    assert lambert_L_odd(3, 40) == lambert_L(3, 40) - lambert_L(6, 40)
    assert lambert_L(1, 30) - lambert_L(2, 30) == lambert_L_odd(1, 30)


def test_bailey_symmetry_and_poles():
    b = bailey_specialization
    assert b(3, 14, 25) == b(-3, 14, 25) == b(11, 14, 25)
    with pytest.raises(ValueError, match="pole in bilateral sum"):
        b(0, 14, 10)
    with pytest.raises(ValueError, match="pole in bilateral sum"):
        b(7, 14, 10)
    for i, modulus in ((1, 7), (0, 0), (1, -14)):
        with pytest.raises(ValueError, match="needs a positive even modulus"):
            b(i, modulus, 10)


def test_bailey_is_pi7_squared_times_the_eta_quotients():
    p7sq = pi_q(7, 20) ** 2
    for i, name in ((1, "g1"), (3, "g2"), (5, "g3")):
        assert bailey_specialization(i, 14, 22) == p7sq * gosper_symbols(name, 18)


# -- eta and generalized eta --------------------------------------------------


def test_eta_prefactor_and_product():
    for d in (1, 2, 7, 14):
        e = eta(d, 6)
        assert e.valuation() == F(d, 24)
        assert e == qpow(F(d, 24)) * pochhammer(1, d, d, 6)


def test_gen_eta_leading_exponent():
    assert gen_eta_prefactor(14, 1) == F(59, 84)
    assert gen_eta(14, 1, 4).valuation() == F(59, 84)
    # B2 is symmetric about 1/2
    assert gen_eta_prefactor(14, 3) == gen_eta_prefactor(14, 11)


def test_gen_eta_sign_laws():
    base = gen_eta(14, 1, 4)
    assert gen_eta(14, 15, 4) == -base
    assert gen_eta(14, -1, 4) == -base
    assert gen_eta(14, 13, 4) == base
    assert gen_eta(14, 29, 4) == base
    with pytest.raises(ValueError, match="divisible by the level"):
        gen_eta(14, 28, 4)
    with pytest.raises(ValueError, match="divisible by the level"):
        gen_eta(14, 14, 4)


def test_eta_quotient_class():
    quot = EtaQuotient(14, {2: 4, 1: -2, 7: 0})
    assert quot.exponents == {1: -2, 2: 4}
    assert quot.weight() == 1
    assert quot.prefactor_exponent() == F(8 - 2, 24)
    assert quot.series(8) == eta(2, 9) ** 4 * eta(1, 9) ** -2
    with pytest.raises(ValueError, match="does not divide"):
        EtaQuotient(14, {3: 1})


def test_gen_eta_quotient_class():
    quot = GenEtaQuotient(14, {6: 2, 1: -2})
    assert quot.prefactor_exponent() == -F(5, 2)
    got = quot.series(6)
    assert got == gen_eta(14, 6, 9) ** 2 * gen_eta(14, 1, 9) ** -2
    with pytest.raises(ValueError, match="outside"):
        GenEtaQuotient(14, {8: 1})
    assert GenEtaQuotient(14, {7: 2}).series(5) == gen_eta(14, 7, 8) ** 2


def test_pi_q_is_an_eta_quotient():
    for k in (1, 2, 5, 7, 14):
        assert pi_q(k, 16) == EtaQuotient(2 * k, {2 * k: 4, k: -2}).series(16)
    assert pi_q(1, 10).valuation() == F(1, 4)


# -- named level-14 symbols ----------------------------------------------------


def _coeffs(s, exponents):
    return [s.coefficient(e) for e in exponents]


def test_symbol_expansions_match_published_displays():
    halves = [F(k, 2) for k in range(-5, 6, 2)]
    assert _coeffs(gosper_symbols("z", 8), halves) == [1, 2, 4, 4, 6, 8]
    assert _coeffs(gosper_symbols("g", 8), halves[1:]) == [1, 2, 1, 2, 2]
    assert _coeffs(gosper_symbols("w", 8), range(6)) == [1, 4, 12, 16, 28, 24]
    assert _coeffs(gosper_symbols("t", 8), range(-5, 1)) == [1, 2, 5, 10, 18, 32]


def test_f_satisfies_its_defining_equation():
    R = 16
    f = gosper_symbols("f", R)
    z = gosper_symbols("z", R)
    w = gosper_symbols("w", R)
    assert f * (pi_q(7, 10) ** 2) * z == w
    assert f.valuation() == -1
    assert _coeffs(f, range(-1, 7)) == [1, 2, 4, -4, 6, -8, 15, -36]


def test_symbol_identities():
    R = 14
    sym = {n: gosper_symbols(n, R) for n in
           ("z", "g", "g1", "g2", "g3", "f0", "f1", "f", "h1", "h2", "H", "t")}
    assert sym["z"] == sym["g1"] + sym["g2"] + sym["g3"]
    assert sym["z"] ** 2 == sym["f0"] + 2 * sym["f1"]
    assert sym["g1"] * sym["g2"] * sym["g3"] == sym["g"]
    assert sym["t"] == sym["g"] * sym["z"] * (sym["f"] - 4)
    assert sym["H"] == sym["h1"] + 16 * sym["h2"].invert()
    assert sym["h1"] * sym["h2"] == EtaQuotient(
        28, {14: 24, 7: -8, 28: -16}
    ).series(4)


def test_h1_h2_generalized_eta_forms():
    R = 10
    evens = {k: 2 for k in (2, 4, 6, 8, 10, 12)}
    odds = {k: -2 for k in (1, 3, 5, 9, 11, 13)}
    form1 = GenEtaQuotient(28, {14: 4, 7: -4, **evens, **odds})
    assert gosper_symbols("h1", R) == form1.series(R - 5)
    form2 = GenEtaQuotient(
        28, {14: 4, 7: -4, **{k: -v for k, v in evens.items()},
             **{k: -v for k, v in odds.items()}}
    )
    assert gosper_symbols("h2", R) == form2.series(R - 2)


def test_symbol_windows_and_cache():
    for name in ("z", "w", "g", "g1", "f0", "f1", "f", "h1", "h2", "H", "t"):
        s = gosper_symbols(name, 9)
        assert s.truncation_exponent() - s.valuation() >= 9, name
    with pytest.raises(KeyError, match="unknown symbol"):
        gosper_symbols("nope", 5)
    with pytest.raises(ValueError):
        gosper_symbols("z", 0)


#: the leading exponents of the table in the gosper_symbols docstring
LEADS = {
    "z": F(-5, 2),
    "w": F(0),
    "g": F(-3, 2),
    "g1": F(-5, 2),
    "g2": F(-1, 2),
    "g3": F(3, 2),
    "f0": F(-5),
    "f1": F(-3),
    "f": F(-1),
    "h1": F(-5),
    "h2": F(-2),
    "H": F(-5),
    "t": F(-5),
}


def test_docstring_table_states_the_leading_exponents():
    doc = gosper_symbols.__doc__
    rows = doc[doc.index("----  ----") :].splitlines()[1:]
    stated = {}
    for row in filter(str.strip, rows):
        name, *_, lead = row.split()
        stated[name] = F(lead)
    assert stated == LEADS
    assert tuple(stated) == SYMBOL_NAMES


@pytest.mark.parametrize("window", [1, 7, 60])
def test_symbols_start_at_their_leading_exponents(window):
    # the table does not state them: each build is truncated at its own
    # valuation plus the window
    for name, lead in LEADS.items():
        s = gosper_symbols(name, window)
        assert s.valuation() == lead, name
        assert s.truncation_exponent() == lead + window, name
