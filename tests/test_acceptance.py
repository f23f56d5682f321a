"""Acceptance gate: ten timed criteria, one pass line each."""

import time
from contextlib import contextmanager
from fractions import Fraction

from qlambert import numeric
from qlambert.catalog import IdentityRecord, get_identity, verify
from qlambert.constructors import (
    EtaQuotient,
    bailey_specialization,
    gosper_symbols,
    pi_q,
)
from qlambert.gamma0 import cusp_set, eta_cusp_order, psi
from qlambert.level14 import (
    EQ37_FACTORS,
    G,
    GAMMA_CYCLE,
    K_POLY,
    THM12_CUBIC,
    Z,
    eliminate,
    order_table,
)
from qlambert.relations import (
    MultiPoly,
    eval_poly,
    find_relation,
    vanishing_factor,
)


@contextmanager
def within(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def _passed(number, text):
    print(f"criterion {number:02d}: PASS - {text}")


def _heads(series, count):
    out = []
    for item in series.items():
        out.append(item)
        if len(out) == count:
            break
    return out


def test_criterion_01_expansion_golden():
    with within(1.0):
        z = gosper_symbols("z", 7)
        g = gosper_symbols("g", 7)
        t = gosper_symbols("t", 7)
        w = pi_q(7, 7) ** 2 * z * gosper_symbols("f", 7)
    half = Fraction(1, 2)
    assert _heads(z, 6) == [
        (-5 * half, 1),
        (-3 * half, 2),
        (-1 * half, 4),
        (1 * half, 4),
        (3 * half, 6),
        (5 * half, 8),
    ]
    assert _heads(g, 5) == [
        (-3 * half, 1),
        (-1 * half, 2),
        (1 * half, 1),
        (3 * half, 2),
        (5 * half, 2),
    ]
    assert _heads(t, 6) == [
        (Fraction(-5), 1),
        (Fraction(-4), 2),
        (Fraction(-3), 5),
        (Fraction(-2), 10),
        (Fraction(-1), 18),
        (Fraction(0), 32),
    ]
    assert [w.coefficient(k) for k in range(6)] == [1, 4, 12, 16, 28, 24]
    _passed(1, "golden expansions of z, g, t and the normalized product")


def test_criterion_02_order_tables():
    with within(1.0):
        reports = {tid: order_table(tid) for tid in ("3.1", "3.2", "4.1", "4.2")}
    r = reports["3.1"]
    assert r.columns == ("0", "1/2", "1/7", "inf")
    assert r.rows == (
        ("g1^2", (Fraction(0), Fraction(1), Fraction(0), Fraction(-5))),
        ("g2^2", (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))),
        ("g3^2", (Fraction(0), Fraction(1), Fraction(0), Fraction(3))),
    )
    r = reports["3.2"]
    assert r.rows == (
        ("g1*g2", (Fraction(0), Fraction(1), Fraction(0), Fraction(-3))),
        ("g1*g3", (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))),
        ("g2*g3", (Fraction(0), Fraction(1), Fraction(0), Fraction(1))),
    )
    r = reports["4.1"]
    assert r.group_level == 28
    assert r.columns == ("0", "1/2", "1/4", "1/7", "1/14", "inf")
    assert r.rows == (
        ("h1(alpha tau)", tuple(map(Fraction, (0, 1, 2, 0, -5, 2)))),
        ("h2", tuple(map(Fraction, (0, -1, -2, 0, 5, -2)))),
        ("h1(alpha tau)*h2", tuple(map(Fraction, (0, 0, 0, 0, 0, 0)))),
    )
    r = reports["4.2"]
    assert r.rows == (
        ("h1", tuple(map(Fraction, (0, 2, 0, 2)))),
        ("1/h2", tuple(map(Fraction, (0, 1, 0, -5)))),
    )
    _passed(2, "all 50 table cells reproduced")


F3_EXPECTED = MultiPoly(
    ("X", "Y"),
    {
        (3, 0): 1,
        (2, 1): -22,
        (1, 3): 8,
        (1, 2): 41,
        (1, 1): 392,
        (0, 5): -1,
        (0, 4): -8,
        (0, 3): -114,
        (0, 2): -392,
        (0, 1): -2401,
    },
)
F4_EXPECTED = MultiPoly(
    ("X", "Y"),
    {
        (3, 0): 1,
        (2, 1): -33,
        (1, 3): 14,
        (1, 2): 92,
        (1, 1): 686,
        (0, 5): -1,
        (0, 4): -4,
        (0, 3): -102,
        (0, 2): -196,
        (0, 1): -2401,
    },
)


def test_criterion_03_relation_recovery():
    with within(5.0):
        z2 = gosper_symbols("z", 45) ** 2
        g2 = gosper_symbols("g", 45) ** 2
        assert find_relation(z2, g2) == F3_EXPECTED
    with within(5.0):
        t = gosper_symbols("t", 45)
        assert find_relation(t, g2) == F4_EXPECTED
    _passed(3, "both degree-(3,5) relations recovered coefficient-exactly")


def test_criterion_04_theorem_cubics_vanish():
    with within(5.0):
        first = verify("thm-1.1", 40)
    assert first.status == "verified"
    assert first.truncation_exponent >= 40
    with within(5.0):
        second = verify("thm-1.2", 40)
    assert second.status == "verified"
    assert second.truncation_exponent >= 40
    _passed(4, "both cubics are the zero series through q^40")


# the degree-16 cofactor, coefficient by coefficient; first index is the
# power of F, second the power of G
K_EXPECTED = MultiPoly(
    ("F", "G"),
    {
        (0, 0): 5764801,
        (0, 2): -1882384,
        (1, 2): -11529602,
        (2, 2): 4000066,
        (3, 2): -235298,
        (0, 4): 260681372,
        (1, 4): -229161044,
        (2, 4): 80925705,
        (3, 4): -14871794,
        (4, 4): 1512630,
        (5, 4): -81634,
        (6, 4): 2401,
        (0, 6): -50601712,
        (1, 6): 49514402,
        (2, 6): -17617950,
        (3, 6): 2561622,
        (4, 6): -86828,
        (5, 6): -8624,
        (6, 6): 392,
        (0, 8): 4938886,
        (1, 8): -3847640,
        (2, 8): 1335446,
        (3, 8): -300148,
        (4, 8): 44608,
        (5, 8): -3492,
        (6, 8): 114,
        (0, 10): -1032688,
        (1, 10): 1010498,
        (2, 10): -359550,
        (3, 10): 52278,
        (4, 10): -1772,
        (5, 10): -176,
        (6, 10): 8,
        (0, 12): 108572,
        (1, 12): -95444,
        (2, 12): 33705,
        (3, 12): -6194,
        (4, 12): 630,
        (5, 12): -34,
        (6, 12): 1,
        (0, 14): -16,
        (1, 14): -98,
        (2, 14): 34,
        (3, 14): -2,
        (0, 16): 1,
    },
)


def test_criterion_05_elimination_factors():
    with within(30.0):
        result = eliminate()
    assert result["cofactor_matches"] is True
    assert result["scalar"] == 1
    assert all(degree == 0 for degree in result["monomial"].values())
    assert result["cubic"] == THM12_CUBIC
    assert len(K_EXPECTED.coeffs) == 45
    assert result["cofactor"] == K_EXPECTED
    assert K_POLY == K_EXPECTED
    _passed(5, "resultant factors as cubic times the degree-16 cofactor")


def test_criterion_06_factorization_and_vanishing_factor():
    with within(5.0):
        product = EQ37_FACTORS[0] * EQ37_FACTORS[1]
        substituted = eval_poly(
            F3_EXPECTED, {"X": Z**2, "Y": G**2}
        )
        assert product == substituted
        z, g, f = (gosper_symbols(s, 40) for s in ("z", "g", "f"))
        assert vanishing_factor(EQ37_FACTORS, {"Z": z, "G": g}) == 0
        assert vanishing_factor((THM12_CUBIC, K_POLY), {"F": f, "G": g}) == 0
    _passed(6, "factor product matches and the vanishing factors are selected")


def test_criterion_07_lambert_catalog():
    names = [f"gosper-1.{k}" for k in range(1, 8)]
    with within(10.0):
        reports = {name: verify(name, 30) for name in names}
        # 1.3 and 1.4 share their left side; checking their right sides
        # against each other witnesses the chained equality
        three = get_identity("gosper-1.3")
        four = get_identity("gosper-1.4")
        cross = verify(
            IdentityRecord("gosper-1.3-x-1.4", three.right, four.right, 30)
        )
    for name in names:
        assert reports[name].status == "verified", name
        assert reports[name].truncation_exponent >= 30
    assert cross.status == "verified"
    _passed(7, "seven Lambert identities plus the chained equality at 30 orders")


def test_criterion_08_bilateral_specializations():
    with within(5.0):
        for name in ("eq-3.1-a1", "eq-3.1-a3", "eq-3.1-a5"):
            assert verify(name, 30).status == "verified", name
        # the bilateral kernel carries the same Pi_{q^7}^2 normalization as
        # its theta-quotient form, so the eta-quotient match includes it
        prefactor = pi_q(7, 36) ** 2
        for index, sym in ((1, "g1"), (3, "g2"), (5, "g3")):
            diff = bailey_specialization(index, 14, 36) - prefactor * gosper_symbols(
                sym, 36
            )
            assert diff.is_zero()
            assert diff.truncation_exponent() >= 30
    _passed(8, "bilateral kernels match both theta quotients and eta quotients")


def test_criterion_09_structural_invariants():
    with within(5.0):
        for n in range(1, 61):
            assert sum(cusp_set(n).widths) == psi(n)
        weight_zero = (
            EtaQuotient(14, {2: 4, 7: 2, 1: -2, 14: -4}),
            EtaQuotient(14, {14: 4, 7: -2, 1: 2, 2: -4}),
            EtaQuotient(2, {1: 24, 2: -24}),
            EtaQuotient(6, {1: 1, 2: -1, 3: -1, 6: 1}),
            EtaQuotient(28, {2: 4, 14: 8, 1: -2, 7: -2, 28: -8}),
        )
        for quot in weight_zero:
            assert quot.weight() == 0
            degree = sum(
                eta_cusp_order(quot, quot.level, r)
                for r in cusp_set(quot.level).cusps
            )
            assert degree == 0
        z, f0, f1 = (gosper_symbols(s, 30) for s in ("z", "f0", "f1"))
        assert (z * z - f0 - 2 * f1).is_zero()
        assert verify("lambert-odd-split", 100).status == "verified"
    _passed(9, "width sums, zero divisor degrees, the square split, odd split")


def test_criterion_10_numeric_suite():
    with within(5.0):
        transform = numeric.check_gen_eta_transform(14, 1, GAMMA_CYCLE)
        cycle = numeric.check_index_cycle()
        product16 = numeric.check_eq41()
        inversion = numeric.check_eta_inversion()
    assert transform < 1e-9
    assert cycle < 1e-9
    assert product16 < 1e-8
    assert inversion < 1e-10
    _passed(10, "transformation law, index cycle, 16-product, eta inversion")
