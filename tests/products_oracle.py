"""Slow reference builds for the q-products and the named level-14 symbols.

These are the product constructors and symbol builders that
``qlambert.constructors`` used before every product went through one
kernel: one Pochhammer loop per factor, combined with series powers,
products and inverses, and one hand-written builder per symbol.  They share
no product code with the kernel, and state their own prefactor exponents,
eta_{N,g}'s from the second Bernoulli polynomial in ``Fraction``s; what did
not change comes from ``qlambert.constructors``: the Lambert sums and the
input checks of the quotient classes.  The differential tests compare the two.
``theta_sum`` is the theta function as a bilateral sum rather than a
product, an independent reference for the triple product.

``eta_value`` and ``gen_eta_value`` are the direct float products that
``qlambert.numeric`` ran before it evaluated every quotient from its factor
dict.  ``symbol_value`` is the float value of a named level-14 function,
written from the table in the ``gosper_symbols`` docstring over those
products and a Lambert sum of its own.
"""

import cmath
import math
from fractions import Fraction

from qlambert.constructors import EtaQuotient, GenEtaQuotient, lambert_L, lambert_L_odd
from qlambert.series import QSeries, qpow


def b2(t: Fraction) -> Fraction:
    """The second Bernoulli polynomial t^2 - t + 1/6."""
    return t * t - t + Fraction(1, 6)


def gen_eta_prefactor(level: int, g: int) -> Fraction:
    """The leading exponent  level * B2(g/level) / 2  of eta_{level,g}."""
    return Fraction(level, 2) * b2(Fraction(g % level, level))


def _ceil(x) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def pochhammer(sign: int, a: int, b: int, order: int) -> QSeries:
    order = int(order)
    c = [0] * order
    c[0] = 1
    m = a
    while m < order:
        # in-place multiply by (1 - sign*q^m); descending j keeps c[j-m] fresh
        if sign == 1:
            for j in range(order - 1, m - 1, -1):
                if c[j - m]:
                    c[j] -= c[j - m]
        else:
            for j in range(order - 1, m - 1, -1):
                if c[j - m]:
                    c[j] += c[j - m]
        m += b
    return QSeries(c, 0, 1, order)


def eta(delta: int, order) -> QSeries:
    pref = Fraction(delta, 24)
    w = max(1, _ceil(Fraction(order) - pref))
    return qpow(pref) * pochhammer(1, delta, delta, w)


def gen_eta(level: int, g: int, order) -> QSeries:
    g0 = g % (2 * level)
    sign = 1
    if g0 >= level:
        g0 -= level
        sign = -1
    pref = gen_eta_prefactor(level, g0)
    w = max(1, _ceil(Fraction(order) - pref))
    unit = pochhammer(1, g0, level, w) * pochhammer(1, level - g0, level, w)
    out = qpow(pref) * unit
    return -out if sign < 0 else out


def eta_quotient(level: int, exponents: dict, order) -> QSeries:
    quot = EtaQuotient(level, exponents)
    pref = sum(Fraction(d * r, 24) for d, r in quot.exponents.items())
    w = max(1, _ceil(Fraction(order) - pref))
    num = QSeries([1], 0, 1, w)
    den = QSeries([1], 0, 1, w)
    for d, r in quot.exponents.items():
        p = pochhammer(1, d, d, w)
        if r > 0:
            num *= p**r
        else:
            den *= p ** (-r)
    return qpow(pref) * (num * den.invert())


def gen_eta_quotient(level: int, exponents: dict, order) -> QSeries:
    quot = GenEtaQuotient(level, exponents)
    pref = sum(r * gen_eta_prefactor(level, g) for g, r in quot.exponents.items())
    w = max(1, _ceil(Fraction(order) - pref))
    num = QSeries([1], 0, 1, w)
    den = QSeries([1], 0, 1, w)
    for g, r in quot.exponents.items():
        p = pochhammer(1, g, quot.level, w) * pochhammer(
            1, quot.level - g, quot.level, w
        )
        if r > 0:
            num *= p**r
        else:
            den *= p ** (-r)
    return qpow(pref) * (num * den.invert())


def theta_product(sa: int, a: int, sb: int, b: int, order) -> QSeries:
    order = int(order)

    # (v; Q) with a sign-alternating ratio Q = -q^step splits into the
    # even- and odd-index subproducts, each with ratio q^(2 step)
    def poch_signed(s0, e, step):
        if sa * sb == 1:
            return pochhammer(s0, e, step, order)
        return pochhammer(s0, e, 2 * step, order) * pochhammer(
            -s0, e + step, 2 * step, order
        )

    return (
        poch_signed(-sa, a, a + b)
        * poch_signed(-sb, b, a + b)
        * poch_signed(sa * sb, a + b, a + b)
    )


def theta_sum(sa: int, a: int, sb: int, b: int, order) -> QSeries:
    """f(x, y) at x = sa*q^a, y = sb*q^b as the bilateral series
    sum_{n in Z} x^(n(n+1)/2) y^(n(n-1)/2), by direct accumulation."""
    order = int(order)
    c = [0] * order
    k = 0
    while True:
        for n in (k,) if k == 0 else (k, -k):
            e = (a * n * (n + 1) + b * n * (n - 1)) // 2
            if e < order:
                c[e] += (sa ** ((n * (n + 1) // 2) % 2)) * (
                    sb ** ((n * (n - 1) // 2) % 2)
                )
        k += 1
        ep = (a * k * (k + 1) + b * k * (k - 1)) // 2
        en = (a * k * (k - 1) + b * k * (k + 1)) // 2
        if ep >= order and en >= order:
            break
    return QSeries(c, 0, 1, order)


def _pi_unit(k: int, w: int) -> QSeries:
    return pochhammer(1, 2 * k, 2 * k, w) ** 4 * pochhammer(1, k, k, w) ** (-2)


def pi_q(k: int, order) -> QSeries:
    pref = Fraction(k, 4)
    w = max(1, _ceil(Fraction(order) - pref))
    return qpow(pref) * _pi_unit(k, w)


# -- named level-14 functions, one builder each -------------------------------

_CACHE: dict = {}


def _sym_g1(R):
    return gen_eta_quotient(14, {6: 2, 1: -2}, Fraction(-5, 2) + R)


def _sym_g2(R):
    return gen_eta_quotient(14, {4: 2, 3: -2}, Fraction(-1, 2) + R)


def _sym_g3(R):
    return gen_eta_quotient(14, {2: 2, 5: -2}, Fraction(3, 2) + R)


def _sym_g(R):
    return qpow(Fraction(-3, 2)) * _pi_unit(1, R) * _pi_unit(7, R).invert()


def _sym_z(R):
    num = lambert_L_odd(1, R + 2) - 7 * lambert_L_odd(7, R + 2)
    den = qpow(Fraction(7, 2)) * _pi_unit(7, R) ** 2
    return num * den.invert()


def _sym_w(R):
    return 4 * (lambert_L(1, R) - 7 * lambert_L(7, R)) + 1


def _sym_f0(R):
    g1, g2, g3 = (symbol(n, R) for n in ("g1", "g2", "g3"))
    return g1**2 + g2**2 + g3**2


def _sym_f1(R):
    g1, g2, g3 = (symbol(n, R) for n in ("g1", "g2", "g3"))
    return g1 * g2 + g1 * g3 + g2 * g3


def _sym_f(R):
    den = qpow(Fraction(7, 2)) * _pi_unit(7, R) ** 2 * symbol("z", R)
    return symbol("w", R) * den.invert()


def _sym_h1(R):
    p7sq = qpow(Fraction(7, 2)) * _pi_unit(7, R) ** 2
    p14sq = qpow(7) * _pi_unit(14, R) ** 2
    return symbol("g", R) * p7sq * p14sq.invert()


def _sym_h2(R):
    p7sq = qpow(Fraction(7, 2)) * _pi_unit(7, R) ** 2
    p14sq = qpow(7) * _pi_unit(14, R) ** 2
    return p7sq * (symbol("g", R) * p14sq).invert()


def _sym_H(R):
    return symbol("h1", R) + 16 * symbol("h2", R).invert()


def _sym_t(R):
    return symbol("H", R) + 4 * symbol("f1", R)


_BUILDERS = {
    "z": _sym_z,
    "w": _sym_w,
    "g": _sym_g,
    "g1": _sym_g1,
    "g2": _sym_g2,
    "g3": _sym_g3,
    "f0": _sym_f0,
    "f1": _sym_f1,
    "f": _sym_f,
    "h1": _sym_h1,
    "h2": _sym_h2,
    "H": _sym_H,
    "t": _sym_t,
}


def symbol(name: str, R: int) -> QSeries:
    """The named function built by its own builder at relative window R."""
    key = (name, R)
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[name](R)
    return _CACHE[key]


# -- float values by direct product ---------------------------------------------


def _product_over(tau: complex, start: int, step: int) -> complex:
    """prod over n = start, start+step, ... of (1 - q^n), until |q^n| < 1e-16."""
    q = cmath.exp(2j * math.pi * tau)
    out = 1 + 0j
    qn = q**start
    qstep = q**step
    while abs(qn) >= 1e-16:
        out *= 1 - qn
        qn *= qstep
    return out


def _q_point(tau: complex, e) -> complex:
    return cmath.exp(2j * math.pi * float(e) * tau)


def eta_value(tau) -> complex:
    tau = complex(tau)
    return _q_point(tau, Fraction(1, 24)) * _product_over(tau, 1, 1)


def gen_eta_value(level: int, g: int, tau) -> complex:
    g0 = g % (2 * level)
    sign = 1
    if g0 >= level:
        g0 -= level
        sign = -1
    tau = complex(tau)
    val = (
        _q_point(tau, gen_eta_prefactor(level, g0))
        * _product_over(tau, g0, level)
        * _product_over(tau, level - g0, level)
    )
    return -val if sign < 0 else val


def _lambert_value(r: int, m: int, tau) -> complex:
    """sum over n >= 1, n = r (mod m), of q^n / (1 - q^n)^2, until a term
    falls below 1e-17 of the sum."""
    q = cmath.exp(2j * math.pi * complex(tau))
    out = 0j
    n = r % m or m
    while True:
        term = q**n / (1 - q**n) ** 2
        out += term
        if abs(term) < 1e-17 * abs(out):
            return out
        n += m


def _pi_value(k: int, tau) -> complex:
    """Pi_{q^k} = eta(2k tau)^4 / eta(k tau)^2."""
    return eta_value(2 * k * complex(tau)) ** 4 / eta_value(k * complex(tau)) ** 2


def symbol_value(name: str, tau) -> complex:
    """The named function at tau, by the table of ``gosper_symbols``."""
    tau = complex(tau)

    def sym(n):
        return symbol_value(n, tau)

    if name == "z":
        lodd = _lambert_value(1, 2, tau) - 7 * _lambert_value(7, 14, tau)
        return lodd / _pi_value(7, tau) ** 2
    if name == "w":
        return 4 * (_lambert_value(0, 1, tau) - 7 * _lambert_value(0, 7, tau)) + 1
    if name == "g":
        return _pi_value(1, tau) / _pi_value(7, tau)
    if name in ("g1", "g2", "g3"):
        top, bottom = {"g1": (6, 1), "g2": (4, 3), "g3": (2, 5)}[name]
        return (gen_eta_value(14, top, tau) / gen_eta_value(14, bottom, tau)) ** 2
    if name == "f0":
        return sym("g1") ** 2 + sym("g2") ** 2 + sym("g3") ** 2
    if name == "f1":
        return sym("g1") * sym("g2") + sym("g1") * sym("g3") + sym("g2") * sym("g3")
    if name == "f":
        return sym("w") / (_pi_value(7, tau) ** 2 * sym("z"))
    if name == "h1":
        return sym("g") * _pi_value(7, tau) ** 2 / _pi_value(14, tau) ** 2
    if name == "h2":
        return _pi_value(7, tau) ** 2 / (sym("g") * _pi_value(14, tau) ** 2)
    if name == "H":
        return sym("h1") + 16 / sym("h2")
    if name == "t":
        return sym("H") + 4 * sym("f1")
    raise KeyError(name)
