"""Constructors for classical q-products and Lambert series.

Everything here returns a :class:`~qlambert.series.QSeries` with honest
truncation bookkeeping.

Every q-product goes through one kernel, ``_qproduct(statement, order)``.
An eta-type object (a Pochhammer symbol, an eta or generalized eta quotient,
``Pi_q``, a theta product) is stated once, by a *statement*
``(factors, pref, sign)``: the factor dict ``{(a, b): r}``, the prefactor
exponent and the sign of  sign * q^pref * prod (q^a; q^b)_inf^r.  A signed
factor enters through (-q^a; q^b) = (q^(2a); q^(2b)) / (q^a; q^b).  The
``*_statement`` functions check their input and state the primitives
``eta``, ``geta``, ``pi`` and ``theta``; the constructors are "check, then
``_qproduct``" over them.  A product of integer powers of statements is a
statement too (``_power_product``): the quotient classes are built that way,
and the DSL forms a product of eta-type calls as one ``_qproduct`` call, an
``EtaTypeProduct`` at the window of ``eta_type_product``.

The primitive products (``pochhammer``, ``eta``, ``gen_eta``, ``theta_f``,
``lambert_mod``, ``pi_q``) take an *absolute* exponent ceiling ``order``:
the result is known modulo ``q^order`` (often a little further).  The named
modular functions of :func:`gosper_symbols` have poles of different orders
at infinity, so there ``order`` is the *relative* window R: a function with
leading exponent ``lead`` is known exactly through ``lead + R``.

The named functions are one table, ``_SYMBOLS``: a product symbol is its
quotient object, which ``level14`` reads too, and no leading exponent is
stated, since a build is cut at its own valuation plus R.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .series import QSeries


def _qproduct(statement: tuple, order) -> QSeries:
    """The product ``statement`` = (factors, pref, sign), that is
    sign * q^pref * prod over ``factors`` {(a, b): r} of (q^a; q^b)_inf^r,
    known modulo q^order.

    The unit part f is known modulo q^w with w = max(1, ceil(order - pref)).
    It comes in one pass of integer arithmetic from its logarithmic
    derivative,  k f_k = sum_{j=1..k} s_j f_(k-j),  where s_j is minus the
    sum of r * m over the factors (1 - q^m)^r with m | j; no series power,
    product or inverse is formed.
    """
    factors, pref, sign = statement
    pref = Fraction(pref)
    w = max(1, math.ceil(Fraction(order) - pref))
    s = [0] * w
    for (a, b), r in factors.items():
        for m in range(a, w, b):
            for j in range(m, w, m):
                s[j] -= r * m
    f = [1] + [0] * (w - 1)
    for k in range(1, w):
        # exact: f has integer coefficients
        f[k] = sum(map(mul, s[1 : k + 1], f[k - 1 :: -1])) // k
    if sign < 0:
        f = [-x for x in f]
    n, d = pref.numerator, pref.denominator
    cs = [0] * ((w - 1) * d + 1)
    cs[::d] = f
    return QSeries._make(cs, n, d, n + w * d)


def _power_product(parts, pref=0) -> tuple:
    """The statement of  q^pref * prod over ``parts`` (statement, r) of
    statement^r: factor exponents and prefactors add, signs multiply, and a
    factor whose exponents cancel is dropped."""
    factors, pref, sign = {}, Fraction(pref), 1
    for (part, p, s), r in parts:
        for key, x in part.items():
            factors[key] = factors.get(key, 0) + r * x
        pref += r * p
        if s < 0 and r % 2:
            sign = -sign
    return {key: r for key, r in factors.items() if r}, pref, sign


def eta_type_product(parts: list, order, q_exponent=0) -> QSeries:
    """q^q_exponent * prod over ``parts`` (statement, r) of statement^r, known
    as far as the factor-by-factor product of the parts, each expanded
    modulo q^order, knows it.

    That product keeps the least relative window of its factors, an inverse
    or power keeps its base's, and q powers are exact: so the unit part is
    known modulo q^w for the least w = max(1, ceil(order - pref)) over the
    parts, zero exponents included.  One ``EtaTypeProduct.series`` call,
    that is one ``_qproduct`` call, forms it.
    """
    w = min(max(1, math.ceil(Fraction(order) - p)) for (_, p, _), _ in parts)
    product = EtaTypeProduct(parts, q_exponent)
    return product.series(product.prefactor_exponent() + w)


def _factor_dict(triples) -> dict:
    """{(a, b): r} from (a, b, r) triples; the exponents of a repeated pair add."""
    out = {}
    for a, b, r in triples:
        out[a, b] = out.get((a, b), 0) + r
    return out


def _signed(sign: int, a: int, b: int) -> tuple:
    """(a, b, r) triples of (sign q^a; q^b)_inf, through
    (-q^a; q^b) = (q^(2a); q^(2b)) / (q^a; q^b)."""
    if sign == 1:
        return ((a, b, 1),)
    return ((2 * a, 2 * b, 1), (a, b, -1))


def pochhammer(sign: int, a: int, b: int, order: int) -> QSeries:
    """The product  prod_{n>=0} (1 - sign * q^(a + n b)),  modulo q^order."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a < 1 or b < 1:
        raise ValueError("pochhammer exponents must satisfy a >= 1, b >= 1")
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _qproduct((_factor_dict(_signed(sign, a, b)), 0, 1), order)


def eta_statement(delta: int) -> tuple:
    """Dedekind eta at delta*tau:  q^(delta/24) * prod_{n>=1} (1 - q^(delta n))."""
    if delta < 1:
        raise ValueError("eta argument must be a positive integer")
    return {(delta, delta): 1}, Fraction(delta, 24), 1


def eta(delta: int, order) -> QSeries:
    """Dedekind eta at delta*tau, modulo q^order (see ``eta_statement``)."""
    return _qproduct(eta_statement(delta), order)


def _b2(t: Fraction) -> Fraction:
    # second Bernoulli polynomial
    return t * t - t + Fraction(1, 6)


def gen_eta_prefactor(level: int, g: int) -> Fraction:
    """Leading exponent  level * B2(g/level) / 2  of eta_{level,g}."""
    return Fraction(level, 2) * _b2(Fraction(g % level, level))


def _gen_eta_index(level: int, g: int) -> tuple:
    """(g0, sign) with eta_{level,g} = sign * eta_{level,g0} and 0 < g0 < level,
    through the laws eta_{N,g+N} = eta_{N,-g} = -eta_{N,g}."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    g0 = g % (2 * level)
    if g0 % level == 0:
        raise ValueError("index g must not be divisible by the level")
    return (g0, 1) if g0 < level else (g0 - level, -1)


def gen_eta_statement(level: int, g: int) -> tuple:
    """Generalized eta function eta_{level,g}.

    For 0 < g < level this is
        q^(level*B2(g/level)/2) (q^g; q^level) (q^(level-g); q^level),
    and other indices reduce through eta_{N,g+N} = eta_{N,-g} = -eta_{N,g}.
    Indices divisible by the level are rejected (the product degenerates).
    """
    g0, sign = _gen_eta_index(level, g)
    factors = _factor_dict(((g0, level, 1), (level - g0, level, 1)))
    return factors, gen_eta_prefactor(level, g0), sign


def gen_eta(level: int, g: int, order) -> QSeries:
    """eta_{level,g} modulo q^order (see ``gen_eta_statement``)."""
    return _qproduct(gen_eta_statement(level, g), order)


class _Quotient:
    """A product of integer powers of eta-type functions.  For one family,
    ``exponents`` maps an index to its exponent and ``_part`` states the
    function of an index.

    ``series`` is the product layer's one method: each class binds it in its
    own namespace, where a tracer that looks a class's ``series`` up there
    (``bench/layers.py``) finds it.
    """

    def statement(self) -> tuple:
        return _power_product((self._part(i), r) for i, r in self.exponents.items())

    def prefactor_exponent(self) -> Fraction:
        return self.statement()[1]

    def series(self, order) -> QSeries:
        """The product modulo q^order."""
        return _qproduct(self.statement(), order)


@dataclass
class EtaQuotient(_Quotient):
    """A product  prod_{delta | level} eta(delta tau)^(r_delta).

    ``exponents`` maps delta -> r_delta; zero exponents are dropped and every
    delta must divide the level.
    """

    level: int
    exponents: dict

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        clean = {}
        for d in sorted(self.exponents):
            r = self.exponents[d]
            if not r:
                continue
            d = int(d)
            if d < 1 or self.level % d:
                raise ValueError(
                    f"eta argument {d} does not divide the level {self.level}"
                )
            clean[d] = int(r)
        self.exponents = clean

    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents.values()), 2)

    def _part(self, delta: int) -> tuple:
        return eta_statement(delta)

    series = _Quotient.series


@dataclass
class GenEtaQuotient(_Quotient):
    """A product  prod_g eta_{level,g}^(r_g)  with 1 <= g <= level/2."""

    level: int
    exponents: dict

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        clean = {}
        for g in sorted(self.exponents):
            r = self.exponents[g]
            if not r:
                continue
            g = int(g)
            if not 1 <= g <= self.level // 2:
                raise ValueError(
                    f"index {g} outside 1..{self.level // 2} for level {self.level}"
                )
            clean[g] = int(r)
        self.exponents = clean

    def _part(self, g: int) -> tuple:
        return gen_eta_statement(self.level, g)

    series = _Quotient.series


@dataclass
class EtaTypeProduct(_Quotient):
    """q^q_exponent * prod over ``parts`` (statement, r) of statement^r: a
    product of integer powers of eta-type functions of any families."""

    parts: list
    q_exponent: Fraction = Fraction(0)

    def statement(self) -> tuple:
        return _power_product(self.parts, self.q_exponent)

    series = _Quotient.series


def theta_statement(sa: int, a: int, sb: int, b: int) -> tuple:
    """Ramanujan's theta function f(x, y) at x = sa*q^a, y = sb*q^b, as the
    triple product  f(x, y) = (-x; xy)_inf (-y; xy)_inf (xy; xy)_inf.

    Arguments must be signed q-monomials (sa, sb in {+1, -1}; a, b positive
    integers).
    """
    if sa not in (1, -1) or sb not in (1, -1):
        raise ValueError("theta arguments must be signed q-monomials")
    if a < 1 or b < 1:
        raise ValueError("theta exponents must be positive integers")

    # (v; Q) with a sign-alternating ratio Q = -q^step splits into the
    # even- and odd-index subproducts, each with ratio q^(2 step)
    def poch_signed(s0, e, step):
        if sa * sb == 1:
            return _signed(s0, e, step)
        return _signed(s0, e, 2 * step) + _signed(-s0, e + step, 2 * step)

    triples = (
        poch_signed(-sa, a, a + b)
        + poch_signed(-sb, b, a + b)
        + poch_signed(sa * sb, a + b, a + b)
    )
    return _factor_dict(triples), 0, 1


def theta_f(sa: int, a: int, sb: int, b: int, order, form: str = "product") -> QSeries:
    """Ramanujan's theta function f(x, y) at x = sa*q^a, y = sb*q^b, modulo
    q^order.

    The default is the triple-product form of ``theta_statement``;
    ``form="sum"`` computes the bilateral series
        sum_{n in Z} x^(n(n+1)/2) y^(n(n-1)/2)
    by direct accumulation, as an independent cross-check.
    """
    statement = theta_statement(sa, a, sb, b)
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    if form == "product":
        return _qproduct(statement, order)
    if form == "sum":
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
    raise ValueError(f"unknown form {form!r}; expected 'product' or 'sum'")


def lambert_mod(r: int, modulus: int, order) -> QSeries:
    """sum over n >= 1, n ≡ r (mod modulus), of  q^n / (1 - q^n)^2.

    The coefficient of q^M is  sum of M/d over divisors d | M with
    d ≡ r (mod modulus).
    """
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    r = r % modulus
    c = [0] * order
    n = r if r else modulus
    while n < order:
        for m in range(n, order, n):
            c[m] += m // n
        n += modulus
    return QSeries(c, 0, 1, order)


def lambert_L(k: int, order) -> QSeries:
    """L_k = sum_{n>=1} q^(kn)/(1-q^(kn))^2."""
    return lambert_mod(0, k, order)


def lambert_L_odd(k: int, order) -> QSeries:
    """L'_k = sum over odd multiples:  sum_{n>=1, n odd} q^(kn)/(1-q^(kn))^2."""
    return lambert_mod(k, 2 * k, order)


def bailey_specialization(i: int, modulus: int, order) -> QSeries:
    """Bilateral Lambert-series combination for an even modulus L:

        lambert_mod(i, L) + lambert_mod(-i, L) - 2 lambert_mod(L/2, L).

    This is the two-variable Lambert kernel with its arguments specialised to
    the q-powers i and L/2; indices i ≡ 0 or L/2 (mod L) make the
    specialisation collapse onto a pole and are rejected.
    """
    if modulus < 1 or modulus % 2:
        raise ValueError("bilateral specialisation needs a positive even modulus")
    i0 = i % modulus
    if i0 == 0 or i0 == modulus // 2:
        raise ValueError(
            "pole in bilateral sum: index %d is 0 or %d modulo %d"
            % (i, modulus // 2, modulus)
        )
    half = lambert_mod(modulus // 2, modulus, order)
    return (
        lambert_mod(i0, modulus, order)
        + lambert_mod(modulus - i0, modulus, order)
        - 2 * half
    )


def pi_statement(k: int) -> tuple:
    """Pi_{q^k} = q^(k/4) (q^(2k); q^(2k))^2 / (q^k; q^(2k))^2.

    Equal to the eta quotient eta(2k tau)^4 / eta(k tau)^2.
    """
    if k < 1:
        raise ValueError("argument must be a positive integer")
    return {(2 * k, 2 * k): 4, (k, k): -2}, Fraction(k, 4), 1


def pi_q(k: int, order) -> QSeries:
    """Pi_{q^k} modulo q^order (see ``pi_statement``)."""
    return _qproduct(pi_statement(k), order)


# -- named level-14 functions ------------------------------------------------

#: 1/Pi_{q^7}^2 = eta(7)^4 / eta(14)^8, the factor that z and f share
_PI7_INV2 = EtaQuotient(14, {7: 4, 14: -8})

#: name -> definition, in the notation of the table in :func:`gosper_symbols`.
#: A product symbol is its quotient object (``level14`` takes g1-g3, h1 and
#: h2 from here).  Any other is written once over a backend ``b`` that offers
#: the value of a quotient ``b.quot(q)``, the Lambert sums ``b.L(k)`` and
#: ``b.Lodd(k)``, and the other named functions ``b.sym(name)``; ``_Exact``
#: reads it here and ``numeric._Float`` in floats.
_SYMBOLS = {
    "z": lambda b: (b.Lodd(1) - 7 * b.Lodd(7)) * b.quot(_PI7_INV2),
    "w": lambda b: 4 * (b.L(1) - 7 * b.L(7)) + 1,
    "g": EtaQuotient(14, {1: -2, 2: 4, 7: 2, 14: -4}),
    "g1": GenEtaQuotient(14, {1: -2, 6: 2}),
    "g2": GenEtaQuotient(14, {3: -2, 4: 2}),
    "g3": GenEtaQuotient(14, {2: 2, 5: -2}),
    "f0": lambda b: b.sym("g1") ** 2 + b.sym("g2") ** 2 + b.sym("g3") ** 2,
    "f1": lambda b: b.sym("g1") * b.sym("g2")
    + b.sym("g1") * b.sym("g3")
    + b.sym("g2") * b.sym("g3"),
    "f": lambda b: b.sym("w") * b.quot(_PI7_INV2) / b.sym("z"),
    "h1": EtaQuotient(28, {1: -2, 2: 4, 7: -2, 14: 8, 28: -8}),
    "h2": EtaQuotient(28, {1: 2, 2: -4, 7: -6, 14: 16, 28: -8}),
    "H": lambda b: b.sym("h1") + 16 / b.sym("h2"),
    "t": lambda b: b.sym("H") + 4 * b.sym("f1"),
}

SYMBOL_NAMES = tuple(_SYMBOLS)


def _define(name: str, b):
    """The named function over the backend ``b``."""
    entry = _SYMBOLS[name]
    return entry(b) if callable(entry) else b.quot(entry)


class _Exact:
    """The exact backend at relative window R: each quotient is expanded R
    orders past its own leading exponent, each named function at window R."""

    def __init__(self, window: int):
        self.R = window

    def quot(self, quot):
        return quot.series(quot.prefactor_exponent() + self.R)

    def L(self, k):
        return lambert_L(k, k + self.R)

    def Lodd(self, k):
        return lambert_L_odd(k, k + self.R)

    def sym(self, name):
        return gosper_symbols(name, self.R)


def _build(name: str, window: int) -> QSeries:
    got = _define(name, _Exact(window))
    got = got.truncate(got.valuation() + window)
    if name == "z":
        alt = (
            gosper_symbols("g1", window)
            + gosper_symbols("g2", window)
            + gosper_symbols("g3", window)
        )
        if got != alt:
            raise ArithmeticError(
                "cross-check failed: the Lambert-series and eta-quotient builds "
                "of z disagree"
            )
    return got


#: name -> (window, series) of its largest build, and name -> (window, series)
#: of the last smaller window served by truncating that build
_SYMBOL_CACHE: dict = {}
_SYMBOL_SERVED: dict = {}
_SYMBOL_LOCK = threading.RLock()


def gosper_symbols(name: str, order: int) -> QSeries:
    """Named modular functions for the level-14 identities, by relative window.

    ``order`` counts the known q-orders past the leading exponent (the
    functions have poles of different orders at infinity, so an absolute cap
    would be awkward): at window R the result is known exactly through
    lead + R.  Builds are thread-safe and cached, one per name: a smaller
    window is served by truncating the largest build.  Building z
    cross-checks its Lambert-series route against g1+g2+g3 and refuses to
    return on mismatch.

    name  definition                              leading exponent
    ----  -------------------------------------   ----------------
    z     (L'_1 - 7 L'_7) / Pi_{q^7}^2                 -5/2
    w     4 (L_1 - 7 L_7) + 1                           0
    g     Pi_q / Pi_{q^7}                              -3/2
    g1    eta_{14,6}^2 / eta_{14,1}^2                  -5/2
    g2    eta_{14,4}^2 / eta_{14,3}^2                  -1/2
    g3    eta_{14,2}^2 / eta_{14,5}^2                   3/2
    f0    g1^2 + g2^2 + g3^2                           -5
    f1    g1 g2 + g1 g3 + g2 g3                        -3
    f     w / (Pi_{q^7}^2 z)                           -1
    h1    g Pi_{q^7}^2 / Pi_{q^14}^2                   -5
    h2    Pi_{q^7}^2 / (g Pi_{q^14}^2)                 -2
    H     h1 + 16/h2                                   -5
    t     H + 4 f1                                     -5
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive relative window")
    if name not in _SYMBOLS:
        raise KeyError(
            f"unknown symbol {name!r}; available: {', '.join(SYMBOL_NAMES)}"
        )
    with _SYMBOL_LOCK:
        window, built = _SYMBOL_CACHE.get(name, (0, None))
        if window < order:
            window, built = _SYMBOL_CACHE[name] = order, _build(name, order)
        if window == order:
            return built
        served = _SYMBOL_SERVED.get(name)
        if served is None or served[0] != order:
            cut = built.truncate(built.valuation() + order)
            served = _SYMBOL_SERVED[name] = order, cut
        return served[1]
