"""Slow references for the invariant cusp orders, one formula per family.

``eta_order`` is the gcd sum of an eta quotient and ``gen_eta_order`` Robins'
Bernoulli sum of a generalized eta quotient, each in ``Fraction``s term by
term over the quotient's own exponents.  They share no code with
``qlambert.gamma0``, which reads both families, and every other eta-type
product, from its statement's factor dict; the order tests compare the two.
"""

import math
from fractions import Fraction

from qlambert.constructors import EtaQuotient, GenEtaQuotient
from qlambert.gamma0 import Cusp


def p2(x: Fraction) -> Fraction:
    # the periodic second Bernoulli polynomial
    t = x % 1
    return t * t - t + Fraction(1, 6)


def gen_eta_order(quot: GenEtaQuotient, n: int, r: Cusp) -> Fraction:
    # (n / gcd(c^2, n)) (d^2 / 2M) sum_g r_g P2(a g / d), d = gcd(c, M), in
    # Fractions term by term
    m = quot.level
    d = math.gcd(r.c, m)
    m0 = Fraction(d * d, 2 * m) * sum(
        (rg * p2(Fraction(r.a * g, d)) for g, rg in quot.exponents.items()),
        Fraction(0),
    )
    return Fraction(n, math.gcd(r.c * r.c, n)) * m0


def eta_order(quot: EtaQuotient, n: int, r: Cusp) -> Fraction:
    # (n / (24 gcd(c0^2, n))) sum gcd(c, delta)^2 r_delta / delta with
    # c = gcd(c0, n) mod n, in Fractions term by term
    c = math.gcd(r.c, n) % n
    total = sum(
        (Fraction(math.gcd(c, d) ** 2, d) * rd for d, rd in quot.exponents.items()),
        Fraction(0),
    )
    return Fraction(n, 24 * math.gcd(r.c * r.c, n)) * total


def order(quot, n: int, r: Cusp) -> Fraction:
    """The order of ``quot``, an EtaQuotient or a GenEtaQuotient, by its
    family's formula."""
    if isinstance(quot, EtaQuotient):
        return eta_order(quot, n, r)
    return gen_eta_order(quot, n, r)
