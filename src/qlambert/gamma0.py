"""Cusps of Gamma_0(N) and exact vanishing orders of eta-type products.

Conventions used throughout:

* a cusp a/c is stored reduced with c >= 0; infinity is (1, 0),
* ``cusp_set(N)`` returns one representative per Gamma_0(N)-class, ordered
  by increasing denominator, with 0 = (0, 1) first and infinity last,
* orders reported by :func:`eta_cusp_order` and :func:`gen_eta_cusp_ord`
  are invariant orders (local order times cusp width), so a weight-0
  invariant quotient has integer orders summing to zero over a full set
  of representatives.

All arithmetic is exact: the orders are summed in integers, and each is one
Fraction.  A cusp order is linear in the exponents; ``_orders`` sums the
orders of a product of quotient powers over a list of cusps, the one path by
which the order tables and ``ord-table`` read them.  No class search
(``cusp_equivalent``, ``class_representative``) is on it: an eta quotient's
order reads only gcd(c, n) and the width, which a cusp class shares.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .constructors import EtaQuotient, GenEtaQuotient

__all__ = [
    "Cusp",
    "CuspTable",
    "apply_gamma",
    "class_representative",
    "cusp_equivalent",
    "cusp_set",
    "cusp_width",
    "eta_cusp_order",
    "gen_eta_cusp_ord",
    "parse_cusp",
    "psi",
]


class Cusp(namedtuple("Cusp", "a c")):
    """A cusp of the extended upper half plane, stored as a reduced fraction.

    ``Cusp(a, c)`` represents a/c; infinity is ``Cusp(1, 0)``.  The
    constructor reduces to lowest terms and normalizes the sign so c >= 0.
    Cusps compare and hash as the pair (a, c).
    """

    __slots__ = ()

    def __new__(cls, a: int, c: int):
        if not (isinstance(a, int) and isinstance(c, int)):
            raise TypeError("cusp entries must be integers")
        if a == 0 and c == 0:
            raise ValueError("0/0 is not a cusp")
        g = math.gcd(a, c)
        a //= g
        c //= g
        if c < 0 or (c == 0 and a < 0):
            a, c = -a, -c
        return tuple.__new__(cls, (a, c))

    def __str__(self) -> str:
        if self.c == 0:
            return "inf"
        if self.c == 1:
            return str(self.a)
        return f"{self.a}/{self.c}"

    def __repr__(self) -> str:
        return f"Cusp({self.a}, {self.c})"


def parse_cusp(text: str) -> Cusp:
    """Parse ``"inf"``, ``"0"``, ``"1/2"``, ``"-3/14"``, ... into a Cusp."""
    s = text.strip().lower()
    if s in ("inf", "oo", "infinity", "∞"):
        return Cusp(1, 0)
    if "/" in s:
        num, _, den = s.partition("/")
        return Cusp(int(num), int(den))
    return Cusp(int(s), 1)


def _as_cusp(r) -> Cusp:
    if isinstance(r, Cusp):
        return r
    if isinstance(r, str):
        return parse_cusp(r)
    if isinstance(r, tuple) and len(r) == 2:
        return Cusp(r[0], r[1])
    if isinstance(r, Fraction):
        return Cusp(r.numerator, r.denominator)
    if isinstance(r, int):
        return Cusp(r, 1)
    raise TypeError(f"cannot interpret {r!r} as a cusp")


#: the largest level ``cusp_set`` and ``psi`` accept: both walk the
#: candidate divisors up to sqrt(N), about 10^4 steps at this bound
_MAX_LEVEL = 10**8


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError("level must be a positive integer")
    if n > _MAX_LEVEL:
        raise ValueError(f"level {n} is above the largest supported level {_MAX_LEVEL}")


def _divisors(n: int) -> list[int]:
    # ascending; each divisor d <= sqrt(n) pairs with n // d
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def psi(n: int) -> int:
    """Index of Gamma_0(n) in the modular group: n * prod_{p|n} (1 + 1/p).

    Levels above 10^8 are refused with ValueError.
    """
    _check_level(n)
    num, den = n, 1
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            num *= p + 1
            den *= p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        num *= m + 1
        den *= m
    return num // den


def cusp_width(n: int, r) -> int:
    """Width of the cusp r on Gamma_0(n): n / gcd(c^2, n)."""
    c = _as_cusp(r).c
    return n // math.gcd(c * c, n)


class CuspTable:
    """A complete set of cusp representatives of Gamma_0(level) with widths.

    Immutable; iterating it yields the (cusp, width) entries.
    """

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: tuple[tuple[Cusp, int], ...]):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not CuspTable:
            return NotImplemented
        return (self.level, self.entries) == (other.level, other.entries)

    def __hash__(self):
        return hash((self.level, self.entries))

    def __repr__(self) -> str:
        return f"CuspTable(level={self.level!r}, entries={self.entries!r})"

    def __reduce__(self):
        # copies and pickles go through the constructor, not __setattr__
        return CuspTable, (self.level, self.entries)

    @property
    def cusps(self) -> tuple[Cusp, ...]:
        return tuple(r for r, _ in self.entries)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(h for _, h in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def cusp_set(n: int) -> CuspTable:
    """One representative per cusp class of Gamma_0(n).

    For each divisor c of n there are phi(gcd(c, n/c)) classes a/c with
    a running over units modulo gcd(c, n/c).  The class with c = 1 is
    presented as 0 and the class with c = n as infinity.  Widths sum
    to psi(n).  Levels above 10^8 are refused with ValueError before any
    divisor is sought.
    """
    _check_level(n)
    entries: list[tuple[Cusp, int]] = []
    for c in _divisors(n):
        d = math.gcd(c, n // c)
        for u in range(1, d + 1):
            if math.gcd(u, d) != 1:
                continue
            if c == n:
                rep = Cusp(1, 0)
            elif c == 1:
                rep = Cusp(0, 1)
            else:
                a = u
                while math.gcd(a, c) != 1:
                    a += d
                rep = Cusp(a, c)
            entries.append((rep, cusp_width(n, rep)))
    table = CuspTable(n, tuple(entries))
    assert sum(table.widths) == psi(n)
    return table


def cusp_equivalent(n: int, r1, r2) -> bool:
    """Whether two cusps lie in the same Gamma_0(n) orbit.

    a1/c1 ~ a2/c2 iff there is a unit s mod n with c2 = s*c1 (mod n) and
    a2 = s^{-1}*a1 (mod gcd(c1, n)).
    """
    x, y = _as_cusp(r1), _as_cusp(r2)
    g1 = math.gcd(x.c, n)
    for s in range(1, n + 1):
        if math.gcd(s, n) != 1:
            continue
        if (y.c - s * x.c) % n != 0:
            continue
        if (y.a - pow(s, -1, n) * x.a) % g1 == 0:
            return True
    return False


def class_representative(n: int, r) -> Cusp:
    """The representative from cusp_set(n) equivalent to r."""
    cusp = _as_cusp(r)
    for rep, _ in cusp_set(n):
        if cusp_equivalent(n, cusp, rep):
            return rep
    raise AssertionError(f"no representative found for {cusp} on Gamma_0({n})")


def apply_gamma(mat: Sequence[Sequence[int]], r) -> Cusp:
    """Image of a cusp under a fractional-linear map [[p, q], [u, v]]."""
    (p, q), (u, v) = mat
    cusp = _as_cusp(r)
    return Cusp(p * cusp.a + q * cusp.c, u * cusp.a + v * cusp.c)


def eta_cusp_order(quot: EtaQuotient, n: int, r) -> Fraction:
    """Invariant order of an eta quotient at a cusp of Gamma_0(n).

    With c the denominator of the cusp's representative in ``cusp_set(n)``,
    gcd(c0, n) for a cusp a0/c0 (0, infinity, when n | c0), the order is
    (n / (24 gcd(c^2, n))) * sum gcd(c, delta)^2 r_delta / delta.  At
    infinity this is the q-valuation.  With N the quotient's level, the sum
    is taken in integers as sum gcd(c, delta)^2 r_delta (N / delta), and the
    order is one Fraction of it over 24 N.
    """
    cusp = _as_cusp(r)
    if n < 1:
        raise ValueError("level must be a positive integer")
    c = math.gcd(cusp.c, n) % n
    level = quot.level
    total = sum(
        math.gcd(c, d) ** 2 * rd * (level // d) for d, rd in quot.exponents.items()
    )
    return Fraction(cusp_width(n, cusp) * total, 24 * level)


def gen_eta_cusp_ord(quot: GenEtaQuotient, n: int, r) -> Fraction:
    """Invariant order of a generalized eta quotient at a cusp of Gamma_0(n).

    The cusp a/c is used exactly as passed (no class reduction); callers
    pick the representative whose orbit they mean.  With M the quotient's
    level and d = gcd(c, M),

        m0 = (d^2 / 2M) * sum_g r_g P2(a g / d),
        Ord = (n / gcd(c^2, n)) * m0,

    where P2 is the periodic second Bernoulli polynomial.  With k = a g mod d,
    d^2 P2(a g / d) = k^2 - k d + d^2 / 6, so the sum is taken in integers as
    m0 = sum_g r_g (6 k^2 - 6 k d + d^2) / (12 M), and the order is one
    Fraction.  At infinity (1, 0) this is the q-valuation; M need not divide
    n, which is what the mixed-level tables use.
    """
    cusp = _as_cusp(r)
    a, c = cusp.a, cusp.c
    m = quot.level
    d = math.gcd(c, m)
    total, dd = 0, d * d
    for g, rg in quot.exponents.items():
        k = a * g % d
        total += rg * (6 * k * (k - d) + dd)
    return Fraction(cusp_width(n, cusp) * total, 12 * m)


def _orders(factors, n: int, cusps) -> tuple:
    """The invariant orders of the product of the powers quot^r over the pairs
    (quot, r) of ``factors``, at each cusp of ``cusps`` on Gamma_0(n): the sum
    of r times ``eta_cusp_order`` for an EtaQuotient and ``gen_eta_cusp_ord``
    for a GenEtaQuotient."""
    terms = [
        (eta_cusp_order if isinstance(quot, EtaQuotient) else gen_eta_cusp_ord, quot, r)
        for quot, r in factors
    ]
    row = []
    for cusp in cusps:
        num, den = 0, 1  # the sum in integers, made one Fraction
        for order, quot, r in terms:
            x = order(quot, n, cusp)
            num, den = num * x.denominator + r * x.numerator * den, den * x.denominator
        row.append(Fraction(num, den))
    return tuple(row)
