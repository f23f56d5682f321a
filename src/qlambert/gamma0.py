"""Cusps of Gamma_0(N) and exact vanishing orders of eta-type products.

Conventions used throughout:

* a cusp a/c is stored reduced with c >= 0; infinity is (1, 0),
* ``cusp_set(N)`` returns one representative per Gamma_0(N)-class, ordered
  by increasing denominator, with 0 = (0, 1) first and infinity last,
* orders are invariant orders (local order times cusp width), so a
  weight-0 invariant quotient has integer orders summing to zero over a
  full set of representatives.

One formula reads every order (``_factor_orders``), from a statement's factor
dict {(g, M): r}, the product of (q^g; q^M)^r: at a/c, with d = gcd(c, M) and
k = a g mod d, a factor adds r (6 k^2 - 6 k d + d^2) / (24 M), that is
r d^2 P2(a g / d) / (4 M) for P2 the periodic second Bernoulli polynomial, and
the sum times the width is the order.  (q^M; q^M) gives eta(M tau)'s order and
the two factors of eta_{M,g} give Robins'.  Both public orders, the tables'
rows (``_orders``) and ``ord-table`` read it, in integers, one Fraction per
cusp.  No class search (``cusp_equivalent``, ``class_representative``) is on
it: an eta factor reads only gcd(c, n) and the width, which a class shares.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .constructors import _positive, _power_product

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
    _positive(n, "level")
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


def _factor_orders(factors, n: int, cusps) -> tuple:
    """The invariant orders on Gamma_0(n), at each cusp of ``cusps``, of the
    product of (q^g; q^M)^r over the factor dict {(g, M): r}, by the module's
    formula.  An eta factor (M, M) reads the cusp's class, c -> gcd(c, n)
    mod n; any other reads a/c as passed.  The sum is taken in integers over
    24 lcm(M), one Fraction per cusp."""
    _positive(n, "level")
    big = math.lcm(*(m for _, m in factors))
    terms = [(g, m, r * (big // m)) for (g, m), r in factors.items()]
    row = []
    for cusp in map(_as_cusp, cusps):
        a, c = cusp
        ce = math.gcd(c, n) % n
        total = 0
        for g, m, w in terms:
            if g == m:
                d = math.gcd(ce, m)
                total += w * d * d
            else:
                d = math.gcd(c, m)
                k = a * g % d
                total += w * (6 * k * (k - d) + d * d)
        row.append(Fraction(cusp_width(n, cusp) * total, 24 * big))
    return tuple(row)


def eta_cusp_order(quot, n: int, r) -> Fraction:
    """Invariant order of an eta quotient at a cusp of Gamma_0(n).

    With c the denominator of the cusp's representative in ``cusp_set(n)``,
    gcd(c0, n) for a cusp a0/c0 (0, infinity, when n | c0), the order is
    (n / (24 gcd(c^2, n))) * sum gcd(c, delta)^2 r_delta / delta.  At
    infinity this is the q-valuation.  It is read from the quotient's
    statement by ``_factor_orders``.
    """
    return _factor_orders(quot.statement()[0], n, (r,))[0]


def gen_eta_cusp_ord(quot, n: int, r) -> Fraction:
    """Invariant order of a generalized eta quotient at a cusp of Gamma_0(n).

    The cusp a/c is used exactly as passed (no class reduction); callers
    pick the representative whose orbit they mean.  With M the quotient's
    level and d = gcd(c, M),

        m0 = (d^2 / 2M) * sum_g r_g P2(a g / d),
        Ord = (n / gcd(c^2, n)) * m0,

    where P2 is the periodic second Bernoulli polynomial: each eta_{M,g} is
    the two factors (q^g; q^M) (q^(M-g); q^M) of its statement, which
    ``_factor_orders`` reads.  At infinity (1, 0) this is the q-valuation;
    M need not divide n, which is what the mixed-level tables use.
    """
    return _factor_orders(quot.statement()[0], n, (r,))[0]


def _orders(factors, n: int, cusps) -> tuple:
    """The invariant orders of the product of the powers quot^r over the pairs
    (quot, r) of ``factors``, at each cusp of ``cusps`` on Gamma_0(n): the
    orders of their merged statement."""
    merged, _, _ = _power_product((quot.statement(), r) for quot, r in factors)
    return _factor_orders(merged, n, cusps)
