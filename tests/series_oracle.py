"""Slow reference kernels for QSeries: schoolbook Fraction arithmetic.

These are the sum, product, inverse and square root that QSeries used before
its coefficient kernels went fraction-free.  They work on Fractions from
start to finish, read a series only through its fields ``v``, ``D``, ``T``
and its terms from ``items()``, build one only through the normalising
constructor, and share no code with the kernels in ``qlambert.series``.
The differential tests compare the two.
"""

import math
from fractions import Fraction

from qlambert import PrecisionError, QSeries

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _on_grid(s, D):
    # (v, coefficient list, T) of s viewed on the finer grid D, one entry
    # per grid step from v through the last term
    m = D // s.D
    v, cs = s.v * m, []
    for e, c in s.items():
        j = int(e * D) - v
        cs += [_ZERO] * (j - len(cs)) + [c]
    return v, cs, None if s.T is None else s.T * m


def add(f, g):
    D = math.lcm(f.D, g.D)
    fv, fc, fT = _on_grid(f, D)
    gv, gc, gT = _on_grid(g, D)
    ts = [t for t in (fT, gT) if t is not None]
    T = min(ts) if ts else None
    parts = [(v, cs) for v, cs in ((fv, fc), (gv, gc)) if cs]
    if not parts:
        return QSeries((), 0, D, T)
    lo = min(v for v, _ in parts)
    hi = max(v + len(cs) for v, cs in parts)
    if T is not None:
        hi = min(hi, T)
    out = [_ZERO] * max(0, hi - lo)
    for v, cs in parts:
        for k, c in enumerate(cs):
            if c and v + k < hi:
                out[v + k - lo] += c
    return QSeries(out, lo, D, T)


def mul(f, g):
    if (f.is_zero() and f.T is None) or (g.is_zero() and g.T is None):
        return QSeries()
    D = math.lcm(f.D, g.D)
    fv, fc, fT = _on_grid(f, D)
    gv, gc, gT = _on_grid(g, D)
    cands = []
    if fT is not None:
        cands.append(fT + gv)
    if gT is not None:
        cands.append(gT + fv)
    T = min(cands) if cands else None
    if not fc or not gc:
        return QSeries((), 0, D, T)
    v = fv + gv
    hi = fv + len(fc) + gv + len(gc) - 1
    if T is not None:
        hi = min(hi, T)
    out = [_ZERO] * max(0, hi - v)
    fnz = [(fv + k, c) for k, c in enumerate(fc) if c]
    gnz = [(gv + k, c) for k, c in enumerate(gc) if c]
    for i, ci in fnz:
        for j, cj in gnz:
            if i + j >= hi:
                break
            out[i + j - v] += ci * cj
    return QSeries(out, v, D, T)


def _unit_part(f):
    # (u, its coefficient list on its own grid)
    v, cs, T = _on_grid(f, f.D)
    u = QSeries(cs, 0, f.D, None if T is None else T - v)
    return u, _on_grid(u, u.D)[1]


def _window(u, terms, what):
    if u.T is None:
        if terms is None:
            raise PrecisionError(f"{what} of an exact series: pass terms=")
        return int(terms) * u.D
    return u.T if terms is None else min(u.T, int(terms) * u.D)


def invert(f, terms=None):
    if f.is_zero():
        if f.T is None:
            raise ZeroDivisionError("cannot invert the zero series")
        raise PrecisionError("zero through its truncation")
    u, ucs = _unit_part(f)
    if u.T is None and len(ucs) == 1:
        return QSeries((1 / ucs[0],), -f.v, f.D)
    R = _window(u, terms, "inverse")
    a = ucs[:R] + [_ZERO] * max(0, R - len(ucs))
    b = [_ZERO] * R
    inv0 = 1 / a[0]
    b[0] = inv0
    for k in range(1, R):
        acc = _ZERO
        for i in range(1, k + 1):
            if a[i]:
                acc += a[i] * b[k - i]
        if acc:
            b[k] = -inv0 * acc
    return mul(QSeries(b, 0, u.D, R), QSeries((_ONE,), -f.v, f.D))


def sqrt(f, terms=None):
    if f.is_zero():
        if f.T is None:
            return QSeries()
        raise PrecisionError("zero through its truncation")
    c0 = f.leading_coefficient()
    if c0 < 0:
        raise ValueError("no rational square root: negative leading coefficient")
    rn, rd = math.isqrt(c0.numerator), math.isqrt(c0.denominator)
    if rn * rn != c0.numerator or rd * rd != c0.denominator:
        raise ValueError("no rational square root: leading coefficient")
    u, ucs = _unit_part(f)
    e = Fraction(f.v, 2 * f.D)
    mono = QSeries((Fraction(rn, rd),), e.numerator, e.denominator)
    if u.T is None and len(ucs) == 1:
        return mono
    R = _window(u, terms, "square root")
    a = [c / c0 for c in ucs[:R]] + [_ZERO] * max(0, R - len(ucs))
    b = [_ZERO] * R
    b[0] = _ONE
    half = Fraction(1, 2)
    nonzero = []  # the indices i >= 1 with b_i != 0, ascending
    for k in range(1, R):
        # b_k = (a_k - sum_{0<i<k} b_i b_(k-i)) / 2, each unordered pair once:
        # the sum is 2 sum_{i < k-i} b_i b_(k-i) + b_(k/2)^2
        cross = _ZERO
        acc = a[k]
        for i in nonzero:
            j = k - i
            if j <= i:
                if j == i:
                    acc -= b[i] * b[i]
                break
            if b[j]:
                cross += b[i] * b[j]
        acc -= 2 * cross
        if acc:
            b[k] = acc * half
            nonzero.append(k)
    return mul(QSeries(b, 0, u.D, R), mono)


def power(f, n):
    """f**n for an integer n, by repeated squaring over the oracle product."""
    if n == 0:
        return QSeries.constant(1)
    if n < 0:
        return power(invert(f), -n)
    result, base = None, f
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)
