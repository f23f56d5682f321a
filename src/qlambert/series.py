"""Exact truncated Laurent series in rational powers of q.

A :class:`QSeries` stores a finite window of exact rational coefficients of

    f(q) = sum_k  c_k * q^((v + k*S)/D)

on the grid ``1/D``: the first term sits at index ``v`` and the others
follow every ``S`` grid steps, with an optional truncation index ``T``.
``T = None`` marks an *exact* Laurent polynomial: every coefficient outside
the stored window is exactly zero.  A finite ``T`` means the coefficients
of ``q^(j/D)`` for ``j >= T`` are unknown; everything below is stored or
exactly zero.  All arithmetic propagates truncation honestly, so a
coefficient is only ever reported when it is actually known.

Series are normalised on construction: zero coefficients are stripped from
both ends of the window, stored coefficients at or past ``T`` are discarded,
the stride ``S`` is the gcd of the nonzero terms' offsets from ``v`` (0 when
there are fewer than two terms), and ``D`` is the coarsest grid that holds
every term and ``T``: gcd(D, v, S, T) = 1.  So a series on a coset, such as
eta(d tau) = q^(d/24) * (1 - q^d - ...), stores one slot per step of its
own terms, never the empty grid slots between them.  Two series that print
the same are stored the same regardless of the grid they were built on.

Coefficients are stored as integer numerators over one positive common
denominator ``L``: the coefficient of slot k is ``coeffs[k] / L``, the sign
sits in the numerators, and gcd(L, *coeffs) = 1, so ``L`` is the least
common denominator of the coefficients (1 for an integral series, as every
product the constructors build is).  The kernels (sum, product, inverse,
square root, and powers through the product) read ``(L, coeffs)`` and run
on plain ``int``s; each result's denominator is reduced once, on
construction.  Every sum, difference and rational multiple of series is
one linear-combination kernel, ``_sum``: sum c_i * s_i in one pass.  A sum
or product works on the common stride of its operands' terms.  A product
with fewer than ``CROSSOVER`` pairs of nonzero terms, or with a factor of
one or two terms, walks those pairs; any other is one big-integer
multiplication (Kronecker substitution) on that common stride.
``Fraction`` appears only at the public boundary: the constructor takes
``int``, ``Fraction`` or ``str`` coefficients, and the readers
``coefficient``, ``leading_coefficient``, ``items`` and ``valuation``
always return ``Fraction`` values.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from .errors import PrecisionError

_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    """Coerce to an exact rational, refusing floats (exactness is the whole
    point)."""
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _ceil_div(n: int, d: int) -> int:
    return -((-n) // d)


#: products with at least this many pairs of nonzero terms, and at least 3
#: nonzero terms in each factor, are one big-integer multiplication; the
#: others are walked pair by pair.  On CPython 3.11, near-square operands
#: gain from 200-400 pairs on, a one- or two-term factor never does, and the
#: benchmark's products cost the same for any value from 200 to 1200
CROSSOVER = 600

# struct codes of the signed little-endian digit widths struct can read
_DIGIT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _spread(cs, m, n):
    """The first n slots of a coefficient list cs placed every m slots."""
    if m == 1:
        return cs[:n]
    out = [0] * min(n, (len(cs) - 1) * m + 1)
    out[::m] = cs[: _ceil_div(len(out), m)]
    return out


def _packed_product(fc, mf, gc, mg, n):
    """Slots 0 .. n-1 of the product of two integer coefficient lists, fc
    placed every mf slots and gc every mg slots.

    The slots are packed (Kronecker substitution): slot k of each operand
    is the k-th little-endian w-byte digit of one integer, and every product
    coefficient fits in a signed digit.  Flipping the top bit of every digit
    (xor B) turns two's complement digits into digits biased by 2^(8w-1),
    which are plain unsigned fields: subtracting B then packs signed digits,
    and adding B before flipping back reads them.
    """
    a, b = _spread(fc, mf, n), _spread(gc, mg, n)
    # a product coefficient sums at most min(len(a), len(b)) terms
    bits = (
        max(max(a), -min(a)).bit_length()
        + max(max(b), -min(b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    w = (bits + 7) // 8
    if w <= 8:
        w = 1 << (w - 1).bit_length()  # a width struct reads
    code = _DIGIT_CODES.get(w)
    half = (1 << (8 * w - 1)).to_bytes(w, "little")

    def packed(slots):
        if code:
            raw = struct.pack("<%d%s" % (len(slots), code), *slots)
        else:
            raw = b"".join([c.to_bytes(w, "little", signed=True) for c in slots])
        B = int.from_bytes(half * len(slots), "little")
        return (int.from_bytes(raw, "little") ^ B) - B

    pa = packed(a)
    pb = pa if b == a else packed(b)  # a square multiplies faster
    B = int.from_bytes(half * n, "little")
    low = ((pa * pb + B) & ((1 << (8 * w * n)) - 1)) ^ B
    raw = low.to_bytes(w * n, "little")
    if code:
        return list(struct.unpack("<%d%s" % (n, code), raw))
    return [
        int.from_bytes(raw[k : k + w], "little", signed=True)
        for k in range(0, w * n, w)
    ]


def _sum(terms) -> "QSeries":
    """The sum of c * s over ``terms``, pairs (c, s) of an ``int`` or
    ``Fraction`` c and a series s, in one pass over integers on the common
    stride of the terms: each s's numerators are scaled to one common
    denominator.  A term with c = 0 is the exact zero, as in a product; the
    others' least truncation is the sum's.
    """
    terms = [(c, s) for c, s in terms if c]
    D = math.lcm(*(s.D for _, s in terms)) if terms else 1
    # (c, series, grid multiplier) of each term
    ms = [(c, s, D // s.D) for c, s in terms]
    ts = [s.T * m for _, s, m in ms if s.T is not None]
    T = min(ts) if ts else None
    parts = [(c, s, m) for c, s, m in ms if s.coeffs]
    if not parts:
        return QSeries._make((), 0, D, T)
    lo = min(s.v * m for _, s, m in parts)
    # the common stride of the terms on the grid D
    S = math.gcd(*(x for _, s, m in parts for x in (s.v * m - lo, s.S * m))) or 1
    n = max(s.v * m - lo + (len(s.coeffs) - 1) * s.S * m for _, s, m in parts) // S + 1
    if T is not None:
        n = min(n, _ceil_div(T - lo, S))
    # the denominator of each c * s, and their common one
    dens = [s.L * c.denominator for c, s, _ in parts]
    L = math.lcm(*dens)
    out = [0] * max(0, n)
    for (c, s, m), den in zip(parts, dens):
        # first slot and step in slots of s on the common stride
        j, step = (s.v * m - lo) // S, s.S * m // S or 1
        scale = L // den * c.numerator
        # zip stops at whichever ends first: the terms or the window
        summed = [x + a * scale for x, a in zip(out[j::step], s.coeffs)]
        out[j : j + len(summed) * step : step] = summed
    return QSeries._make(out, lo, D, T, S, L)


class QSeries:
    """One truncated Laurent series in q^(1/D) with exact rational coefficients.

    ``coeffs[k] / L`` is the coefficient of ``q^((v+k*S)/D)``: ``coeffs``
    holds ``int`` numerators and ``L`` is their one positive denominator,
    with gcd(L, *coeffs) = 1; the public readers return ``Fraction``.  The
    stride ``S`` is the gcd of the nonzero terms' offsets from ``v`` (0 for
    fewer than two terms), so no stored slot lies between two steps of the
    terms.  Instances are immutable; all operations return new series.
    """

    __slots__ = ("D", "v", "S", "coeffs", "T", "L")

    def __init__(self, coeffs=(), v=0, D=1, T=None):
        if not isinstance(D, int) or D <= 0:
            raise ValueError("grid denominator D must be a positive integer")
        cs = [_rat(c) for c in coeffs]
        L = math.lcm(*(c.denominator for c in cs))
        cs = [c.numerator * (L // c.denominator) for c in cs]
        self._set(cs, int(v), D, None if T is None else int(T), 1, L)

    def _set(self, cs, v, D, T, S=1, L=1):
        # normalise integer numerators cs over L > 0, placed every S grid
        # slots from index v, into self; a lone term sits on any stride
        S = S or 1
        n = len(cs)
        lead = 0
        while lead < n and not cs[lead]:
            lead += 1
        end = n
        if T is not None and v + (end - 1) * S >= T:
            end = max(lead, _ceil_div(T - v, S))
        while end > lead and not cs[end - 1]:
            end -= 1
        # no known nonzero term: v = T, or 0 for the exact zero
        v = v + lead * S if end > lead else T or 0
        # the gcd of the nonzero terms' offsets from the first, in slots
        t = 0
        for k in range(lead + 1, end):
            if cs[k]:
                t = math.gcd(t, k - lead)
                if t == 1:
                    break
        S *= t
        g = math.gcd(D, v, S) if T is None else math.gcd(D, v, S, T)
        self.D, self.v, self.S = D // g, v // g, S // g
        self.T = None if T is None else T // g
        cs = cs[lead:end : t or 1]
        if L > 1:
            g = math.gcd(L, *cs)
            if g > 1:
                L //= g
                cs = [c // g for c in cs]
        self.coeffs, self.L = tuple(cs), L

    # -- raw construction ------------------------------------------------

    @staticmethod
    def _make(cs, v, D, T, S=1, L=1) -> "QSeries":
        # normalising construction from integer numerators over L
        s = object.__new__(QSeries)
        s._set(cs, v, D, T, S, L)
        return s

    @staticmethod
    def _raw(coeffs, v, D, T, S, L=1):
        # caller guarantees the normalisation invariants
        s = object.__new__(QSeries)
        s.D, s.v, s.S, s.coeffs, s.T, s.L = D, v, S, tuple(coeffs), T, L
        return s

    @classmethod
    def zero(cls, T=None, D=1) -> "QSeries":
        """The zero series: exact when T is None, else 0 + O(q^(T/D))."""
        return cls((), 0, D, T)

    @classmethod
    def constant(cls, c) -> "QSeries":
        return cls((c,), 0, 1, None)

    @classmethod
    def monomial(cls, c, e=0) -> "QSeries":
        """The exact single term c * q^e, for rational e."""
        e = _rat(e)
        return cls((c,), e.numerator, e.denominator, None)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero through T)."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.T is None

    def truncation_exponent(self):
        """Exponent where unknown coefficients start, or None if exact."""
        return None if self.T is None else Fraction(self.T, self.D)

    def valuation(self):
        """Exponent of the first nonzero term.

        Returns None for the exact zero series; raises PrecisionError when
        the series is zero through its truncation (the valuation, if any, is
        beyond what is known).
        """
        if self.coeffs:
            return Fraction(self.v, self.D)
        if self.T is None:
            return None
        raise PrecisionError(
            "series is zero through O(q^%s); valuation unknown"
            % Fraction(self.T, self.D)
        )

    def leading_coefficient(self) -> Fraction:
        if self.coeffs:
            return Fraction(self.coeffs[0], self.L)
        if self.T is None:
            raise ValueError("the zero series has no leading term")
        raise PrecisionError("series is zero through its truncation")

    def coefficient(self, e) -> Fraction:
        """The exact coefficient of q^e, or raise PrecisionError.

        Exponents off the grid or outside the stored window are exactly zero
        as long as they lie below the truncation order.
        """
        e = _rat(e)
        t = e * self.D
        if t.denominator == 1:
            j = t.numerator
            k, r = divmod(j - self.v, self.S or 1)
            if not r and 0 <= k < len(self.coeffs):
                return Fraction(self.coeffs[k], self.L)
            if self.T is None or j < self.T:
                return _ZERO
        elif self.T is None or e < Fraction(self.T, self.D):
            return _ZERO
        raise PrecisionError(
            "insufficient precision: coefficient of q^%s lies at or beyond "
            "the truncation order q^%s" % (e, Fraction(self.T, self.D))
        )

    def items(self):
        """Yield (exponent, coefficient) for each stored nonzero term."""
        for k, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.v + k * self.S, self.D), Fraction(c, self.L)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(((1, self), (1, o)))

    __radd__ = __add__

    def __neg__(self):
        return QSeries._raw(
            (-c for c in self.coeffs), self.v, self.D, self.T, self.S, self.L
        )

    def _scaled(self, c) -> "QSeries":
        # self * c for a nonzero rational c, without a series product
        return _sum(((c, self),))

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(((1, self), (-1, o)))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(((1, o), (-1, self)))

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if (not self.coeffs and self.T is None) or (not o.coeffs and o.T is None):
            return QSeries()
        D = math.lcm(self.D, o.D)
        mf, mg = D // self.D, D // o.D
        fv, gv = self.v * mf, o.v * mg
        # empty truncated factors carry v = T, so the min rule below treats
        # their (unknown) valuation by its lower bound
        cands = []
        if self.T is not None:
            cands.append(self.T * mf + gv)
        if o.T is not None:
            cands.append(o.T * mg + fv)
        T = min(cands) if cands else None
        if not self.coeffs or not o.coeffs:
            return QSeries._make((), 0, D, T)
        v = fv + gv
        # the common stride S of the terms, and each factor's step in it
        S = math.gcd(self.S * mf, o.S * mg) or 1
        sf, sg = self.S * mf // S, o.S * mg // S
        n = (len(self.coeffs) - 1) * sf + (len(o.coeffs) - 1) * sg + 1
        if T is not None:
            n = min(n, _ceil_div(T - v, S))
        fc, gc = self.coeffs, o.coeffs
        # the nonzero terms, by slot from v on the common stride
        fnz = [(k * sf, c) for k, c in enumerate(fc) if c]
        gnz = [(k * sg, c) for k, c in enumerate(gc) if c]
        if n > 0 and min(len(fnz), len(gnz)) >= 3 and len(fnz) * len(gnz) >= CROSSOVER:
            out = _packed_product(fc, sf, gc, sg, n)
        else:
            # walk the nonzero pairs
            if len(fnz) > len(gnz):
                fnz, gnz = gnz, fnz
            out = [0] * max(0, n)
            for i, a in fnz:
                lim = n - i
                if lim <= 0:
                    break  # fnz ascends
                for j, b in gnz:
                    if j >= lim:
                        break  # gnz ascends
                    out[i + j] += a * b
        return QSeries._make(out, v, D, T, S, self.L * o.L)

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, Fraction):
            if n.denominator == 1:
                n = int(n)
            elif self.coeffs == (1,) and self.L == 1 and self.T is None:
                return QSeries.monomial(1, Fraction(self.v, self.D) * n)
            else:
                raise ValueError(
                    "fractional powers are only defined for q-monomials with "
                    "coefficient 1; use sqrt() for series"
                )
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return QSeries.constant(1)
        if n < 0:
            return self.invert() ** (-n)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- inversion, division, square root ---------------------------------

    def _unit_part(self):
        # self with the leading monomial divided out; auto-compressed
        T = None if self.T is None else self.T - self.v
        return QSeries._make(self.coeffs, 0, self.D, T, self.S, self.L)

    @staticmethod
    def _window(u, what):
        # (R, S, n) for an inverse or square root of the unit part u: the
        # window of R = u.T grid slots, and the stride S and first n slots
        # of it that the result, a series in q^(S/D) like u, takes.  A lone
        # truncated term takes one slot.
        if u.T is None:
            raise PrecisionError(
                f"{what} an exact series gives an infinite expansion; "
                "truncate it first"
            )
        S = u.S or u.T
        return u.T, S, _ceil_div(u.T, S)

    def invert(self) -> "QSeries":
        """Multiplicative inverse.

        The inverse keeps the operand's relative window (the known orders
        past the leading exponent).  An exact series of one term inverts
        exactly; one of more terms has an infinite inverse, and raises
        PrecisionError: truncate it first.
        """
        if not self.coeffs:
            if self.T is None:
                raise ZeroDivisionError("cannot invert the zero series")
            raise PrecisionError(
                "cannot invert a series that is zero through its truncation"
            )
        u = self._unit_part()
        c = u.coeffs[0]
        if u.T is None and len(u.coeffs) == 1:
            return QSeries._make((u.L if c > 0 else -u.L,), -self.v, self.D, None, 1, abs(c))
        mono = QSeries._make((1,), -self.v, self.D, None)
        R, S, n = self._window(u, "inverting")
        # u = A/L with integer A, so 1/u = L * B with B = 1/A; writing
        # B_k = P_k / c^(k+1) for c = A_0 keeps P integral:
        #   P_k = -sum_{i=1..k} A_i c^(i-1) P_(k-i)
        A = u.coeffs[:n]
        weights = []
        power = 1
        for i in range(1, len(A)):
            if A[i]:
                weights.append((i, A[i] * power))
            power *= c
        P = [0] * n
        P[0] = 1
        for k in range(1, n):
            acc = 0
            for i, w in weights:
                if i > k:
                    break
                acc += w * P[k - i]
            P[k] = -acc
        # over the one denominator |c|^n, slot k of 1/u is
        # L P_k c^(n-1-k), negated when c^n < 0
        den = c**n
        scale = u.L if den > 0 else -u.L
        for k in reversed(range(n)):
            P[k] *= scale
            scale *= c
        return QSeries._make(P, 0, u.D, R, S, abs(den)) * mono

    def div(self, other) -> "QSeries":
        """self / other.

        When the divisor is exact with more than one term but the dividend
        is truncated, the divisor is cut at the dividend's relative window
        (at least one order) before it is inverted: that is all the quotient
        can honestly use.
        """
        g = _coerce(other)
        if g is None:
            raise TypeError(f"cannot divide a QSeries by {type(other).__name__}")
        if g.T is None and len(g.coeffs) > 1 and self.T is not None:
            # a dividend that is zero through its truncation has no relative
            # window of its own
            orders = max(1, _ceil_div(self.T - self.v, self.D))
            g = g.truncate(Fraction(g.v, g.D) + orders)
        return self * g.invert()

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.div(o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.div(self)

    def sqrt(self) -> "QSeries":
        """Square root with positive leading coefficient.

        The leading coefficient must be the square of a rational, otherwise
        ValueError("no rational square root ...") is raised.  An odd leading
        index moves the result onto the doubled grid.  As with ``invert``,
        the root keeps the operand's relative window, and an exact operand
        of more than one term must be truncated first.
        """
        if not self.coeffs:
            if self.T is None:
                return QSeries()
            raise PrecisionError(
                "series is zero through its truncation; square root undetermined"
            )
        c0 = Fraction(self.coeffs[0], self.L)
        if c0 < 0:
            raise ValueError(
                f"no rational square root: leading coefficient {c0} is negative"
            )
        num, den = c0.numerator, c0.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(
                f"no rational square root: leading coefficient {c0} "
                "is not the square of a rational"
            )
        u = self._unit_part()
        e = Fraction(self.v, 2 * self.D)
        mono = QSeries._make((rn,), e.numerator, e.denominator, None, 1, rd)
        if u.T is None and len(u.coeffs) == 1:
            return mono
        R, S, n = self._window(u, "square root of")
        # u/c0 = A/L with integer A and A_0 = L.  Its square root b has
        # b_k = G_k / (4L)^k with integer G: G_0 = 1 and
        #   G_k = 2^(2k-1) L^(k-1) A_k - (1/2) sum_{i=1..k-1} G_i G_(k-i),
        # where every G_i (i >= 1) is even, so the halving is exact.
        A, L = u.coeffs[:n], u.L * num
        if den > 1:
            A = [x * den for x in A]
        G = [0] * n
        G[0] = 1
        nonzero = []
        scale = 2  # 2^(2k-1) L^(k-1)
        for k in range(1, n):
            acc = A[k] * scale if k < len(A) and A[k] else 0
            for i in nonzero:
                if 2 * i >= k:
                    if 2 * i == k:
                        acc -= (G[i] * G[i]) >> 1
                    break
                acc -= G[i] * G[k - i]
            if acc:
                G[k] = acc
                nonzero.append(k)
            scale *= 4 * L
        # over the one denominator (4L)^(n-1), slot k is G_k (4L)^(n-1-k)
        scale = 1
        for k in reversed(range(n)):
            G[k] *= scale
            scale *= 4 * L
        return QSeries._make(G, 0, u.D, R, S, (4 * L) ** (n - 1)) * mono

    # -- reshaping ---------------------------------------------------------

    def truncate(self, e) -> "QSeries":
        """Forget all coefficients at exponents >= e."""
        t = _rat(e) * self.D
        T = _ceil_div(t.numerator, t.denominator)
        if self.T is not None:
            T = min(T, self.T)
        return QSeries._make(self.coeffs, self.v, self.D, T, self.S, self.L)

    def subs_qpow(self, m) -> "QSeries":
        """Substitute q -> q^m for a positive rational m."""
        m = _rat(m)
        if m <= 0:
            raise ValueError("substitution exponent must be positive")
        p, r = m.numerator, m.denominator
        # the term at (v + k*S)/D moves to (v*p + k*S*p)/(D*r)
        T = None if self.T is None else self.T * p
        return QSeries._make(self.coeffs, self.v * p, self.D * r, T, self.S * p, self.L)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # equality through the common truncation
        return not (self - o).coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        parts = []
        for e, c in self.items():
            qp = _fmt_qpow(e)
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = qp
            else:
                body = f"{mag}*{qp}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        if self.T is not None:
            parts.append(("+ " if parts else "") + "O(%s)" % _fmt_qpow(Fraction(self.T, self.D), o_term=True))
        if not parts:
            return "0"
        return " ".join(parts)

    def __repr__(self):
        return f"QSeries({self})"


def _fmt_qpow(e: Fraction, o_term: bool = False) -> str:
    if e == 0:
        return "1" if o_term else ""
    if e == 1:
        return "q"
    if e.denominator == 1:
        return f"q^{e.numerator}"
    return f"q^({e})"


def _coerce(x):
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return QSeries._raw((x.numerator,) if x else (), 0, 1, None, 0, x.denominator)
    return None


def qpow(e) -> QSeries:
    """The exact monomial q^e."""
    return QSeries.monomial(1, e)


#: the exact constant 1
ONE = QSeries.constant(1)
