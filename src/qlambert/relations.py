"""Exact multivariate polynomials, relation discovery, and resultants.

One polynomial type, :class:`MultiPoly`: polynomials with rational
coefficients in a fixed tuple of named variables, with enough arithmetic
for verification work (ring operations, exact division, Sylvester
resultants).  A relation that :func:`find_relation` recovers is a
``MultiPoly`` over ("X", "Y"): the monic X^n - Y^m + sum C_{a,b} X^a Y^b
between two series with poles of coprime orders m and n at infinity, all
monomials satisfying a*m + b*n <= m*n, so its degrees in Y and X are m
and n.

The arithmetic runs on private dict kernels (multiply, subtract a scaled
shifted multiple, exact divide) over plain ``dict[monomial, int]``:
``MultiPoly`` operands have their denominators cleared once on the way in
and restored once on the way out, and a ``Fraction`` appears inside a
kernel only where an exact quotient is not integral.  A resultant is one
integer determinant: the Sylvester matrix is evaluated at a Kronecker point,
2^s to the power of a mixed-radix slot per monomial of the remaining
variables, with a slot for every degree up to the resultant's and 2^(s-1)
above the product of the rows' l1 norms.  Evaluation is a ring
homomorphism, one to one on every minor within those bounds, so Bareiss's
fraction-free elimination runs on plain ints with exact divisions, and the
determinant's signed s-bit digits are the coefficients.  Relation fitting
runs no general linear solve: each unknown monomial starts with a 1 at its
own pole order, so one sweep up the leading rows fixes every coefficient,
and the residual that sweep leaves certifies the rest.  ``Fraction`` is the
public boundary: the coefficients of a ``MultiPoly`` are always
``Fraction`` values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Mapping, Sequence

from .errors import ExactDivisionError, PrecisionError
from .series import ONE, QSeries, _sum

__all__ = [
    "MultiPoly",
    "eval_poly",
    "find_relation",
    "resultant_eliminate",
    "vanishing_factor",
    "variables",
]


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational coefficient, got {type(x).__name__}")


# ---------------------------------------------------------------- kernels
#
# A kernel polynomial is a plain dict from exponent tuples to nonzero exact
# coefficients: an int when integral, a Fraction only where an exact quotient
# was not.  Kernels never see MultiPoly and never validate their input.


def _cleared(coeffs) -> tuple[int, dict]:
    """(L, ints) with ints[m] == coeffs[m] * L for the least common denominator L."""
    L = math.lcm(*(c.denominator for c in coeffs.values()))
    return L, {m: c.numerator * (L // c.denominator) for m, c in coeffs.items()}


def _quotient(a, b):
    # the exact rational a/b in canonical form: an int when integral
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    x = Fraction(a, b)
    return x.numerator if x.denominator == 1 else x


def _mul(a: dict, b: dict) -> dict:
    """The product a*b."""
    out: dict = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(map(add, m1, m2))
            out[key] = get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _submul(acc: dict, b: dict, c, shift: tuple) -> None:
    """acc -= c * x^shift * b, in place; cancelled terms are removed."""
    get = acc.get
    for m, v in b.items():
        key = tuple(map(add, m, shift))
        x = get(key, 0) - c * v
        if x:
            acc[key] = x
        else:
            del acc[key]


def _divide(p: dict, q: dict, variables: tuple) -> dict:
    """The exact quotient p/q for nonzero q, by division in descending lex order.

    One remainder dict is updated in place.  Raises ExactDivisionError
    naming the remainder's leading monomial when q does not divide p.
    """
    rem = dict(p)
    lm_q = max(q)
    lc_q = q[lm_q]
    quot = {}
    while rem:
        lm_r = max(rem)
        diff = tuple(map(sub, lm_r, lm_q))
        if any(d < 0 for d in diff):
            lead_str = str(MultiPoly(variables, {lm_r: 1}))
            raise ExactDivisionError(
                f"not an exact division: remainder has leading monomial {lead_str}"
            )
        t = _quotient(rem[lm_r], lc_q)
        quot[diff] = t
        _submul(rem, q, t, diff)
    return quot


class MultiPoly:
    """A polynomial over Q in a fixed tuple of named variables.

    ``coeffs`` maps exponent tuples (aligned with ``variables``) to nonzero
    Fractions.  Monomial order for leading terms and display is descending
    lexicographic on the exponent tuple.  Its fields cannot be assigned, so
    a shared polynomial keeps its text and hash.
    """

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Mapping[tuple, object] = ()):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, c in dict(coeffs).items():
            key = tuple(int(e) for e in mono)
            if len(key) != len(vs):
                raise ValueError(f"monomial {mono} does not match variables {vs}")
            if any(e < 0 for e in key):
                raise ValueError("negative exponent in monomial")
            c = _rat(c)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles go through the constructor, not __setattr__
        return MultiPoly, (self.variables, self.coeffs)

    @staticmethod
    def _make(variables: tuple, coeffs: dict) -> "MultiPoly":
        # construction from a kernel dict: no validation, values to Fraction
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(
            p,
            "coeffs",
            {m: c if type(c) is Fraction else Fraction(c) for m, c in coeffs.items()},
        )
        return p

    @staticmethod
    def _restored(variables: tuple, ints: dict, scale) -> "MultiPoly":
        # the polynomial ints * scale, for a nonzero rational scale
        if scale == 1:
            return MultiPoly._make(variables, ints)
        return MultiPoly._make(variables, {m: c * scale for m, c in ints.items()})

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.variables.index(var)
        if not self.coeffs:
            return -1
        return max(m[i] for m in self.coeffs)

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (monomial, coefficient) in descending lex order."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.coeffs)
        return m, self.coeffs[m]

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.variables), Fraction(0))

    def with_variables(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a superset (or reordering) of the variables."""
        vs = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in vs:
                raise ValueError(f"variable {v} missing from {vs}")
            idx.append(vs.index(v))
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, c in self.coeffs.items():
            key = [0] * len(vs)
            for pos, e in zip(idx, mono):
                key[pos] = e
            out[tuple(key)] = c
        return MultiPoly._make(vs, out)

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.variables == other.variables:
            return self, other
        union = tuple(sorted(set(self.variables) | set(other.variables)))
        return self.with_variables(union), other.with_variables(union)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly(self.variables, {(0,) * len(self.variables): other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        out = dict(a.coeffs)
        _submul(out, b.coeffs, -1, (0,) * len(a.variables))
        return MultiPoly._make(a.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.variables, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -_rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _rat(other)
            if not c:
                return MultiPoly._make(self.variables, {})
            return MultiPoly._make(self.variables, {m: c * v for m, v in self.coeffs.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        La, A = _cleared(a.coeffs)
        Lb, B = _cleared(b.coeffs)
        return MultiPoly._restored(a.variables, _mul(A, B), Fraction(1, La * Lb))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        L, base = _cleared(self.coeffs)
        result = {(0,) * len(self.variables): 1}
        scale = Fraction(1, L**n)
        while n:
            if n & 1:
                result = _mul(result, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return MultiPoly._restored(self.variables, result, scale)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly(self.variables, {(0,) * len(self.variables): other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # equal polynomials hash equal: a constant as its value, any other
        # polynomial by its (name, exponent) pairs, so that unused variables
        # and the order of the variables do not matter
        if all(not any(m) for m in self.coeffs):
            return hash(self.constant_term())
        return hash(
            frozenset(
                (frozenset((v, e) for v, e in zip(self.variables, m) if e), c)
                for m, c in self.coeffs.items()
            )
        )

    # -- content ----------------------------------------------------------

    def scalar_content(self) -> Fraction:
        """Positive rational c with self/c integer, coprime, positive-leading."""
        if not self.coeffs:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.coeffs.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        content = Fraction(num, den)
        if self.leading()[1] < 0:
            content = -content
        return content

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all monomials."""
        if not self.coeffs:
            return (0,) * len(self.variables)
        mins = None
        for m in self.coeffs:
            mins = m if mins is None else tuple(map(min, mins, m))
        return mins

    def strip_content(self) -> tuple["MultiPoly", Fraction, tuple[int, ...]]:
        """Factor out scalar and monomial content; returns (primitive, scalar, monomial)."""
        mono = self.monomial_content()
        shifted = MultiPoly._make(
            self.variables,
            {tuple(map(sub, m, mono)): c for m, c in self.coeffs.items()},
        )
        scal = shifted.scalar_content()
        prim = MultiPoly._make(
            self.variables, {m: c / scal for m, c in shifted.coeffs.items()}
        )
        return prim, scal, mono

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            factors = []
            for name, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, {len(self.coeffs)} terms)"


def variables(*names: str) -> tuple[MultiPoly, ...]:
    """Generator polynomials, one per name, over the union of the names."""
    vs = tuple(names)
    out = []
    for i, _ in enumerate(vs):
        mono = tuple(1 if j == i else 0 for j in range(len(vs)))
        out.append(MultiPoly(vs, {mono: 1}))
    return tuple(out)


# ---------------------------------------------------------------- evaluation


def eval_poly(poly, assignment: Mapping[str, object]):
    """Evaluate a polynomial at series, rational or polynomial values, exactly.

    Every variable the polynomial uses must be assigned.  Horner's rule runs
    in the variable with the most distinct exponents (the first such), and
    steps over the gaps between them; the coefficient of each of its powers
    is a combination of powers of the other variables, each of which is
    formed once, from the next lower power in use.  Each Horner step sums
    the carried value times the step's power, the group's monomials times
    their coefficients, and its constant term; at series values that sum is
    one linear combination (``series._sum``), one pass over integers.  A
    rational coefficient scales a value instead of multiplying it, and no
    value is multiplied by 1.  The DSL evaluates its polynomial subtrees
    through this function.
    """
    used = []
    for i, name in enumerate(poly.variables):
        exponents = {m[i] for m in poly.coeffs} - {0}
        if exponents:
            if name not in assignment:
                raise ValueError(f"unassigned variable {name}")
            value = assignment[name]
            if isinstance(value, int):
                value = Fraction(value)
            used.append((i, exponents, value))
    if not poly.coeffs:
        return Fraction(0)
    if not used:
        return poly.constant_term()
    h, _, h_value = max(used, key=lambda u: len(u[1]))
    tables = {i: _powers(value, exponents) for i, exponents, value in used if i != h}
    groups: dict[int, list] = {}
    for m, c in poly.coeffs.items():
        groups.setdefault(m[h], []).append((m, c))
    degrees = sorted(groups, reverse=True)
    steps = _powers(h_value, {a - b for a, b in zip(degrees, degrees[1:] + [0])} - {0})
    products: dict[tuple, object] = {}
    series = all(isinstance(value, QSeries) for _, _, value in used)

    def combination(group, carried):
        # the carried pairs plus c * (the monomial in the other variables)
        # over the group's terms, as (c, value) pairs with None for the
        # monomial 1; at series values one pass of _sum
        pairs = list(carried)
        for m, c in group:
            rest = tuple((i, e) for i, e in enumerate(m) if e and i != h)
            value = products.get(rest) if rest else None
            if rest and value is None:
                for i, e in rest:
                    power = tables[i][e]
                    value = power if value is None else value * power
                products[rest] = value
            pairs.append((c, value))
        if len(pairs) == 1:
            c, value = pairs[0]
            return c if value is None else _scaled(value, c)
        if series:
            return _sum((c, ONE if value is None else value) for c, value in pairs)
        return sum(c if value is None else _scaled(value, c) for c, value in pairs)

    acc = combination(groups[degrees[0]], ())
    for high, low in zip(degrees, degrees[1:]):
        power = steps[high - low]
        if isinstance(acc, Fraction):
            carried = (acc, power)
        else:
            carried = (1, _times(acc, power))
        acc = combination(groups[low], [carried])
    if degrees[-1]:
        acc = _times(acc, steps[degrees[-1]])
    return acc


def _powers(x, exponents) -> dict:
    """{e: x^e} for the given positive exponents; each power is the next
    lower one times the power of the gap, itself taken from the table when
    it is there."""
    table: dict[int, object] = {}
    prev = 0
    for e in sorted(exponents):
        gap = e - prev
        step = x if gap == 1 else table[gap] if gap in table else x**gap
        table[e] = step if not prev else table[prev] * step
        prev = e
    return table


def _scaled(value, c):
    # c * value for a nonzero rational c; a series is scaled term by term
    if c == 1:
        return value
    if isinstance(value, QSeries):
        return value._scaled(c)
    return value * c


def _times(a, b):
    # a * b, where a plain rational factor only scales the other
    if isinstance(a, Fraction):
        return _scaled(b, a)
    if isinstance(b, Fraction):
        return _scaled(a, b)
    return a * b


def _value_is_zero(val) -> bool:
    if isinstance(val, QSeries):
        return val.is_zero()
    return val == 0


# ---------------------------------------------------------------- arithmetic


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Quotient p/q when the division is exact.

    Raises ExactDivisionError carrying the remainder's leading monomial
    when q does not divide p.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p, q = p._aligned(q)
    Lp, P = _cleared(p.coeffs)
    Lq, Q = _cleared(q.coeffs)
    # p/q = (P/Q) * (Lq/Lp); scaling by a constant keeps the remainder's support
    return MultiPoly._restored(p.variables, _divide(P, Q, p.variables), Fraction(Lq, Lp))


# ---------------------------------------------------------------- resultants


def resultant_eliminate(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to one variable.

    With denominators cleared (the scaling is undone on the result), each
    Sylvester entry, a polynomial in the remaining variables X_v, is
    evaluated at X_v = 2^(s * prod_{u<v} (E_u + 1)).  E_v = dq*deg_v(p) +
    dp*deg_v(q) bounds every minor's degree in X_v, and 2^(s-1) exceeds
    |P|_1^dq * |Q|_1^dp, the product of the rows' l1 norms, which bounds
    every minor's coefficients.  So the evaluation is one to one on the
    minors: the integer Bareiss run takes the polynomial run's pivots and
    row swaps, each of its divisions is exact (its entries are images of
    minors, and evaluation is a ring homomorphism), and the determinant's
    signed s-bit digits are the resultant's coefficients.
    """
    p, q = p._aligned(q)
    if var not in p.variables:
        raise ValueError(f"unknown variable {var}")
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise ValueError(f"resultant requires positive degree in {var}")
    rest = tuple(v for v in p.variables if v != var)
    idx = p.variables.index(var)
    Lp, P = _cleared(p.coeffs)
    Lq, Q = _cleared(q.coeffs)
    others = [i for i in range(len(p.variables)) if i != idx]
    radices = [dq * max(m[i] for m in P) + dp * max(m[i] for m in Q) + 1 for i in others]
    s = (sum(map(abs, P.values())) ** dq * sum(map(abs, Q.values())) ** dp).bit_length() + 1

    def evaluated(coeffs: dict, deg: int) -> list[int]:
        # the coefficients of var^deg .. var^0 at the point: a monomial's
        # slot is its mixed-radix index, and slot k is the bits from s*k
        out = [0] * (deg + 1)
        for mono, c in coeffs.items():
            slot = 0
            for i, radix in zip(reversed(others), reversed(radices)):
                slot = slot * radix + mono[i]
            out[deg - mono[idx]] += c << (s * slot)
        return out

    pe, qe = evaluated(P, dp), evaluated(Q, dq)
    size = dp + dq
    mat = [[0] * r + pe + [0] * (dq - 1 - r) for r in range(dq)]
    mat += [[0] * r + qe + [0] * (dp - 1 - r) for r in range(dp)]
    sign = prev = 1
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if swap is None:
                return MultiPoly._make(rest, {})
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for row in mat[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j], rem = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if rem:
                    raise ExactDivisionError("not an exact division in the Bareiss elimination")
        prev = pivot
    # with 2^(s-1) added to each signed digit, the digits are the s-bit fields
    slots, mask, half = math.prod(radices), (1 << s) - 1, 1 << (s - 1)
    det = mat[-1][-1] + half * ((1 << (s * slots)) - 1) // mask
    if det >> (s * slots):
        raise ExactDivisionError("the determinant has digits beyond its degree bound")
    terms = {}
    for slot in range(slots):
        digit = ((det >> (s * slot)) & mask) - half
        if digit:
            mono, n = [], slot
            for radix in radices:
                n, e = divmod(n, radix)
                mono.append(e)
            terms[tuple(mono)] = digit
    # det(Sylvester(Lp*p, Lq*q)) = Lp^dq * Lq^dp * Res(p, q)
    return MultiPoly._restored(rest, terms, Fraction(sign, Lp**dq * Lq**dp))


def vanishing_factor(factors: Sequence[MultiPoly], assignment) -> int:
    """Index of the unique factor that vanishes at the series assignment.

    Every other factor must evaluate to a series with nonzero leading
    coefficient; otherwise the factorization is inconsistent with the
    series data.
    """
    zero_at = [i for i, f in enumerate(factors) if _value_is_zero(eval_poly(f, assignment))]
    if len(zero_at) != 1:
        raise ValueError("factorization inconsistent with series")
    return zero_at[0]


# ---------------------------------------------------------------- relations


def _head(s: QSeries, lo: int, count: int) -> list:
    """The coefficients of q^lo .. q^(lo + count - 1) of a series on the
    integer grid that is known there and starts at or after q^lo: ints
    for an integral series, Fractions otherwise."""
    out = [0] * count
    j, step = s.v - lo, s.S or 1
    cs = s.coeffs[: max(0, -((j - count) // step))]
    if s.L > 1:
        cs = [Fraction(c, s.L) for c in cs]
    out[j : j + len(cs) * step : step] = cs
    return out


def find_relation(x: QSeries, y: QSeries) -> MultiPoly:
    """The monic bivariate relation between two series with poles at infinity.

    With m, n the (coprime) pole orders of x and y, fits the coefficients
    of F(X, Y) = X^n - Y^m + sum_{am+bn <= mn} C_{a,b} X^a Y^b such that
    F(x, y) = 0: the residual, starting at x^n - y^m, is cleared from q^(-mn)
    up to q^0, each C_{a,b} at the row q^-(am+bn) where x^a y^b starts, and
    what is left must vanish through the full common truncation.  The
    relation is a MultiPoly over ("X", "Y"), of degree m in Y and n in X.
    """
    for s, label in ((x, "x"), (y, "y")):
        if s.D != 1:
            raise ValueError(f"{label} must have integer exponents")
        if s.is_zero() or s.valuation() >= 0:
            raise ValueError(f"{label} must have a pole at infinity")
        if s.leading_coefficient() != 1:
            raise ValueError(f"{label} must have leading coefficient 1")
    m, n = -x.valuation(), -y.valuation()
    m, n = int(m), int(n)
    if math.gcd(m, n) != 1:
        raise ValueError(f"pole orders {m} and {n} are not coprime")

    bound = [
        (a, b)
        for a in range(n + 1)
        for b in range(m + 1)
        if a * m + b * n <= m * n
    ]
    unknowns = [ab for ab in bound if ab not in ((n, 0), (0, m))]

    # powers and monomials; a factor x^0 or y^0 is left out, not multiplied
    xs = {0: QSeries.constant(1), 1: x}
    for a in range(2, n + 1):
        xs[a] = xs[a - 1] * x
    ys = {0: xs[0], 1: y}
    for b in range(2, m + 1):
        ys[b] = ys[b - 1] * y
    monos = {(a, b): xs[a] * ys[b] if a and b else xs[a] if a else ys[b] for a, b in bound}

    t_min = None
    for s in monos.values():
        te = s.truncation_exponent()
        if te is not None:
            te_int = math.floor(te)
            t_min = te_int if t_min is None else min(t_min, te_int)
    if t_min is None:
        # all inputs exact: take one past the largest stored exponent
        t_min = 1 + max(
            (int(e) for s in monos.values() for e, _ in s.items()), default=0
        )

    # t_min is the least exponent some monomial does not know; the sweep
    # needs every row up to q^0
    if t_min + m * n < len(unknowns):
        raise PrecisionError(
            f"insufficient truncation: need every monomial x^a y^b known "
            f"through q^0 (unknown from q^{t_min})"
        )

    # Each unknown x^a y^b starts with a 1 at its own q^-(am+bn); for coprime
    # m, n those orders are distinct and below mn, so the rows of q^-mn ..
    # q^0 are unit triangular.  Clearing the residual's coefficients from
    # q^-mn up fixes each C_ab at its own row, and every other row must
    # already be 0.  The sweep runs on the heads alone (row i holds the
    # coefficient of q^(i - mn)), a monomial's head read once, when its row
    # is reached; the residual through the full truncation is then formed
    # once, as one linear combination of the monomials.
    rows = {a * m + b * n: (a, b) for a, b in unknowns}
    count = m * n + min(t_min, 1)
    residual = list(
        map(sub, _head(monos[(n, 0)], -m * n, count), _head(monos[(0, m)], -m * n, count))
    )
    coeffs = {(n, 0): 1, (0, m): -1}
    for i in range(count):
        c = residual[i]
        if c:
            ab = rows.get(m * n - i)
            if ab is None:
                raise ValueError("no relation at this degree bound")
            coeffs[ab] = -c
            head = _head(monos[ab], -m * n, count)
            residual[i:] = [r - c * h for r, h in zip(residual[i:], head[i:])]
    if t_min < 1:
        # the constant's row q^0 lies past the truncation
        raise PrecisionError(
            f"insufficient truncation: the system is still underdetermined at "
            f"q^{t_min}; increase the expansion order"
        )
    if not _sum((c, monos[ab]) for ab, c in coeffs.items()).is_zero():
        raise ValueError("no relation at this degree bound")
    return MultiPoly._make(("X", "Y"), coeffs)
