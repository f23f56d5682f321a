"""Slow reference kernels for the polynomial layer: Fraction arithmetic.

These are the exact division and the Bareiss resultant over polynomial
entries that ``qlambert.relations`` used before its kernels went
fraction-free (its resultant is now one integer determinant at a Kronecker
point), the term-by-term ``eval_poly`` it used before Horner's rule, the
Horner evaluation it then used, adding term to term with binary operators
(before each Horner step became one linear combination), and the relation
fit it used before its one triangular sweep: the full linear system of
every known row, solved by Gaussian elimination over ``Fraction``, then
the residual.  They work on ``MultiPoly`` values,
``Fraction`` matrices and ``QSeries`` values through their public
constructors, readers and operators only; the polynomial operators are
checked in turn against the schoolbook product ``mul`` below.  The
differential tests compare them with the kernels.
"""

import math
from fractions import Fraction

from qlambert import ExactDivisionError, PrecisionError, QSeries
from qlambert.relations import MultiPoly


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Quotient p/q when the division is exact.

    Raises ExactDivisionError carrying the remainder's leading monomial
    when q does not divide p.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p, q = p._aligned(q)
    quot = MultiPoly(p.variables, {})
    rem = p
    lm_q, lc_q = q.leading()
    while not rem.is_zero():
        lm_r, lc_r = rem.leading()
        diff = tuple(a - b for a, b in zip(lm_r, lm_q))
        if any(d < 0 for d in diff):
            lead_str = str(MultiPoly(rem.variables, {lm_r: 1}))
            raise ExactDivisionError(
                f"not an exact division: remainder has leading monomial {lead_str}"
            )
        t = MultiPoly(p.variables, {diff: lc_r / lc_q})
        quot = quot + t
        rem = rem - t * q
    return quot


def resultant_eliminate(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to one variable.

    The determinant is computed by fraction-free Bareiss elimination over
    the polynomial ring in the remaining variables, so it vanishes at
    every specialization where p and q share a root in ``var``.
    """
    p, q = p._aligned(q)
    if var not in p.variables:
        raise ValueError(f"unknown variable {var}")
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise ValueError(f"resultant requires positive degree in {var}")
    rest = tuple(v for v in p.variables if v != var)
    if not rest:
        rest = ("1",)  # degenerate: constants only; keep a dummy axis
    idx = p.variables.index(var)

    def coeff_rows(poly: MultiPoly, deg: int) -> list[MultiPoly]:
        rows = [dict() for _ in range(deg + 1)]
        for mono, c in poly.coeffs.items():
            rest_mono = tuple(e for i, e in enumerate(mono) if i != idx)
            if len(rest_mono) == 0:
                rest_mono = (0,)
            rows[mono[idx]][rest_mono] = c
        return [MultiPoly(rest, r) for r in rows]

    pc = coeff_rows(p, dp)
    qc = coeff_rows(q, dq)
    size = dp + dq
    zero = MultiPoly(rest, {})
    mat: list[list[MultiPoly]] = []
    for r in range(dq):
        row = [zero] * size
        for k in range(dp + 1):
            row[r + k] = pc[dp - k]
        mat.append(row)
    for r in range(dp):
        row = [zero] * size
        for k in range(dq + 1):
            row[r + k] = qc[dq - k]
        mat.append(row)

    sign = 1
    prev = MultiPoly(rest, {(0,) * len(rest): 1})
    for k in range(size - 1):
        if mat[k][k].is_zero():
            swap = next(
                (i for i in range(k + 1, size) if not mat[i][k].is_zero()), None
            )
            if swap is None:
                return MultiPoly(rest, {})
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = exact_divide(num, prev)
            mat[i][k] = zero
        prev = mat[k][k]
    det = mat[size - 1][size - 1]
    if sign < 0:
        det = -det
    if det.variables == ("1",):
        det = MultiPoly((), {(): c for (_,), c in det.coeffs.items()})
    return det


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact Gaussian elimination; returns (solution, None) or (None, reason).

    reason is "underdetermined" or "inconsistent".  Pivots minimize the
    bit length of numerator plus denominator.
    """
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        cand = [i for i in range(r, len(m)) if m[i][col]]
        if not cand:
            continue
        best = min(
            cand,
            key=lambda i: m[i][col].numerator.bit_length()
            + m[i][col].denominator.bit_length(),
        )
        m[r], m[best] = m[best], m[r]
        pv = m[r][col]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols]:
            return None, "inconsistent"
    if len(pivots) < ncols:
        return None, "underdetermined"
    sol = [Fraction(0)] * ncols
    for row, col in pivots:
        sol[col] = m[row][ncols] / m[row][col]
    return sol, None


def find_relation(x: QSeries, y: QSeries) -> MultiPoly:
    """The monic relation X^n - Y^m + sum_{am+bn <= mn} C_{a,b} X^a Y^b
    between x and y, with m, n their coprime pole orders: the coefficients
    solve F(x, y) = 0 on every row from q^(-mn) up to the common truncation,
    and the residual is checked through it."""
    for s, label in ((x, "x"), (y, "y")):
        if s.D != 1:
            raise ValueError(f"{label} must have integer exponents")
        if s.is_zero() or s.valuation() >= 0:
            raise ValueError(f"{label} must have a pole at infinity")
        if s.leading_coefficient() != 1:
            raise ValueError(f"{label} must have leading coefficient 1")
    m, n = int(-x.valuation()), int(-y.valuation())
    if math.gcd(m, n) != 1:
        raise ValueError(f"pole orders {m} and {n} are not coprime")

    bound = [(a, b) for a in range(n + 1) for b in range(m + 1) if a * m + b * n <= m * n]
    unknowns = [ab for ab in bound if ab not in ((n, 0), (0, m))]
    monos = {(a, b): x**a * y**b for a, b in bound}

    truncations = (s.truncation_exponent() for s in monos.values())
    known = [math.floor(te) for te in truncations if te is not None]
    if known:
        t_min = min(known)
    else:
        # all inputs exact: take one past the largest stored exponent
        t_min = 1 + max((int(e) for s in monos.values() for e, _ in s.items()), default=0)

    if t_min + m * n < len(unknowns):
        raise PrecisionError(
            f"insufficient truncation: need every monomial x^a y^b known "
            f"through q^0 (unknown from q^{t_min})"
        )

    fixed = monos[(n, 0)] - monos[(0, m)]
    exponents = range(-m * n, t_min)
    rows = [[monos[ab].coefficient(e) for ab in unknowns] for e in exponents]
    rhs = [-fixed.coefficient(e) for e in exponents]
    sol, reason = solve_exact(rows, rhs)
    if reason == "inconsistent":
        raise ValueError("no relation at this degree bound")
    if reason == "underdetermined":
        raise PrecisionError(
            f"insufficient truncation: the system is still underdetermined at "
            f"q^{t_min}; increase the expansion order"
        )

    coeffs = {(n, 0): Fraction(1), (0, m): Fraction(-1)}
    residual = fixed
    for ab, c in zip(unknowns, sol):
        if c:
            coeffs[ab] = c
            residual = residual + c * monos[ab]
    if not residual.is_zero():
        raise ValueError("no relation at this degree bound")
    return MultiPoly(("X", "Y"), coeffs)


def mul(p: MultiPoly, q: MultiPoly) -> dict:
    """Schoolbook product of two polynomials over the same variables, in Fractions."""
    out: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def eval_poly(poly: MultiPoly, assignment):
    """The sum of c * (product of powers) over the terms, each power of each
    value formed by ``**``."""
    if not poly.coeffs:
        return Fraction(0)
    total = None
    for mono, c in poly.coeffs.items():
        term = c
        for name, e in zip(poly.variables, mono):
            if e:
                term = assignment[name] ** e * term
        total = term if total is None else total + term
    return total


def eval_poly_chained(poly: MultiPoly, assignment):
    """Horner's rule in the first variable with the most distinct nonzero
    exponents, stepping over the gaps between them, with each coefficient
    summed term by term by binary ``+`` and every power formed by repeated
    binary ``*``: the evaluation ``eval_poly`` made before each Horner step
    became one linear combination."""
    if not poly.coeffs:
        return Fraction(0)
    exponents = [{m[i] for m in poly.coeffs} - {0} for i in range(len(poly.variables))]
    if not any(exponents):
        return poly.constant_term()
    h = max(range(len(exponents)), key=lambda i: len(exponents[i]))
    values = [
        assignment[name] if exponents[i] else None
        for i, name in enumerate(poly.variables)
    ]

    def power(x, e):
        out = x
        for _ in range(e - 1):
            out = out * x
        return out

    def coefficient(group):
        total, scalar = None, Fraction(0)
        for m, c in group:
            term = None
            for i, e in enumerate(m):
                if e and i != h:
                    x = power(values[i], e)
                    term = x if term is None else term * x
            if term is None:
                scalar = c
                continue
            term = term if c == 1 else term * c
            total = term if total is None else total + term
        if total is None:
            return scalar
        return total + scalar if scalar else total

    groups: dict[int, list] = {}
    for m, c in poly.coeffs.items():
        groups.setdefault(m[h], []).append((m, c))
    degrees = sorted(groups, reverse=True)

    def times(acc, e):
        # acc * (the Horner variable)^e, a rational acc scaling the power
        step = power(values[h], e)
        if isinstance(acc, Fraction):
            return step if acc == 1 else step * acc
        return acc * step

    acc = coefficient(groups[degrees[0]])
    for high, low in zip(degrees, degrees[1:]):
        acc = times(acc, high - low) + coefficient(groups[low])
    if degrees[-1]:
        acc = times(acc, degrees[-1])
    return acc
