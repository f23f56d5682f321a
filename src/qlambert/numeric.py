"""Floating-point evaluation of eta products at points of the upper half-plane.

Series identities are certified exactly elsewhere; this module covers the
statements that are not pure q-series identities (modular transformation
laws, evaluations at specific points).  Everything runs in ordinary double
precision with geometric tail bounds on the truncated products.  Every
product, ``eta_value`` and ``gen_eta_value`` included, is evaluated from the
factor dict of its ``EtaQuotient`` or ``GenEtaQuotient``, the same dict its
series is built from, and the named level-14 functions from the same symbol
table as :func:`~qlambert.constructors.gosper_symbols`.  A value that leaves
double precision far up the half-plane is a ValueError naming the point.
"""

import cmath
import math
import random
from fractions import Fraction

from .constructors import (
    EtaQuotient,
    GenEtaQuotient,
    _SYMBOLS,
    _define,
    _gen_eta_index,
    gosper_symbols,
)
from .level14 import ALPHA, GAMMA_CYCLE, H1_ETA, H2_ETA
from .series import QSeries

__all__ = [
    "IM_FLOOR",
    "q_point",
    "eta_value",
    "gen_eta_value",
    "eval_product",
    "eval_symbol",
    "epsilon",
    "check_eta_inversion",
    "check_gen_eta_transform",
    "check_index_cycle",
    "check_eq41",
    "check_sign_laws",
    "check_epsilon_modulus",
    "check_symbol_consistency",
    "numeric_report",
]

# Convergence floor for user-supplied points: Im tau >= 0.05 keeps
# |q| <= e^(-0.1 pi) ~ 0.73.  Points produced internally by a Moebius map may
# sink below the floor; the products still converge, just more slowly.
IM_FLOOR = 0.05

# Stop an infinite product once the current factor is within this of 1.  The
# dropped tail is then bounded by the geometric series in |q|.
_TAIL = 1e-16

_TWO_PI_I = 2j * math.pi


def _domain(tau) -> complex:
    tau = complex(tau)
    # a NaN Im(tau) passes the comparison, and a NaN q never ends a sum
    if not (cmath.isfinite(tau) and tau.imag >= IM_FLOOR):
        raise ValueError(
            "tau must be finite with Im(tau) >= %g (got %s)" % (IM_FLOOR, tau)
        )
    return tau


def q_point(tau, e=1) -> complex:
    """e^(2 pi i e tau), i.e. q^e without any branch ambiguity."""
    return cmath.exp(_TWO_PI_I * float(e) * complex(tau))


def _product_over(tau: complex, start: int, step: int) -> complex:
    """prod over n = start, start+step, ... of (1 - q^n)."""
    q = cmath.exp(_TWO_PI_I * tau)
    if abs(q) >= 1.0:
        raise ValueError("tau must lie in the upper half-plane")
    out = 1 + 0j
    qn = q**start
    qstep = q**step
    while abs(qn) >= _TAIL:
        out *= 1 - qn
        qn *= qstep
    return out


def eta_value(tau) -> complex:
    """Dedekind eta  q^(1/24) prod_(n>=1) (1 - q^n)."""
    return _eval_any(EtaQuotient(1, {1: 1}), complex(tau))


def gen_eta_value(level: int, g: int, tau) -> complex:
    """eta_{level,g}, indices reduced through the sign laws
    eta_{N,g+N} = eta_{N,-g} = -eta_{N,g} and the symmetry
    eta_{N,g} = eta_{N,N-g}."""
    g0, sign = _gen_eta_index(level, g)
    val = _eval_any(GenEtaQuotient(level, {min(g0, level - g0): 1}), complex(tau))
    return -val if sign < 0 else val


def _eval_any(obj, tau: complex) -> complex:
    if isinstance(obj, (EtaQuotient, GenEtaQuotient)):
        factors, pref, _ = obj.statement()
        out = q_point(tau, pref)
        for (a, b), r in factors.items():
            out *= _product_over(tau, a, b) ** r
        return out
    if isinstance(obj, QSeries):
        return sum((complex(c) * q_point(tau, e) for e, c in obj.items()), 0j)
    raise TypeError(
        "cannot evaluate %s; expected EtaQuotient, GenEtaQuotient or QSeries"
        % type(obj).__name__
    )


def _finite(value_at, tau) -> complex:
    """value_at(tau) at a checked point; a value that overflows double
    precision or is not finite is a ValueError naming tau."""
    tau = _domain(tau)
    try:
        value = value_at(tau)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise ValueError("the value at tau = %s is not a finite double" % tau)
    return value


def eval_product(obj, tau) -> complex:
    """Value at tau of an eta quotient, a generalized eta quotient, or the
    partial sum of a truncated series.

    Products are truncated once a factor is within 1e-16 of 1; with the
    Im tau >= 0.05 floor the dropped geometric tail stays below 1e-12
    relative to the prefactor scale.  Far up the half-plane a value can
    leave double precision; that is a ValueError.
    """
    return _finite(lambda t: _eval_any(obj, t), tau)


# -- named level-14 functions ------------------------------------------------


def _lambert_value(r: int, modulus: int, q: complex) -> complex:
    # sum over n >= 1, n ≡ r (mod modulus), of q^n / (1 - q^n)^2; the sum
    # starts at q^n and can lie far below 1, so its tail is cut relative to it
    n = r % modulus or modulus
    out = 0j
    qn = q**n
    qstep = q**modulus
    while qn:
        out += qn / (1 - qn) ** 2
        if abs(qn) < _TAIL * abs(out):
            break
        qn *= qstep
    return out


class _Float:
    """The float backend of the symbol table: every leaf evaluated at tau."""

    def __init__(self, tau: complex):
        self.tau = tau
        self.q = cmath.exp(_TWO_PI_I * tau)

    def quot(self, quot):
        return _eval_any(quot, self.tau)

    def L(self, k):
        return _lambert_value(0, k, self.q)

    def Lodd(self, k):
        return _lambert_value(k, 2 * k, self.q)

    def sym(self, name):
        if name not in _SYMBOLS:
            raise KeyError("unknown symbol %r" % name)
        return _define(name, self)


def eval_symbol(name: str, tau) -> complex:
    """Numeric value of a named level-14 function, from the same definition
    as its series counterpart in :func:`~qlambert.constructors.gosper_symbols`.
    A value that leaves double precision is a ValueError, as in
    :func:`eval_product`."""
    return _finite(lambda t: _Float(t).sym(name), tau)


# -- transformation checks ----------------------------------------------------


def _apply(gamma, tau: complex) -> complex:
    (a, b), (c, d) = gamma
    return (a * tau + b) / (c * tau + d)


def _check_gamma0(gamma, level: int):
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL2(Z)")
    if c % level:
        raise ValueError("matrix is not in Gamma0(%d)" % level)
    return a, b, c, d


def _unit_phase(r) -> complex:
    """e^(pi i r), exact at quarter-integer r so that degenerate cases
    (identity matrices, sign laws) come out with deviation exactly 0."""
    r = Fraction(r) % 2
    half, rem = divmod(r, Fraction(1, 2))
    if not rem:
        return (1 + 0j, 1j, -1 + 0j, -1j)[half % 4]
    return cmath.exp(1j * math.pi * float(r))


def epsilon(a: int, b: int, c: int, d: int) -> complex:
    """Unit multiplier of the generalized eta transformation, split on the
    parity of c."""
    if c % 2:
        return _unit_phase(Fraction(b * d * (1 - c * c) + c * (a + d - 3), 6))
    return -1j * _unit_phase(Fraction(a * c * (1 - d * d) + d * (b - c + 3), 6))


_SAMPLES = (0.1 + 1.5j, -0.3 + 0.8j, 0.25 + 0.6j, 2j, Fraction(1, 3) + 1j)


def check_gen_eta_transform(level: int, g: int, gamma, samples=_SAMPLES) -> float:
    """Max deviation over the samples of

        eta_{M,g}(gamma tau) - eps(a, bM, c, d) e^(pi i (g^2 ab/M - gb)) eta_{M,ag}(tau)

    for gamma = [[a, b], [cM, d]] in Gamma0(M).  The multiplier formula needs
    a nonzero lower-left entry; of the upper-triangular matrices only the
    identities are accepted (they reduce to the sign laws)."""
    a, b, cc, d = _check_gamma0(gamma, level)
    if cc == 0 and b != 0:
        raise ValueError(
            "the transformation formula needs a nonzero lower-left entry"
        )
    eps = epsilon(a, b * level, cc // level, d)
    phase = _unit_phase(Fraction(g * g * a * b, level) - g * b)
    dev = 0.0
    for tau in samples:
        tau = _domain(tau)
        lhs = gen_eta_value(level, g, _apply(gamma, tau))
        rhs = eps * phase * gen_eta_value(level, a * g, tau)
        dev = max(dev, abs(lhs - rhs))
    return dev


def check_index_cycle(samples=_SAMPLES) -> float:
    """Max relative deviation of the cycle g1(gamma tau) = -g2(tau),
    g2(gamma tau) = -g3(tau), g3(gamma tau) = -g1(tau) for
    gamma = [[3, 1], [14, 5]].  Relative because the g_j grow like a power
    of 1/|q| as Im tau increases."""
    dev = 0.0
    for tau in samples:
        tau = _domain(tau)
        image = _apply(GAMMA_CYCLE, tau)
        for src, dst in (("g1", "g2"), ("g2", "g3"), ("g3", "g1")):
            got = _Float(image).sym(src)
            want = -_Float(tau).sym(dst)
            dev = max(dev, abs(got / want - 1))
    return dev


def check_eq41(samples=_SAMPLES) -> float:
    """Max over the samples of |h1(alpha tau) h2(tau) - 16| for
    alpha = [[1, 0], [14, 1]]."""
    dev = 0.0
    for tau in samples:
        tau = _domain(tau)
        prod = _eval_any(H1_ETA, _apply(ALPHA, tau)) * _eval_any(H2_ETA, tau)
        dev = max(dev, abs(prod - 16))
    return dev


def check_eta_inversion(samples=_SAMPLES) -> float:
    """Max deviation of eta(-1/tau) / (sqrt(-i tau) eta(tau)) from 1.

    -i tau has positive real part on the upper half-plane, so the principal
    square root never crosses the branch cut.
    """
    dev = 0.0
    for tau in samples:
        tau = _domain(tau)
        ratio = eta_value(-1 / tau) / (cmath.sqrt(-1j * tau) * eta_value(tau))
        dev = max(dev, abs(ratio - 1))
    return dev


def check_sign_laws(cases=((14, 1), (14, 3), (28, 5)), samples=_SAMPLES) -> float:
    """Max deviation of eta_{N,g+N} = eta_{N,-g} = -eta_{N,g} over the
    sample points."""
    dev = 0.0
    for n, g in cases:
        for tau in samples:
            tau = _domain(tau)
            base = gen_eta_value(n, g, tau)
            shifted = gen_eta_value(n, g + n, tau)
            negated = gen_eta_value(n, -g, tau)
            dev = max(dev, abs(shifted + base), abs(negated + base))
    return dev


def check_epsilon_modulus(count: int = 100, seed: int = 14) -> float:
    """Max of ||eps| - 1| over random Gamma0(14) matrices."""
    rng = random.Random(seed)
    dev = 0.0
    for _ in range(count):
        c = rng.choice([k for k in range(-25, 26) if k])
        cc = 14 * c
        a = rng.randrange(-60, 61)
        while math.gcd(a, cc) != 1:
            a = rng.randrange(-60, 61)
        d = pow(a, -1, abs(cc)) + rng.randrange(-2, 3) * cc
        b = (a * d - 1) // cc
        _check_gamma0(((a, b), (cc, d)), 14)
        dev = max(dev, abs(abs(epsilon(a, 14 * b, c, d)) - 1))
    return dev


def check_symbol_consistency(tau=2j, order: int = 12) -> float:
    """Max relative deviation between the truncated series of the named
    functions and their direct product evaluation at tau."""
    tau = _domain(tau)
    dev = 0.0
    for name in ("z", "g", "h1", "h2", "t", "f"):
        series = _eval_any(gosper_symbols(name, order), tau)
        direct = _Float(tau).sym(name)
        dev = max(dev, abs(series / direct - 1))
    return dev


_CHECKS = (
    ("eta_inversion", check_eta_inversion, 1e-10),
    ("gen_eta_transform", lambda: check_gen_eta_transform(14, 1, GAMMA_CYCLE), 1e-9),
    ("index_cycle", check_index_cycle, 1e-9),
    ("eq41", check_eq41, 1e-8),
    ("sign_laws", check_sign_laws, 1e-12),
    ("epsilon_modulus", check_epsilon_modulus, 1e-12),
    ("symbol_consistency", check_symbol_consistency, 1e-8),
)


def numeric_report(tol=None) -> dict:
    """Run every floating-point check; returns name -> {deviation, tolerance,
    passed}.  A uniform tolerance overrides the per-check defaults."""
    report = {}
    for name, func, default in _CHECKS:
        bound = default if tol is None else tol
        deviation = func()
        report[name] = {
            "deviation": deviation,
            "tolerance": bound,
            "passed": deviation <= bound,
        }
    return report
