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
``_qproduct``" over them.  A prefactor is one ``Fraction`` formed from
integers: eta_{N,g}'s is (6 g^2 - 6 g N + N^2) / (12 N).  A product of
integer powers of statements is a statement too (``_power_product``): the
quotient classes are built that way, each distinct quotient stated once
(``_memo_statement``, keyed by class, level and exponents, with a read-only
factor dict), and the DSL forms a product of eta-type calls as one
``_qproduct`` call, an ``EtaTypeProduct`` at the window of
``eta_type_product``.  The kernel
solves the product's logarithmic-derivative recurrence by halves
(``_solve``), so past a short block its work is big-integer products
(``series._packed_product``), not one multiplication per pair of terms.

What the kernel solves is the product's *exponent sequence* c(m), the
power of (1 - q^m) for m below the window: theta(-1,1,-1,1) and
eta(1)^2/eta(2) state one product and read one c.  The solved unit part is
memoized on c (``_memo_unit_part``, whose ``cache_info()`` shows hits and
misses as an ``lru_cache``'s does), process-wide and bounded to
``_MEMO_ENTRIES`` sequences of at most ``_MEMO_SLOTS`` slots.  Since f_k
depends only on c(1..k), an entry serves every window of its sequence: a
narrower one reads a prefix, and a wider one extends the entry from the
slots it holds, so one product at ascending windows is solved from slot 0
once.  A hit that needs no new slots costs forming c and comparing a
prefix, O(w), and sign and prefactor are applied after the lookup.

The one product whose unit part skips the kernel is a ``ThetaPower``,
f(x, y)^r for the DSL's leaf ``theta(...)^r``: by the Jacobi triple
product f(x, y) = sum_n x^(n(n+1)/2) y^(n(n-1)/2), which has O(sqrt(w))
nonzero terms below q^w, and r packed squarings raise it
(``_theta_sum``).  It goes through the same memo, keyed by the same c, so
theta(-1,1,-1,1) leaves an entry that eta(1)^2/eta(2) reads at no cost:
an entry that covers the window is read as a prefix, and otherwise the
sum, formed at the window, becomes the sequence's entry.  ``theta_f``
stays on the kernel.

The primitive products (``pochhammer``, ``eta``, ``gen_eta``, ``theta_f``,
``lambert_mod``, ``pi_q``) take an *absolute* exponent ceiling ``order``:
the result is known modulo ``q^order`` (often a little further).  The named
modular functions of :func:`gosper_symbols` have poles of different orders
at infinity, so there ``order`` is the *relative* window R: a function with
leading exponent ``lead`` is known exactly through ``lead + R``.

The named functions are one table, ``_SYMBOLS``: a product symbol is its
quotient object, which ``level14`` reads too, and any other is DSL text,
parsed on first use, so that importing this module loads no DSL.  No
leading exponent is stated, since a build is cut at its own valuation plus R.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType

from .series import QSeries, _packed_product

#: a range of at most this many coefficients is solved by the direct
#: recurrence; a longer one is halved (``_solve``)
_BLOCK = 48


def _solve(f, s, l, r):
    """Fill f[l:r] from  k f_k = sum_{j=1..k} s_j f_(k-j),  given that f[k]
    for k in [l, r) already holds the part of that sum over f[:l].

    A range longer than ``_BLOCK`` is solved by halves: after the first
    half, one packed big-integer product (``_packed_product``) adds the
    part over f[l:mid] to every f[mid:r] at once (slots mid-l .. r-l-1 of
    f[l:mid] times s[:r-l]; an all-zero block adds nothing), and the second
    half is solved by the same rule.  Depth d of the halving forms 2^d
    products of w/2^(d+1) by w/2^d slots, so a window w costs O(M(w) log w)
    for M the cost of one product, not w^2/2 multiplications.
    """
    if r - l > _BLOCK:
        mid = (l + r) // 2
        _solve(f, s, l, mid)
        block = f[l:mid]
        if any(block):
            tail = _packed_product(block, 1, s[: r - l], 1, r - l)
            f[mid:r] = map(add, f[mid:r], tail[mid - l :])
        _solve(f, s, mid, r)
        return
    for k in range(max(l, 1), r):
        # exact: f has integer coefficients
        f[k] = sum(map(mul, f[l:k], s[k - l : 0 : -1]), f[k]) // k


def _qproduct(statement: tuple, order, route=None) -> QSeries:
    """The product ``statement`` = (factors, pref, sign), that is
    sign * q^pref * prod over ``factors`` {(a, b): r} of (q^a; q^b)_inf^r,
    known modulo q^order.

    The unit part f is known modulo q^w with w = max(1, ceil(order - pref)),
    and depends only on the product's exponent sequence c(1..w-1), c(m) the
    power of (1 - q^m): a factor (a, b, r) adds r to c(a), c(a + b), ...
    (one slice-add), so every way of writing one product, as a theta
    function or as an eta quotient, say, reads the same c.  ``_unit_part``
    is memoized on c for windows of at most ``_MEMO_SLOTS`` slots (a wider
    one is solved every time), an entry serving each window of its
    sequence; sign and prefactor are applied after the lookup, so a hit
    equals a cold build field for field.  ``route(w)``, when given, forms
    the unit part at w slots without the kernel (``ThetaPower``'s
    triple-product sum), for the memo's misses and for a window too wide to
    keep.  With pref = n/d in lowest terms the result lives on the grid
    1/d, and f is handed over as is, one slot per power of q at stride d.
    """
    factors, pref, sign = statement
    pref = Fraction(pref)
    w = max(1, math.ceil(Fraction(order) - pref))
    c = [0] * w
    for (a, b), r in factors.items():
        c[a:w:b] = [x + r for x in c[a:w:b]]
    c = tuple(c)
    if w > _MEMO_SLOTS:
        f = route(w) if route else _unit_part(c)
    else:
        f = _memo_unit_part(c, route) if route else _memo_unit_part(c)
    if sign < 0:
        f = [-x for x in f]
    n, d = pref.numerator, pref.denominator
    return QSeries._make(f, n, d, n + w * d, d)


def _unit_part(c: tuple) -> tuple:
    """The coefficients f_0 .. f_(w-1) of  prod_{m=1..w-1} (1 - q^m)^c(m)
    modulo q^w, for w = len(c) (c[0] is unused), solved from slot 0."""
    s, f = [], []
    _extend(c, s, f)
    return tuple(f)


def _extend(c: tuple, s: list, f: list) -> None:
    """Extend f, the unit part of c[:len(f)], and s, its harmonic sums for
    the slots it holds (none, for an f formed by other means), in place to
    the window w = len(c).

    The coefficients come by integer arithmetic from the logarithmic
    derivative,  k f_k = sum_{j=1..k} s_j f_(k-j)  with
    s_j = -sum_{m | j} m c(m)  (one harmonic pass over the m with
    c(m) != 0, which adds only to the slots j past s); no series power,
    product or inverse is formed.  From l = len(f) > 0 slots, one packed
    product (``_packed_product``) adds the part of that sum over f[:l] to
    every new slot at once, and ``_solve`` fills f[l:w] by halves; from
    l = 0, f starts at f_0 = 1 and is solved whole.
    """
    l, w, ls = len(f), len(c), len(s)
    s += [0] * (w - ls)
    for m in range(1, w):
        if c[m]:
            rm = c[m] * m
            for j in range(m if m >= ls else -(-ls // m) * m, w, m):
                s[j] -= rm
    if l:
        f += _packed_product(f, 1, s, 1, w)[l:]
    else:
        f += [1] + [0] * (w - 1)
    _solve(f, s, l, w)


class _Entry:
    """A solved exponent sequence c, with its harmonic sums s and its unit
    part f (lists, which a wider request extends); s is empty when f came
    from a ``route``, and a kernel extension derives it from c."""

    __slots__ = ("c", "s", "f")


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _UnitPartMemo:
    """``_unit_part`` through a memo of solved exponent sequences.

    An entry serves every request whose c agrees with the entry's on the
    shorter of the two lengths: a narrower request reads a prefix of its
    unit part, and a wider one extends the entry from the slots it holds
    (``_extend``), so one product at ascending windows is solved from
    slot 0 once.  A request with a ``route`` (see ``_qproduct``) that no
    entry serves at its window forms its unit part by that route, which
    replaces a narrower entry of its sequence.  Candidates are found by
    the first ``_MEMO_HEAD`` terms of c, a key that every window of one
    sequence shares (a window narrower than that is its own key), whatever
    product states it.  The memo holds at most ``maxsize`` entries and
    drops the least recently used; one lock covers each lookup with its
    solve, so two threads never insert one sequence twice.  ``cache_info``
    and ``cache_clear`` read and reset it as ``functools.lru_cache``'s do:
    a request served by an entry, extended or not, is a hit, and one that
    forms a new unit part (a new entry, or one that replaces an entry) a
    miss.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, c: tuple, route=None) -> tuple:
        w = len(c)
        head = c[:_MEMO_HEAD]
        with self._lock:
            for entry in self._heads.get(head, ()):
                n = min(w, len(entry.c))
                if entry.c[:n] == c[:n]:
                    break
            else:
                entry = None
            if entry is not None and (w <= len(entry.c) or route is None):
                if w > len(entry.c):
                    # extend copies, so that a solve cut short by an
                    # exception leaves the entry as it was
                    s, f = entry.s[:], entry.f[:]
                    _extend(c, s, f)
                    entry.c, entry.s, entry.f = c, s, f
                self.hits += 1
                del self._recent[entry]
            else:
                s, f = [], []
                if route is None:
                    _extend(c, s, f)
                else:
                    f = route(w)
                self.misses += 1
                if entry is None:
                    entry = _Entry()
                    self._heads.setdefault(head, []).append(entry)
                    if len(self._recent) == self.maxsize:
                        oldest = next(iter(self._recent))
                        old_head = self._recent.pop(oldest)
                        self._heads[old_head].remove(oldest)
                        if not self._heads[old_head]:
                            del self._heads[old_head]
                else:
                    del self._recent[entry]
                entry.c, entry.s, entry.f = c, s, f
            self._recent[entry] = head  # the most recently used last
            return tuple(entry.f[:w])

    def cache_info(self) -> tuple:
        with self._lock:
            return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._recent))

    def cache_clear(self) -> None:
        with self._lock:
            # head -> the entries whose c starts with it; entry -> its head,
            # least recently used first
            self._heads, self._recent = {}, {}
            self.hits = self.misses = 0


#: the memo of ``_unit_part``: process-wide, thread-safe, and bounded to
#: _MEMO_ENTRIES sequences of at most _MEMO_SLOTS slots each (a wider
#: window, such as one ``expand`` at a huge order, is solved and not kept).
#: One ``verify --all`` builds 40 products and solves 28 sequences; a hit
#: that needs no new slots costs building c and comparing a prefix, O(w)
_MEMO_ENTRIES = 64
_MEMO_SLOTS = 1024
_MEMO_HEAD = 16
_memo_unit_part = _UnitPartMemo(_MEMO_ENTRIES)


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


def _positive(n: int, what: str) -> int:
    """n, checked to be a positive integer; ``what`` names it in the error."""
    if n < 1:
        raise ValueError(f"{what} must be a positive integer")
    return n


def pochhammer(sign: int, a: int, b: int, order: int) -> QSeries:
    """The product  prod_{n>=0} (1 - sign * q^(a + n b)),  modulo q^order."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a < 1 or b < 1:
        raise ValueError("pochhammer exponents must satisfy a >= 1, b >= 1")
    order = _positive(int(order), "order")
    return _qproduct((_factor_dict(_signed(sign, a, b)), 0, 1), order)


def eta_statement(delta: int) -> tuple:
    """Dedekind eta at delta*tau:  q^(delta/24) * prod_{n>=1} (1 - q^(delta n))."""
    _positive(delta, "eta argument")
    return {(delta, delta): 1}, Fraction(delta, 24), 1


def eta(delta: int, order) -> QSeries:
    """Dedekind eta at delta*tau, modulo q^order (see ``eta_statement``)."""
    return _qproduct(eta_statement(delta), order)


def gen_eta_prefactor(level: int, g: int) -> Fraction:
    """Leading exponent  level * B2(g/level) / 2  of eta_{level,g}, for B2
    the second Bernoulli polynomial; with g reduced modulo the level this is
    (6 g^2 - 6 g level + level^2) / (12 level), formed in integers."""
    g %= level
    return Fraction(6 * g * (g - level) + level * level, 12 * level)


def _gen_eta_index(level: int, g: int) -> tuple:
    """(g0, sign) with eta_{level,g} = sign * eta_{level,g0} and 0 < g0 < level,
    through the laws eta_{N,g+N} = eta_{N,-g} = -eta_{N,g}."""
    _positive(level, "level")
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


def _state(cls, level: int, items: tuple) -> tuple:
    """The statement of the ``cls`` quotient of ``level`` with exponent
    ``items`` ((index, r) pairs), its factor dict read-only."""
    factors, pref, sign = _power_product(
        (cls._part(level, i), r) for i, r in items
    )
    return MappingProxyType(factors), pref, sign


#: the memo of ``_state``: process-wide, thread-safe and bounded.  Its key is
#: (class, level, exponent items), since an eta quotient and a generalized
#: eta quotient with equal fields compare equal as tuples.  One ``verify
#: --all`` states 7 distinct quotients in 50 requests, and the benchmark's
#: algebra workload 11 in 163; a hit costs hashing the key
_STATEMENT_ENTRIES = 128
_memo_statement = functools.lru_cache(maxsize=_STATEMENT_ENTRIES)(_state)


class _Quotient:
    """A product of integer powers of eta-type functions.  For one family,
    ``exponents`` maps an index to its exponent and ``_part(level, index)``
    states the function of an index.  Each class is an immutable named
    tuple of its fields, and its statement is formed once per distinct
    value (``_memo_statement``), for its series, its prefactor exponent and
    its float value (``numeric``) alike.

    ``series`` is the product layer's one method: each class binds it in its
    own namespace, where a tracer that looks a class's ``series`` up there
    (``bench/layers.py``) finds it.
    """

    __slots__ = ()

    #: ``_qproduct``'s route to the unit part: the kernel (None) for every
    #: class but ``ThetaPower``
    _route = None

    def statement(self) -> tuple:
        """(factors, pref, sign), the factor dict read-only."""
        return _memo_statement(type(self), self.level, tuple(self.exponents.items()))

    def prefactor_exponent(self) -> Fraction:
        return self.statement()[1]

    def series(self, order) -> QSeries:
        """The product modulo q^order."""
        return _qproduct(self.statement(), order, self._route)


class EtaQuotient(_Quotient, namedtuple("EtaQuotient", "level exponents")):
    """A product  prod_{delta | level} eta(delta tau)^(r_delta).

    ``exponents`` maps delta -> r_delta; zero exponents are dropped and every
    delta must divide the level.
    """

    __slots__ = ()

    def __new__(cls, level: int, exponents: dict):
        _positive(level, "level")
        clean = {}
        for d in sorted(exponents):
            r = exponents[d]
            if not r:
                continue
            d = int(d)
            if d < 1 or level % d:
                raise ValueError(f"eta argument {d} does not divide the level {level}")
            clean[d] = int(r)
        return tuple.__new__(cls, (level, clean))

    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents.values()), 2)

    @staticmethod
    def _part(level: int, delta: int) -> tuple:
        return eta_statement(delta)

    series = _Quotient.series


class GenEtaQuotient(_Quotient, namedtuple("GenEtaQuotient", "level exponents")):
    """A product  prod_g eta_{level,g}^(r_g)  with 1 <= g <= level/2."""

    __slots__ = ()

    def __new__(cls, level: int, exponents: dict):
        _positive(level, "level")
        clean = {}
        for g in sorted(exponents):
            r = exponents[g]
            if not r:
                continue
            g = int(g)
            if not 1 <= g <= level // 2:
                raise ValueError(f"index {g} outside 1..{level // 2} for level {level}")
            clean[g] = int(r)
        return tuple.__new__(cls, (level, clean))

    _part = staticmethod(gen_eta_statement)

    series = _Quotient.series


class EtaTypeProduct(
    _Quotient,
    namedtuple("EtaTypeProduct", "parts q_exponent", defaults=(Fraction(0),)),
):
    """q^q_exponent * prod over ``parts`` (statement, r) of statement^r: a
    product of integer powers of eta-type functions of any families."""

    __slots__ = ()

    def statement(self) -> tuple:
        return _power_product(self.parts, self.q_exponent)

    def prefactor_exponent(self) -> Fraction:
        return Fraction(self.q_exponent) + sum(r * p for (_, p, _), r in self.parts)

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


def theta_f(sa: int, a: int, sb: int, b: int, order) -> QSeries:
    """Ramanujan's theta function f(x, y) at x = sa*q^a, y = sb*q^b, modulo
    q^order (see ``theta_statement``)."""
    statement = theta_statement(sa, a, sb, b)
    return _qproduct(statement, _positive(int(order), "order"))


def _theta_sum(sa: int, a: int, sb: int, b: int, power: int, w: int) -> list:
    """The coefficients of f(x, y)^power modulo q^w at x = sa*q^a,
    y = sb*q^b, from the Jacobi triple product's sum side

        f(x, y) = sum_{n in Z} x^(n(n+1)/2) y^(n(n-1)/2),

    which has O(sqrt(w)) nonzero terms below q^w, raised to ``power`` by
    packed squarings (``_packed_product``)."""
    f = [0] * w
    # n >= 0 reads x^T(n) y^T(n-1), and n = -m < 0 reads x^T(m-1) y^T(m),
    # for T(n) = n(n+1)/2: the same walk with x and y swapped, from m = 1
    for sx, ex, sy, ey, n in ((sa, a, sb, b, 0), (sb, b, sa, a, 1)):
        t = n * (n - 1) // 2  # T(n-1)
        while (e := ex * (t + n) + ey * t) < w:
            f[e] += sx ** ((t + n) & 1) * sy ** (t & 1)
            t += n
            n += 1
    out = None
    while True:
        if power & 1:
            out = f if out is None else _packed_product(out, 1, f, 1, w)
        power >>= 1
        if not power:
            return out
        f = _packed_product(f, 1, f, 1, w)


class ThetaPower(_Quotient, namedtuple("ThetaPower", "sa a sb b power q_exponent")):
    """q^q_exponent * f(sa*q^a, sb*q^b)^power for a positive power: the
    product of ``theta_statement``, whose unit part comes from the
    triple-product sum (``_theta_sum``), memoized as the kernel's is."""

    __slots__ = ()

    def statement(self) -> tuple:
        theta = theta_statement(self.sa, self.a, self.sb, self.b)
        return _power_product([(theta, self.power)], self.q_exponent)

    def _route(self, w: int) -> list:
        return _theta_sum(self.sa, self.a, self.sb, self.b, self.power, w)

    series = _Quotient.series


def lambert_mod(r: int, modulus: int, order) -> QSeries:
    """sum over n >= 1, n ≡ r (mod modulus), of  q^n / (1 - q^n)^2.

    The coefficient of q^M is  sum of M/d over divisors d | M with
    d ≡ r (mod modulus).
    """
    _positive(modulus, "modulus")
    order = _positive(int(order), "order")
    r = r % modulus
    c = [0] * order
    n = r if r else modulus
    while n < order:
        for m in range(n, order, n):
            c[m] += m // n
        n += modulus
    return QSeries._make(c, 0, 1, order)


def lambert_L(k: int, order) -> QSeries:
    """L_k = sum_{n>=1} q^(kn)/(1-q^(kn))^2."""
    return lambert_mod(0, _positive(k, "argument"), order)


def lambert_L_odd(k: int, order) -> QSeries:
    """L'_k = sum over odd multiples:  sum_{n>=1, n odd} q^(kn)/(1-q^(kn))^2."""
    return lambert_mod(k, 2 * _positive(k, "argument"), order)


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
    _positive(k, "argument")
    return {(2 * k, 2 * k): 4, (k, k): -2}, Fraction(k, 4), 1


def pi_q(k: int, order) -> QSeries:
    """Pi_{q^k} modulo q^order (see ``pi_statement``)."""
    return _qproduct(pi_statement(k), order)


# -- named level-14 functions ------------------------------------------------

#: name -> definition, in the notation of the table in :func:`gosper_symbols`.
#: A product symbol is its quotient object (``level14`` takes g1-g3, h1 and
#: h2 from here).  Any other is DSL text over ``L``, ``Lodd``, ``eta`` and
#: the other named functions ``symbol(name)``, parsed on first use
#: (``_symbol_tree``); ``_build`` evaluates it exactly and
#: ``numeric.eval_symbol`` in floats.  The eta factors of z and f,
#: 1/Pi_{q^7}^2, share one pair of parentheses, so that they form one
#: product leaf.
_SYMBOLS = {
    "z": "(Lodd(1) - 7*Lodd(7))*(eta(7)^4/eta(14)^8)",
    "w": "4*(L(1) - 7*L(7)) + 1",
    "g": EtaQuotient(14, {1: -2, 2: 4, 7: 2, 14: -4}),
    "g1": GenEtaQuotient(14, {1: -2, 6: 2}),
    "g2": GenEtaQuotient(14, {3: -2, 4: 2}),
    "g3": GenEtaQuotient(14, {2: 2, 5: -2}),
    "f0": "symbol(g1)^2 + symbol(g2)^2 + symbol(g3)^2",
    "f1": "symbol(g1)*symbol(g2) + symbol(g1)*symbol(g3) + symbol(g2)*symbol(g3)",
    "f": "symbol(w)*(eta(7)^4/eta(14)^8)/symbol(z)",
    "h1": EtaQuotient(28, {1: -2, 2: 4, 7: -2, 14: 8, 28: -8}),
    "h2": EtaQuotient(28, {1: 2, 2: -4, 7: -6, 14: 16, 28: -8}),
    "H": "symbol(h1) + 16/symbol(h2)",
    "t": "symbol(H) + 4*symbol(f1)",
}

SYMBOL_NAMES = tuple(_SYMBOLS)


@functools.lru_cache(maxsize=None)
def _symbol_tree(name: str):
    """The parsed text of a named function that is no product."""
    from .dsl import parse  # dsl imports this module

    return parse(_SYMBOLS[name])


def _build(name: str, window: int) -> QSeries:
    """The named function through its valuation plus ``window``; a text
    short of that (z, by one order) is evaluated once more, that much wider."""
    entry = _SYMBOLS[name]
    if isinstance(entry, _Quotient):
        got = entry.series(entry.prefactor_exponent() + window)
    else:
        from . import dsl

        got = dsl.evaluate(_symbol_tree(name), window)
        # with no term known, v = T is the least the valuation can be
        short = Fraction(got.v - got.T, got.D) + window
        if short > 0:
            got = dsl.evaluate(_symbol_tree(name), window + math.ceil(short))
    got = got.truncate(got.valuation() + window)
    if name == "z" and got != sum(gosper_symbols(g, window) for g in ("g1", "g2", "g3")):
        raise ArithmeticError(
            "cross-check failed: the Lambert-series and eta-quotient builds of z disagree"
        )
    return got


#: name -> (window, series) of its largest build
_SYMBOL_CACHE: dict = {}
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
        return built.truncate(built.valuation() + order)
