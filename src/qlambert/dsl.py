"""Expression language for q-series identities.

Grammar:

    identity := expr "==" expr
    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := atom ("^" exponent)?
    exponent := integer | "(" integer "/" integer ")"
    atom     := rational | "q" | call | "(" expr ")" | "-" atom
                | "sqrt" "(" expr ")"
    call     := name "(" arg ("," arg)* ")"

Integers in exponent and argument position may carry a leading minus.  Call
arguments are integers except for ``symbol(name)`` and the first argument of
``subq(expr, k)``, which substitutes q -> q^k in a subexpression.

Parentheses, unary minus, ``sqrt`` and calls nest at most MAX_NESTING levels
deep, and so does the text ``to_text`` prints for a parsed tree, where each
binary operator of a chain such as ``a + b + c`` adds a pair of parentheses.
Deeper input is a DSLError rather than a RecursionError, and every tree that
parses prints to text that parses back to it.

Evaluation reads each subtree built from ``+``, ``-``, ``*``, unary minus,
division by a nonzero constant and powers of monomials as a polynomial over
its distinct leaves: calls, powers of q, ``sqrt``, ``subq``, divisions by a
non-constant, negative or rational powers.  Each distinct leaf is evaluated
once per call of ``evaluate``, and the polynomial goes to
``relations.eval_poly``.  A power of a sum, and a product of two factors
that are not both single untouched monomials (nor one of them a constant),
are leaves too, formed as the product of their operands' values: expanding
them could shrink the truncation or, for powers, blow up the size.  The
value is truncated where the node-by-node arithmetic would truncate it,
which a cancelled monomial still bounds, so both give the same series.

A product or quotient of integer powers of ``eta``, ``geta``, ``pi`` and
``theta`` calls, times q powers and constants, is one *product leaf*
(times its constant): the calls' factor dicts merge into one, and a single
q-product forms the leaf (``constructors.eta_type_product``), with the
prefactors added, the sign law's signs multiplied and the window the
node-by-node product reaches.  A zero power, a product of q powers alone
and a single bare call stay as they are; symbols, sums, ``sqrt`` and
``subq`` end a product leaf.  Every call of a product leaf is checked where
it appears, so an invalid one fails with the same message, naming it, as
in the node-by-node evaluation.
"""

import math
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .constructors import (
    bailey_specialization,
    eta,
    eta_statement,
    eta_type_product,
    gen_eta,
    gen_eta_statement,
    gosper_symbols,
    lambert_L,
    lambert_L_odd,
    lambert_mod,
    pi_q,
    pi_statement,
    theta_f,
    theta_statement,
)
from .errors import DSLError
from .relations import MultiPoly, eval_poly
from .series import QSeries, qpow

__all__ = [
    "Lit",
    "Q",
    "Call",
    "Neg",
    "Sqrt",
    "BinOp",
    "Pow",
    "Subq",
    "parse",
    "parse_identity",
    "to_text",
    "evaluate",
    "MAX_NESTING",
]

#: deepest nesting of parentheses, unary minus, sqrt and calls that parses
MAX_NESTING = 100


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Q:
    exponent: Fraction


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    node: object


@dataclass(frozen=True)
class Sqrt:
    node: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Subq:
    node: object
    power: int


# the callable names: their argument kinds ("i" integer, "n" name,
# "e" expression) and their builders, which take the order first; subq
# parses to a Subq node instead of a Call
_CALLS = {
    "eta": ("i", lambda order, d: eta(d, order)),
    "geta": ("ii", lambda order, m, g: gen_eta(m, g, order)),
    "pi": ("i", lambda order, k: pi_q(k, order)),
    "L": ("i", lambda order, k: lambert_L(k, order)),
    "Lodd": ("i", lambda order, k: lambert_L_odd(k, order)),
    "Lmod": ("ii", lambda order, r, m: lambert_mod(r, m, order)),
    "theta": ("iiii", lambda order, sa, a, sb, b: theta_f(sa, a, sb, b, order)),
    "bailey": ("ii", lambda order, i, m: bailey_specialization(i, m, order)),
    "symbol": ("n", lambda order, name: gosper_symbols(name, order)),
    "subq": ("ei", None),
}

#: the eta-type calls and their statements: a product of their integer powers
#: is evaluated as one q-product
_ETA_TYPE = {
    "eta": eta_statement,
    "geta": gen_eta_statement,
    "pi": pi_statement,
    "theta": theta_statement,
}


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<EQ>==)"
    r"|(?P<OP>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    pos, line, start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DSLError(
                f"unexpected character {text[pos]!r}", line, pos - start + 1
            )
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), line, pos - start + 1))
        else:
            line += m.group().count("\n")
            nl = text.rfind("\n", pos, m.end())
            if nl >= 0:
                start = nl + 1
        pos = m.end()
    tokens.append(_Token("END", "", line, len(text) - start + 1))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "END" else "end of input"
        raise DSLError(f"expected {expected}, got {got}", tok.line, tok.col)

    def enter(self, tok: _Token):
        # the parser recurses once per nesting level; bound it
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DSLError(
                f"expression nested more than {MAX_NESTING} levels deep",
                tok.line,
                tok.col,
            )

    def expect(self, text: str, expected=None):
        tok = self.peek()
        if tok.text != text:
            self.fail(expected or f"'{text}'")
        return self.next()

    def integer(self, what="an integer") -> int:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(what)
        self.next()
        return sign * int(tok.text)

    # expr := term (("+"|"-") term)*
    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = self._binop(op, node, self.term())
        return node

    # term := factor (("*"|"/") factor)*
    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/"):
            tok = self.next()
            node = self._binop(tok.text, node, self.factor(), tok)
        return node

    # factor := atom ("^" exponent)?
    def factor(self):
        node = self.atom()
        if self.peek().text != "^":
            return node
        tok = self.next()
        e = self.exponent()
        if isinstance(node, Q):
            return Q(node.exponent * e)
        if e.denominator == 1 and isinstance(node, Lit):
            try:
                return Lit(node.value ** int(e))
            except ZeroDivisionError:
                raise DSLError("zero raised to a negative power", tok.line, tok.col)
        return Pow(node, e)

    # exponent := integer | "(" integer "/" integer ")"
    def exponent(self) -> Fraction:
        if self.peek().text != "(":
            return Fraction(self.integer("an exponent"))
        self.next()
        num = self.integer("an exponent numerator")
        tok = self.expect("/", "'/' in a rational exponent")
        den = self.integer("an exponent denominator")
        if den == 0:
            raise DSLError("zero denominator in exponent", tok.line, tok.col)
        self.expect(")")
        return Fraction(num, den)

    # atom := rational | "q" | call | "(" expr ")" | "-" factor | sqrt-call
    # (unary minus takes a whole factor: ^ binds tighter, so -q^2 = -(q^2))
    def atom(self):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            self.enter(tok)
            node = self._neg(self.factor())
            self.depth -= 1
            return node
        if tok.text == "(":
            self.next()
            self.enter(tok)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "INT":
            self.next()
            return Lit(Fraction(int(tok.text)))
        if tok.kind == "NAME":
            return self.name_atom()
        self.fail("a number, 'q', a call, '(' or '-'")

    def name_atom(self):
        tok = self.next()
        name = tok.text
        if name == "q":
            return Q(Fraction(1))
        if name == "sqrt":
            self.expect("(", "'(' after 'sqrt'")
            self.enter(tok)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return Sqrt(node)
        if name not in _CALLS:
            raise DSLError(f"unknown function {name!r}", tok.line, tok.col)
        kinds = _CALLS[name][0]
        self.expect("(", f"'(' after {name!r}")
        self.enter(tok)
        arity = "%d argument%s" % (len(kinds), "s" if len(kinds) > 1 else "")
        args = []
        for k, kind in enumerate(kinds):
            if k:
                self.expect(",", f"',' ({name} takes {arity})")
            if kind == "i":
                args.append(self.integer())
            elif kind == "n":
                arg = self.peek()
                if arg.kind != "NAME":
                    self.fail("a symbol name")
                args.append(self.next().text)
            else:
                args.append(self.expr())
        self.expect(")", f"')' ({name} takes {arity})")
        self.depth -= 1
        if name == "subq":
            node, power = args
            if power < 1:
                raise DSLError(
                    "subq needs a positive substitution power", tok.line, tok.col
                )
            return Subq(node, power)
        return Call(name, tuple(args))

    # constant folding keeps rational literals as single atoms, so printing
    # and reparsing round-trips
    @staticmethod
    def _neg(node):
        if isinstance(node, Lit):
            return Lit(-node.value)
        return Neg(node)

    def _binop(self, op, left, right, tok=None):
        if isinstance(left, Lit) and isinstance(right, Lit):
            if op == "/" and right.value == 0:
                raise DSLError(
                    "division by zero in a constant",
                    tok.line if tok else None,
                    tok.col if tok else None,
                )
            f = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a / b,
            }[op]
            return Lit(f(left.value, right.value))
        return BinOp(op, left, right)


def parse(text: str):
    """Parse a single expression."""
    p = _Parser(text)
    node = p.expr()
    if p.peek().kind != "END":
        p.fail("end of input")
    return _bounded(node)


def parse_identity(text: str):
    """Parse "lhs == rhs"; returns the pair of expression trees."""
    p = _Parser(text)
    left = p.expr()
    if p.peek().kind != "EQ":
        p.fail("'=='")
    p.next()
    right = p.expr()
    if p.peek().kind != "END":
        p.fail("end of input")
    return _bounded(left), _bounded(right)


def _bounded(node):
    # trees deeper than the parser accepts would overflow the recursive
    # evaluator and printer, and print to text that does not parse back
    if _nesting(node) > MAX_NESTING:
        raise DSLError(
            f"expression nested more than {MAX_NESTING} levels deep: each "
            "binary operator in a chain counts one level; group long sums "
            "and products with parentheses"
        )
    return node


# -- printer -------------------------------------------------------------------


def _exponent_text(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e.numerator}/{e.denominator})"


def _bare_base(node) -> bool:
    # whether node prints as a single atom, so it needs no parentheses as
    # the base of ^
    if isinstance(node, (Call, Sqrt, Subq)):
        return True
    if isinstance(node, Lit):
        return node.value >= 0 and node.value.denominator == 1
    return isinstance(node, Q) and node.exponent == 1


def _base_text(node) -> str:
    # the base of ^ must be a single atom
    return to_text(node) if _bare_base(node) else f"({to_text(node)})"


def _factor_text(node) -> str:
    # operand of unary minus: "--x" parses as a double negation
    if isinstance(node, BinOp):
        return f"({to_text(node)})"
    return to_text(node)


def to_text(node) -> str:
    """Render a tree back to source; parsing the result reproduces the tree."""
    if isinstance(node, Lit):
        v = node.value
        if v.denominator == 1:
            return str(v.numerator)
        return f"({v.numerator}/{v.denominator})"
    if isinstance(node, Q):
        if node.exponent == 1:
            return "q"
        return "q^" + _exponent_text(node.exponent)
    if isinstance(node, Call):
        return "%s(%s)" % (node.name, ", ".join(str(a) for a in node.args))
    if isinstance(node, Neg):
        return "-" + _factor_text(node.node)
    if isinstance(node, Sqrt):
        return f"sqrt({to_text(node.node)})"
    if isinstance(node, BinOp):
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    if isinstance(node, Pow):
        return _base_text(node.base) + "^" + _exponent_text(node.exponent)
    if isinstance(node, Subq):
        return f"subq({to_text(node.node)}, {node.power})"
    raise TypeError(f"not an expression node: {node!r}")


def _nesting(root) -> int:
    """The parser nesting depth of ``to_text(root)``, without recursion.

    Each "(", unary "-", "sqrt(" and call in the printed text opens a level;
    the per-node counts below follow the printer.
    """
    deepest = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, BinOp):
            depth += 1
            stack.append((node.left, depth))
            stack.append((node.right, depth))
        elif isinstance(node, Call):
            depth += 1
        elif isinstance(node, Lit):
            v = node.value
            depth += (v.numerator < 0) + (v.denominator != 1)
        elif isinstance(node, Pow):
            stack.append((node.base, depth + (not _bare_base(node.base))))
        elif isinstance(node, Neg):
            stack.append((node.node, depth + 1 + isinstance(node.node, BinOp)))
        elif isinstance(node, (Sqrt, Subq)):
            stack.append((node.node, depth + 1))
        if depth > deepest:
            deepest = depth
    return deepest


# -- evaluation ----------------------------------------------------------------
#
# A polynomial is a pair (terms, seen): terms maps monomials to nonzero
# rationals, and seen holds every monomial that entered it, cancelled ones
# included, because those still bound the truncation (a cancelled constant
# leaves the exact zero, and is dropped).  A monomial is a tuple of
# exponents indexed by leaf, without trailing zeros.  Leaves are keyed by
# structure.  A leaf's spec is None for a leaf evaluated on its own, _CHECK
# for an eta-type call that so far only entered product leaves and is only
# checked, and (polynomials, exponents) for a composite leaf, whose value
# is the product of their powers.  A product is expanded only where the
# node-by-node product gets the same truncation as the expansion's
# monomials: one factor a constant, or both single monomials that no
# cancellation touched.

_CHECK = "check"


@dataclass(frozen=True)
class _Product:
    """The product leaf  q^qexp * prod call^r  over the pairs (call, r) of
    ``calls``, all eta-type calls.  A call whose exponents cancel stays in,
    since it still bounds the truncation."""

    calls: frozenset
    qexp: Fraction


class _Pending:
    """c * q^qexp * prod call^r over ``calls`` {call: r}: a product that
    _convert has met but not yet made a leaf, since an enclosing product may
    still take it in.  Its calls are registered as _CHECK leaves where they
    appear."""

    __slots__ = ("calls", "qexp", "c")

    def __init__(self, calls: dict, qexp=0, c=1):
        self.calls, self.qexp, self.c = calls, Fraction(qexp), Fraction(c)


#: order -> leaf -> value, shared by the evaluations inside _shared_leaves
_SHARED: ContextVar = ContextVar("qlambert_dsl_shared_leaves", default=None)


def evaluate(node, order: int) -> QSeries:
    """Evaluate a tree to a truncated series.

    Primitive constructors are expanded through the absolute order, named
    symbols get it as their relative window.  Each polynomial subtree is
    evaluated as a polynomial over its distinct leaves by
    ``relations.eval_poly``, and truncated where the node-by-node
    arithmetic would truncate it.  A product of integer powers of eta-type
    calls and q powers is one leaf, formed by a single q-product over the
    merged factor dict, and equal to the node-by-node product of its
    factors.  Arithmetic failures are re-raised as DSLError tagged with the
    offending subexpression.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _eval(node, order, _memo(order))


@contextmanager
def _shared_leaves():
    """Inside the block, evaluations at one order evaluate each leaf once."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _memo(order: int) -> dict:
    shared = _SHARED.get()
    return {} if shared is None else shared.setdefault(order, {})


def _predicted_truncation(node, order: int):
    """The truncation exponent that ``evaluate(node, order)`` is predicted
    to reach, or None when the value is predicted exact.

    The leaves are evaluated (inside _shared_leaves, evaluate then reuses
    them), but no product above them is formed: QSeries's min rules give
    each one's valuation and truncation from its factors', taking no
    cancellation in a sum.  A cancellation can only raise a valuation, so
    the prediction never exceeds the truncation evaluate reaches.
    """
    order = int(order)
    _, T, D = _eval(node, order, _memo(order), predict=True)
    return None if T is None else Fraction(T, D)


def _eval(node, order: int, memo: dict, predict: bool = False):
    poly, leaves = _converted(node)
    values, shadows = [], []
    for leaf, (_, spec) in leaves:
        if spec is _CHECK:
            _wrap(leaf, _ETA_TYPE[leaf.name], *leaf.args)
            values.append(None)
            shadows.append((None, None, 1))
            continue
        if spec is None:
            value = memo.get(leaf)
            if value is None:
                value = memo[leaf] = _leaf(leaf, order, memo)
        elif predict:
            polys, exponents = spec
            D, grid = _grid([_estimate(p, shadows) for p in polys])
            shadows.append((*_monomial(exponents, grid), D))
            continue
        else:
            value = None
            for p, e in zip(*spec):
                x = _value(p, values, shadows)
                x = x if e == 1 else x**e
                value = x if value is None else value * x
        values.append(value)
        shadows.append(_shadow(value))
    if predict:
        return _estimate(poly, shadows)
    return _value(poly, values, shadows)


def _leaf(node, order: int, memo: dict) -> QSeries:
    if isinstance(node, Q):
        return qpow(node.exponent)
    if isinstance(node, Call):
        return _wrap(node, _CALLS[node.name][1], order, *node.args)
    if isinstance(node, _Product):
        # its calls were checked by their _CHECK or bare leaves before it
        parts = [(_ETA_TYPE[call.name](*call.args), r) for call, r in node.calls]
        return eta_type_product(parts, order, node.qexp)
    if isinstance(node, Sqrt):
        return _wrap(node, _eval(node.node, order, memo).sqrt)
    if isinstance(node, Subq):
        return _eval(node.node, order, memo).subs_qpow(node.power)
    if isinstance(node, Pow):
        base = _eval(node.base, order, memo)
        e = node.exponent
        return _wrap(node, lambda: base ** (int(e) if e.denominator == 1 else e))
    if isinstance(node, BinOp):
        # a division by a non-constant, or by zero
        left = _eval(node.left, order, memo)
        right = _eval(node.right, order, memo)
        return _wrap(node, lambda: left / right)
    raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=256)
def _converted(node) -> tuple:
    """(polynomial, ((leaf, (index, spec)), ...)) of a tree: the polynomial
    over its leaves and the leaves in order of first appearance.

    Cached because verify converts each side for the prediction and again
    for every pass; callers only read the result.
    """
    leaves: dict = {}
    poly = _poly(_convert(node, leaves), leaves)
    return poly, tuple(leaves.items())


def _convert(node, leaves: dict):
    """The polynomial of a tree over the leaves it registers in ``leaves``
    (node -> (index, spec), in order of first appearance), or a _Pending
    product, which _poly makes a polynomial."""
    if isinstance(node, Lit):
        c = node.value
        if c.denominator == 1:
            c = c.numerator  # integral coefficients stay ints
        return ({(): c}, {()}) if c else ({}, set())
    if isinstance(node, Q):
        return _Pending({}, node.exponent)
    if isinstance(node, Call) and node.name in _ETA_TYPE:
        leaves.setdefault(node, (len(leaves), _CHECK))
        return _Pending({node: 1})
    if isinstance(node, Neg):
        x = _convert(node.node, leaves)
        if isinstance(x, _Pending):
            x.c = -x.c
            return x
        terms, seen = x
        return {m: -c for m, c in terms.items()}, seen
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            a = _poly(_convert(node.left, leaves), leaves)
            b = _poly(_convert(node.right, leaves), leaves)
            terms = dict(a[0])
            sign = 1 if node.op == "+" else -1
            for m, c in b[0].items():
                x = terms.get(m, 0) + sign * c
                if x:
                    terms[m] = x
                else:
                    del terms[m]
            seen = a[1] | b[1]
            if () not in terms:
                seen.discard(())  # a cancelled constant leaves an exact zero
            return terms, seen
        if node.op == "*":
            a, b = _convert(node.left, leaves), _convert(node.right, leaves)
            fused = _fused(a, b, 1)
            if fused is not None:
                return fused
            a, b = _poly(a, leaves), _poly(b, leaves)
            if not (
                _constant(a) or _constant(b) or (_monomial_only(a) and _monomial_only(b))
            ):
                return _register(node, leaves, ((a, b), (1, 1)))
            # one side is a single monomial, so the products are distinct
            return (
                {_mono(m, n): c * d for m, c in a[0].items() for n, d in b[0].items()},
                {_mono(m, n) for m in a[1] for n in b[1]},
            )
        if isinstance(node.right, Lit):
            c = node.right.value
            if c:
                x = _convert(node.left, leaves)
                if isinstance(x, _Pending):
                    x.c /= c
                    return x
                terms, seen = x
                return {m: v / c for m, v in terms.items()}, seen
        else:
            saved = dict(leaves)
            fused = _fused(_convert(node.left, leaves), _convert(node.right, leaves), -1)
            if fused is not None:
                return fused
            _restore(leaves, saved)
    elif isinstance(node, Pow) and node.exponent.denominator == 1:
        k = int(node.exponent)
        if k < 0:
            saved = dict(leaves)
            base = _convert(node.base, leaves)
            if isinstance(base, _Pending) and base.c:
                return _raised(base, k)
            _restore(leaves, saved)
            return _register(node, leaves, None)
        base = _convert(node.base, leaves)
        if isinstance(base, _Pending):
            return _raised(base, k) if k else ({(): 1}, {()})
        if not _monomial_only(base):
            return _register(node, leaves, ((base,), (k,)))
        if not k:
            return {(): 1}, {()}
        return (
            {tuple(e * k for e in m): c**k for m, c in base[0].items()},
            {tuple(e * k for e in m) for m in base[1]},
        )
    return _register(node, leaves, None)


def _restore(leaves: dict, saved: dict) -> None:
    # undo what converting the operands of an unfused division or negative
    # power registered or marked, so that it stays one opaque leaf
    leaves.clear()
    leaves.update(saved)


def _fused(a, b, sign: int):
    """The _Pending a * b^sign when one operand is a _Pending and the other
    one too or a constant (a nonzero one to divide by), else None."""
    if not (isinstance(a, _Pending) or isinstance(b, _Pending)):
        return None
    a, b = _as_pending(a), _as_pending(b)
    if a is None or b is None or (sign < 0 and not b.c):
        return None
    for call, r in b.calls.items():
        a.calls[call] = a.calls.get(call, 0) + sign * r
    a.qexp += sign * b.qexp
    a.c = a.c * b.c if sign > 0 else a.c / b.c
    return a


def _as_pending(x):
    # a _Pending, a constant as one, or None
    if isinstance(x, _Pending):
        return x
    return _Pending({}, 0, x[0].get((), 0)) if _constant(x) else None


def _raised(x: "_Pending", k: int) -> "_Pending":
    x.calls = {call: r * k for call, r in x.calls.items()}
    x.qexp *= k
    x.c **= k
    return x


def _poly(x, leaves: dict) -> tuple:
    """x, or for a _Pending x the polynomial c * leaf: the leaf is a q power
    when x has no calls, the call itself when x is one bare call, and a
    _Product otherwise."""
    if not isinstance(x, _Pending):
        return x
    if not x.c:
        return {}, set()
    if not x.calls:
        leaf = Q(x.qexp)
    elif not x.qexp and len(x.calls) == 1 and 1 in x.calls.values():
        (leaf,) = x.calls
        index, _ = leaves[leaf]
        leaves[leaf] = index, None  # evaluated now, not only checked
    else:
        leaf = _Product(frozenset(x.calls.items()), x.qexp)
    (m,), seen = _register(leaf, leaves, None)
    c = x.c
    return {m: c.numerator if c.denominator == 1 else c}, seen


def _constant(poly: tuple) -> bool:
    return poly[1] <= {()}


def _monomial_only(poly: tuple) -> bool:
    # a single monomial (or the zero constant) that no cancellation touched
    return len(poly[1]) <= 1 and poly[1] == poly[0].keys()


def _register(node, leaves: dict, spec) -> tuple:
    entry = leaves.get(node)
    if entry is None:
        entry = leaves[node] = (len(leaves), spec)
    m = (0,) * entry[0] + (1,)
    return {m: 1}, {m}


def _mono(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b) :]


def _polynomial(node, names: dict) -> tuple:
    """The tree multiplied out over the variables of ``names`` (variable ->
    symbol name): the operands of a product of sums at the top, any other
    tree as one MultiPoly.  Monomials over symbol leaves are read off, only
    powers and products of sums are multiplied out, and any other leaf is a
    ValueError naming it."""
    poly, leaves = _converted(node)
    parts = (poly,)
    if isinstance(node, BinOp) and node.op == "*" and leaves and leaves[-1][0] == node:
        parts, leaves = leaves[-1][1][1][0], leaves[:-1]
    variables = tuple(names)
    slots = {Call("symbol", (s,)): i for i, s in enumerate(names.values())}
    values = []  # per leaf: the index of its variable, or its MultiPoly
    for leaf, (_, spec) in leaves:
        if isinstance(spec, tuple):
            value = math.prod(_multiplied(p, values, variables) ** e for p, e in zip(*spec))
        elif leaf in slots:
            value = slots[leaf]
        else:
            symbols = ", ".join(names.values())
            raise ValueError(f"not a polynomial in {symbols}: '{to_text(leaf)}'")
        values.append(value)
    return tuple(_multiplied(p, values, variables) for p in parts)


def _multiplied(poly: tuple, values: list, variables: tuple) -> MultiPoly:
    # a polynomial at the leaf values of _polynomial
    direct, composite = {}, []
    for m, c in poly[0].items():
        key, powers = [0] * len(variables), []
        for e, value in zip(m, values):
            if type(value) is int:
                key[value] += e
            elif e:
                powers.append(value**e)
        key = tuple(key)
        if powers:
            composite.append(math.prod(powers, start=MultiPoly._make(variables, {key: c})))
        else:
            direct[key] = c
    return sum(composite, start=MultiPoly._make(variables, direct))


def _value(poly: tuple, values: list, shadows: list) -> QSeries:
    """The series of a polynomial at the leaf values, cut at the truncation
    its monomials' own products give."""
    terms, _ = poly
    names = [f"x{i}" for i in range(len(values))]
    pad = (0,) * len(values)
    result = eval_poly(
        MultiPoly(names, {m + pad[len(m) :]: c for m, c in terms.items()}),
        dict(zip(names, values)),
    )
    if not isinstance(result, QSeries):
        result = QSeries.constant(result)
    _, T, D = _estimate(poly, shadows)
    if T is not None and (result.T is None or result.T * D > T * result.D):
        result = result + QSeries.zero(T, D)
    return result


# A shadow is the (v, T, D) of a series as QSeries's min rules use it: the
# valuation and truncation indices on the grid 1/D, v = None for the exact
# zero, T = None for an exact series, and v = T when zero through T.


def _shadow(s: QSeries) -> tuple:
    if s.is_exact():
        return (s.v if s.coeffs else None), None, s.D
    return s.v, s.T, s.D


def _grid(shadows) -> tuple:
    # (D, [(v, T), ...]): the shadows on their common grid 1/D
    D = math.lcm(*(d for _, _, d in shadows))
    return D, [
        (None if v is None else v * (D // d), None if T is None else T * (D // d))
        for v, T, d in shadows
    ]


def _monomial(exponents, grid) -> tuple:
    """The (v, T) of a product of powers, by QSeries's rules: valuations
    add, and T is v plus the least relative window T - v of a truncated
    factor; an exact zero factor makes the product the exact zero."""
    v, window = 0, None
    for e, (fv, fT) in zip(exponents, grid):
        if e:
            if fv is None:
                return None, None
            v += e * fv
            if fT is not None and (window is None or fT - fv < window):
                window = fT - fv
    return v, None if window is None else v + window


def _estimate(poly: tuple, shadows: list) -> tuple:
    """The shadow of a polynomial's value: T is the least over the monomials
    seen, v the least over the terms present (no cancellation), at most T."""
    terms, seen = poly
    D, grid = _grid(shadows)
    v = T = None
    for m in seen:
        mv, mT = _monomial(m, grid)
        if mT is not None and (T is None or mT < T):
            T = mT
        if mv is not None and m in terms and (v is None or mv < v):
            v = mv
    if T is not None and (v is None or v > T):
        v = T
    return v, T, D


def _wrap(node, func, *args):
    try:
        return func(*args)
    except DSLError:
        raise
    except (ArithmeticError, ValueError, KeyError) as err:
        message = err.args[0] if err.args else str(err)
        raise DSLError(f"{message} in '{to_text(node)}'") from err
