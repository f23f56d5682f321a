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

Evaluation converts a tree once, into one registry of its distinct leaves.
Each subtree built from ``+``, ``-``, ``*``, unary minus, division by a
nonzero constant and powers of monomials is a polynomial over leaves.
Calls, powers of q and ``subq`` nodes are leaves of their own: at the
window W, ``subq(e, k)`` evaluates e on its own at the window ceil(W/k)
and substitutes q -> q^k, which takes a value known through q^ceil(W/k)
to one known through at least q^W; a leaf inside it is not shared with
one outside.  Every other node is a *composite leaf* over the polynomials
of its operands, registered after their leaves: ``sqrt``, a division by a
non-constant, a negative or rational power, a power of a sum, and a
product of two factors that are not both single untouched monomials (nor
one of them a constant), since expanding those could shrink the
truncation or, for powers, blow up the size.  Each leaf is evaluated once
per call of ``evaluate``, in order, a composite from its operands' values,
and each polynomial goes to ``relations.eval_poly``, over variables for
only the leaves it uses.  The value is truncated where the node-by-node
arithmetic would truncate it, which a cancelled monomial still bounds, so
both give the same series.

A product or quotient of integer powers of ``eta``, ``geta``, ``pi`` and
``theta`` calls, times q powers and constants, is one *product leaf*
(times its constant): the calls' factor dicts merge into one, and a single
q-product forms the leaf (``constructors.eta_type_product``), with the
prefactors added, the sign law's signs multiplied and the window the
node-by-node product reaches; a single bare call is a one-factor product
leaf.  A leaf that is one ``theta`` call to a positive power, times a q
power, is a ``constructors.ThetaPower``, formed from the triple-product
sum at the same window.  A zero power is the constant 1, and a product of
q powers alone is a q power, or a constant where the powers cancel;
symbols, sums, ``sqrt`` and ``subq`` end a product leaf.  Every call of a
product leaf is checked where it appears, so an invalid one fails with the
same message, naming it, as in the node-by-node evaluation.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .constructors import (
    ThetaPower,
    _positive,
    bailey_specialization,
    eta_statement,
    eta_type_product,
    gen_eta_statement,
    gosper_symbols,
    lambert_L,
    lambert_L_odd,
    lambert_mod,
    pi_statement,
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
    """A rational constant."""

    value: Fraction


@dataclass(frozen=True)
class Q:
    """The power q^exponent."""

    exponent: Fraction


@dataclass(frozen=True)
class Call:
    """A call of a named function on its arguments."""

    name: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    """Unary minus."""

    node: object


@dataclass(frozen=True)
class Sqrt:
    """The square root of a series."""

    node: object


@dataclass(frozen=True)
class BinOp:
    """left op right, for op one of + - * /."""

    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    """A power with a rational exponent."""

    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Subq:
    """The substitution q -> q^power."""

    node: object
    power: int


# the callable names: their argument kinds ("i" integer, "n" name,
# "e" expression) and their builders, which take the order first; the
# eta-type calls have none, since each forms a product leaf, and subq
# parses to a Subq node instead of a Call
_CALLS = {
    "eta": ("i", None),
    "geta": ("ii", None),
    "pi": ("i", None),
    "L": ("i", lambda order, k: lambert_L(k, order)),
    "Lodd": ("i", lambda order, k: lambert_L_odd(k, order)),
    "Lmod": ("ii", lambda order, r, m: lambert_mod(r, m, order)),
    "theta": ("iiii", None),
    "bailey": ("ii", lambda order, i, m: bailey_specialization(i, m, order)),
    "symbol": ("n", lambda order, name: gosper_symbols(name, order)),
    "subq": ("ei", None),
}

#: the eta-type calls and their statements: a product of their integer powers,
#: a single call included, is evaluated as one q-product
_ETA_TYPE = {
    "eta": eta_statement,
    "geta": gen_eta_statement,
    "pi": pi_statement,
    "theta": theta_statement,
}


# -- tokenizer -----------------------------------------------------------------
#
# A token is its text, and the end of the input is the empty token.  Its kind
# follows from its first character: a digit starts an integer, a letter or
# "_" a name.  Positions are found again only for an error (_where), so a
# scan allocates nothing but the token strings.

_TOKEN = r"\d+|[A-Za-z_][A-Za-z_0-9]*|==|[-+*/^(),]"
_TOKEN_RE = re.compile(_TOKEN)
#: the longest prefix of a text made of tokens and blanks
_TOKENS_RE = re.compile(rf"(?:\s+|{_TOKEN})*")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _tokenize(text: str) -> list:
    """The tokens of ``text``, ending with the empty token."""
    end = _TOKENS_RE.match(text).end()
    if end < len(text):
        raise DSLError(f"unexpected character {text[end]!r}", *_line_col(text, end))
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _where(text: str, index: int) -> tuple:
    """The 1-based (line, column) of the token ``index`` of ``text``."""
    pos = len(text)
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == index:
            pos = m.start()
            break
    return _line_col(text, pos)


def _line_col(text: str, pos: int) -> tuple:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# -- parser --------------------------------------------------------------------

#: the constant folds of the binary operators
_FOLD = {"+": add, "-": sub, "*": mul, "/": truediv}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, at: int) -> DSLError:
        """A DSLError at the token with index ``at``."""
        return DSLError(message, *_where(self.text, at))

    def fail(self, expected: str):
        tok = self.peek()
        got = repr(tok) if tok else "end of input"
        raise self.error(f"expected {expected}, got {got}", self.i)

    def enter(self, at: int):
        # the parser recurses once per nesting level; bound it
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"expression nested more than {MAX_NESTING} levels deep", at
            )

    def expect(self, text: str, expected=None):
        if self.peek() != text:
            self.fail(expected or f"'{text}'")
        self.i += 1

    def expect_in_call(self, text: str, name: str, kinds: str):
        # the ',' or ')' of a call; the message is formed only on failure
        if self.peek() != text:
            arity = "%d argument%s" % (len(kinds), "s" if len(kinds) > 1 else "")
            self.fail(f"'{text}' ({name} takes {arity})")
        self.i += 1

    def integer(self, what="an integer") -> int:
        sign = 1
        if self.peek() == "-":
            self.i += 1
            sign = -1
        tok = self.peek()
        if not tok.isdecimal():
            self.fail(what)
        self.i += 1
        return sign * int(tok)

    # expr := term (("+"|"-") term)*
    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            at = self.i
            node = self._binop(self.next(), node, self.term(), at)
        return node

    # term := factor (("*"|"/") factor)*
    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            at = self.i
            node = self._binop(self.next(), node, self.factor(), at)
        return node

    # factor := atom ("^" exponent)?
    def factor(self):
        node = self.atom()
        if self.peek() != "^":
            return node
        at = self.i
        self.i += 1
        e = self.exponent()
        if isinstance(node, Q):
            return Q(node.exponent * e)
        if e.denominator == 1 and isinstance(node, Lit):
            try:
                return Lit(node.value ** int(e))
            except ZeroDivisionError:
                raise self.error("zero raised to a negative power", at)
        return Pow(node, e)

    # exponent := integer | "(" integer "/" integer ")"
    def exponent(self) -> Fraction:
        if self.peek() != "(":
            return Fraction(self.integer("an exponent"))
        self.i += 1
        num = self.integer("an exponent numerator")
        at = self.i
        self.expect("/", "'/' in a rational exponent")
        den = self.integer("an exponent denominator")
        if den == 0:
            raise self.error("zero denominator in exponent", at)
        self.expect(")")
        return Fraction(num, den)

    # atom := rational | "q" | call | "(" expr ")" | "-" factor | sqrt-call
    # (unary minus takes a whole factor: ^ binds tighter, so -q^2 = -(q^2))
    def atom(self):
        at = self.i
        tok = self.peek()
        if tok == "-":
            self.i += 1
            self.enter(at)
            node = self._neg(self.factor())
            self.depth -= 1
            return node
        if tok == "(":
            self.i += 1
            self.enter(at)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.isdecimal():
            self.i += 1
            return Lit(Fraction(int(tok)))
        if tok[:1] in _NAME_START:
            return self.name_atom()
        self.fail("a number, 'q', a call, '(' or '-'")

    def name_atom(self):
        at = self.i
        name = self.next()
        if name == "q":
            return Q(Fraction(1))
        if name == "sqrt":
            self.expect("(", "'(' after 'sqrt'")
            self.enter(at)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return Sqrt(node)
        if name not in _CALLS:
            raise self.error(f"unknown function {name!r}", at)
        kinds = _CALLS[name][0]
        self.expect("(", f"'(' after {name!r}")
        self.enter(at)
        args = []
        for k, kind in enumerate(kinds):
            if k:
                self.expect_in_call(",", name, kinds)
            if kind == "i":
                args.append(self.integer())
            elif kind == "n":
                if self.peek()[:1] not in _NAME_START:
                    self.fail("a symbol name")
                args.append(self.next())
            else:
                args.append(self.expr())
        self.expect_in_call(")", name, kinds)
        self.depth -= 1
        if name == "subq":
            node, power = args
            if power < 1:
                raise self.error("subq needs a positive substitution power", at)
            return Subq(node, power)
        return Call(name, tuple(args))

    # constant folding keeps rational literals as single atoms, so printing
    # and reparsing round-trips
    @staticmethod
    def _neg(node):
        if isinstance(node, Lit):
            return Lit(-node.value)
        return Neg(node)

    def _binop(self, op, left, right, at: int):
        if isinstance(left, Lit) and isinstance(right, Lit):
            if op == "/" and right.value == 0:
                raise self.error("division by zero in a constant", at)
            return Lit(_FOLD[op](left.value, right.value))
        return BinOp(op, left, right)


def parse(text: str):
    """Parse a single expression."""
    p = _Parser(text)
    node = p.expr()
    if p.peek():
        p.fail("end of input")
    return _bounded(node)


def parse_identity(text: str):
    """Parse "lhs == rhs"; returns the pair of expression trees."""
    p = _Parser(text)
    left = p.expr()
    if p.peek() != "==":
        p.fail("'=='")
    p.next()
    right = p.expr()
    if p.peek():
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
# A polynomial is a dict {monomial: coefficient}, where a monomial is a
# tuple of exponents indexed by leaf, without trailing zeros.  A monomial
# whose coefficient cancels stays in as a 0 entry, since its product still
# bounds the truncation (_truncation); a cancelled constant leaves the exact
# zero, and is dropped.  The arithmetic (_value, _multiplied) skips the 0
# entries.  A tree's leaves are keyed by structure in one registry, each
# after the leaves its spec uses.  A leaf's spec is None for a call, a q
# power, a product leaf or a subq, evaluated on its own, _CHECK for an
# eta-type call, which only enters product leaves and is only checked (its
# value is None), and the tuple of its operands' polynomials for a composite leaf,
# whose node tells _composite how to form its value from theirs.  A product
# is expanded only where the node-by-node product gets the same truncation
# as the expansion's monomials: one factor a constant, or both single
# monomials that no cancellation touched.

_CHECK = "check"


class _Product(NamedTuple):
    """The product leaf  q^qexp * prod call^r  over the pairs (call, r) of
    ``calls``, all eta-type calls.  A call whose exponents cancel stays in,
    since it still bounds the truncation.  A tuple, so that its ``==`` and
    hash as a registry key run in C."""

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


def evaluate(node, order: int) -> QSeries:
    """Evaluate a tree to a truncated series.

    Primitive constructors are expanded through the absolute order, named
    symbols get it as their relative window.  The tree is converted once,
    into a polynomial over one registry of its distinct leaves, and each
    leaf is evaluated once, in order: calls, q powers and product leaves on
    their own, ``subq(e, k)`` as e evaluated at the window ceil(order/k)
    with q -> q^k substituted, composite leaves from the values of their
    operands' polynomials, which ``relations.eval_poly`` forms, truncated
    where the node-by-node arithmetic would truncate them.  A product of integer
    powers of eta-type calls and q powers is one leaf, formed by a single
    q-product over the merged factor dict, and equal to the node-by-node
    product of its factors.  An exact operand of more than one term is cut
    at q^order before it is inverted, raised to a negative power or put
    under a square root, as a primitive leaf is cut.  Arithmetic failures
    are re-raised as DSLError tagged with the offending subexpression.
    """
    return _eval(node, _positive(int(order), "order"))


def _eval(node, order: int) -> QSeries:
    poly, leaves = _converted(node)
    values = []
    for leaf, (_, spec) in leaves:
        if spec is _CHECK:
            _wrap(leaf, _ETA_TYPE[leaf.name], *leaf.args)
            value = None
        elif spec is None:
            value = _leaf(leaf, order)
        else:
            value = _composite(leaf, [_value(p, values) for p in spec], order)
        values.append(value)
    return _value(poly, values)


def _leaf(node, order: int) -> QSeries:
    if isinstance(node, Q):
        return qpow(node.exponent)
    if isinstance(node, Call):
        return _wrap(node, _CALLS[node.name][1], order, *node.args)
    if isinstance(node, _Product):
        # its calls were checked by their _CHECK leaves before it
        (call, r), *rest = node.calls
        if call.name == "theta" and r > 0 and not rest:
            # theta's prefactor is 0, so its unit part is known modulo
            # q^order, as eta_type_product would know it
            return ThetaPower(*call.args, r, node.qexp).series(node.qexp + order)
        parts = [(_ETA_TYPE[call.name](*call.args), r) for call, r in node.calls]
        return eta_type_product(parts, order, node.qexp)
    if isinstance(node, Subq):
        # q -> q^k takes q^ceil(order/k) to at least q^order
        return _eval(node.node, -(-order // node.power)).subs_qpow(node.power)
    raise TypeError(f"not an expression node: {node!r}")


def _composite(node, operands: list, order: int) -> QSeries:
    """The value of a composite leaf from the values of its operands."""
    x = operands[0]
    if isinstance(node, Sqrt):
        return _wrap(node, _cut(x, order).sqrt)
    if isinstance(node, Pow):
        if node.exponent < 0:
            x = _cut(x, order)
        return _wrap(node, lambda: x**node.exponent)
    y = operands[1]
    if node.op == "*":
        return x * y
    if x.is_exact():
        y = _cut(y, order)
    return _wrap(node, lambda: x / y)


def _cut(s: QSeries, order: int) -> QSeries:
    # the inverse and square root of an exact series of more than one term
    # have no end, so such an operand is cut at q^order, as a primitive leaf is
    return s.truncate(order) if s.is_exact() and len(s.coeffs) > 1 else s


def _converted(node) -> tuple:
    """(polynomial, ((leaf, (index, spec)), ...)) of a tree: the polynomial
    over its leaves and the leaves in order of registration, each after the
    leaves its spec uses."""
    leaves: dict = {}
    poly = _poly(_convert(node, leaves), leaves)
    return poly, tuple(leaves.items())


def _product_calls(node):
    """{call: r} of a tree that converts to one product leaf with coefficient
    1 and no q power, {} for the constant 1, else None; a call whose exponents
    cancel, or that is raised to the power 0, has r = 0."""
    poly, leaves = _converted(node)
    calls = {leaf: 0 for leaf, (_, spec) in leaves if spec is _CHECK}
    rest = [(leaf, i) for leaf, (i, spec) in leaves if spec is not _CHECK]
    if not rest:
        return calls if poly == {(): 1} else None
    leaf, i = rest[0]
    m = (0,) * i + (1,)
    if rest[1:] or poly != {m: 1} or not isinstance(leaf, _Product) or leaf.qexp:
        return None
    return {**calls, **dict(leaf.calls)}


def _convert(node, leaves: dict):
    """The polynomial of a tree over the leaves it registers in ``leaves``
    (node -> (index, spec), each after its operands' leaves), or a _Pending
    product, which _poly makes a polynomial."""
    if isinstance(node, Lit):
        c = node.value
        if c.denominator == 1:
            c = c.numerator  # integral coefficients stay ints
        return {(): c} if c else {}
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
        return {m: -c for m, c in x.items()}
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            terms = dict(_poly(_convert(node.left, leaves), leaves))
            sign = 1 if node.op == "+" else -1
            for m, c in _poly(_convert(node.right, leaves), leaves).items():
                terms[m] = terms.get(m, 0) + sign * c
            if terms.get(()) == 0:
                del terms[()]  # a cancelled constant leaves an exact zero
            return terms
        if node.op == "/" and isinstance(node.right, Lit) and node.right.value:
            c = node.right.value
            x = _convert(node.left, leaves)
            if isinstance(x, _Pending):
                x.c /= c
                return x
            return {m: v / c for m, v in x.items()}
        a, b = _convert(node.left, leaves), _convert(node.right, leaves)
        fused = _fused(a, b, 1 if node.op == "*" else -1)
        if fused is not None:
            return fused
        a, b = _poly(a, leaves), _poly(b, leaves)
        if node.op == "*" and (
            _constant(a) or _constant(b) or (_monomial_only(a) and _monomial_only(b))
        ):
            # one side is a single monomial, so the products are distinct
            return {_mono(m, n): c * d for m, c in a.items() for n, d in b.items()}
        return _register(node, leaves, (a, b))
    if isinstance(node, Pow) and node.exponent.denominator == 1:
        k = int(node.exponent)
        x = _convert(node.base, leaves)
        if not k:
            return {(): 1}
        # a product stays one, raised, unless a zero one would be inverted
        pending = _as_pending(x)
        if pending is not None and (k > 0 or pending.c):
            return _raised(pending, k)
        x = _poly(x, leaves)
        if k > 0 and _monomial_only(x):
            return {tuple(e * k for e in m): c**k for m, c in x.items()}
        return _register(node, leaves, (x,))
    if isinstance(node, (Pow, Sqrt)):
        x = _convert(node.base if isinstance(node, Pow) else node.node, leaves)
        return _register(node, leaves, (_poly(x, leaves),))
    return _register(node, leaves, None)


def _fused(a, b, sign: int):
    """The _Pending a * b^sign when each operand is a _Pending or a constant
    (a nonzero one to divide by), else None."""
    if not (isinstance(a, _Pending) or _constant(a)) or not (
        isinstance(b, _Pending) or _constant(b)
    ):
        return None
    a, b = _as_pending(a), _as_pending(b)
    if sign < 0 and not b.c:
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
    return _Pending({}, 0, x.get((), 0)) if _constant(x) else None


def _raised(x: "_Pending", k: int) -> "_Pending":
    x.calls = {call: r * k for call, r in x.calls.items()}
    x.qexp *= k
    x.c **= k
    return x


def _poly(x, leaves: dict) -> dict:
    """x, or for a _Pending x the polynomial c * leaf: the leaf is a q power
    when x has no calls and a _Product otherwise, and the constant c stands
    alone when x has neither calls nor a q power."""
    if not isinstance(x, _Pending):
        return x
    c = x.c
    c = c.numerator if c.denominator == 1 else c
    if not (c and (x.calls or x.qexp)):
        return {(): c} if c else {}
    leaf = _Product(frozenset(x.calls.items()), x.qexp) if x.calls else Q(x.qexp)
    (m,) = _register(leaf, leaves, None)
    return {m: c}


def _constant(poly: dict) -> bool:
    return poly.keys() <= {()}


def _monomial_only(poly: dict) -> bool:
    # a single monomial (or the zero constant) that no cancellation touched
    return len(poly) <= 1 and all(poly.values())


def _register(node, leaves: dict, spec) -> dict:
    index, _ = leaves.setdefault(node, (len(leaves), spec))
    return {(0,) * index + (1,): 1}


def _mono(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b) :]


def _polynomial(node, names: dict) -> tuple:
    """The tree multiplied out over the variables of ``names`` (variable ->
    symbol name): the operands of a product of sums at the top, any other
    tree as one MultiPoly.  Monomials over symbol leaves are read off, only
    products and positive integer powers are multiplied out, and any other
    leaf is a ValueError naming it."""
    poly, leaves = _converted(node)
    parts = (poly,)
    if isinstance(node, BinOp) and node.op == "*" and leaves and leaves[-1][0] == node:
        parts, leaves = leaves[-1][1][1], leaves[:-1]
    variables = tuple(names)
    slots = {Call("symbol", (s,)): i for i, s in enumerate(names.values())}
    values = []  # per leaf: the index of its variable, or its MultiPoly
    for leaf, (_, spec) in leaves:
        if leaf in slots:
            value = slots[leaf]
        elif isinstance(leaf, BinOp) and leaf.op == "*":
            value = math.prod(_multiplied(p, values, variables) for p in spec)
        elif isinstance(leaf, Pow) and leaf.exponent.denominator == 1 and leaf.exponent > 0:
            value = _multiplied(spec[0], values, variables) ** int(leaf.exponent)
        else:
            symbols = ", ".join(names.values())
            raise ValueError(f"not a polynomial in {symbols}: '{to_text(leaf)}'")
        values.append(value)
    return tuple(_multiplied(p, values, variables) for p in parts)


def _multiplied(poly: dict, values: list, variables: tuple) -> MultiPoly:
    # a polynomial at the leaf values of _polynomial
    direct, composite = {}, []
    for m, c in poly.items():
        if not c:
            continue
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


def _value(poly: dict, values: list) -> QSeries:
    """The series of a polynomial at the leaf values, cut at the truncation
    its monomials' own products give."""
    # variables only for the leaves the nonzero monomials use, in registry
    # order: ``values`` holds every leaf registered so far, most of them
    # unused here
    width = max(map(len, poly), default=0)
    values = values[:width]
    pad = (0,) * width
    terms = {m + pad[len(m) :]: c for m, c in poly.items() if c}
    used = list(compress(range(width), map(any, zip(*terms))))
    if len(used) < width:
        terms = {tuple([m[i] for i in used]): c for m, c in terms.items()}
    names = tuple(f"x{i}" for i in used)
    result = eval_poly(
        MultiPoly._make(names, terms), {name: values[i] for name, i in zip(names, used)}
    )
    if not isinstance(result, QSeries):
        result = QSeries.constant(result)
    T, D = _truncation(poly, values)
    if T is not None and (result.T is None or result.T * D > T * result.D):
        result = result + QSeries.zero(T, D)
    return result


def _truncation(poly: dict, values: list) -> tuple:
    """(T, D): the least truncation index, on the grid 1/D, of the products
    of the monomials of a polynomial, cancelled ones included, at the leaf
    values; T is None when all of them are exact.  By QSeries's rules the
    valuations of a product add, its T is its valuation plus the least T - v
    of a truncated factor (v = T for one with no term known), and an exact
    zero factor makes it the exact zero."""
    D = math.lcm(*(s.D for s in values if s is not None))
    T = None
    for m in poly:
        v, window = 0, None
        for e, s in zip(m, values):
            if not e:
                continue
            if s.T is None and not s.coeffs:
                break  # an exact zero factor: the product is exact
            k = D // s.D
            v += e * s.v * k
            if s.T is not None and (window is None or (s.T - s.v) * k < window):
                window = (s.T - s.v) * k
        else:
            if window is not None and (T is None or v + window < T):
                T = v + window
    return T, D


def _wrap(node, func, *args):
    try:
        return func(*args)
    except DSLError:
        raise
    except (ArithmeticError, ValueError, KeyError) as err:
        message = err.args[0] if err.args else str(err)
        raise DSLError(f"{message} in '{to_text(node)}'") from err
