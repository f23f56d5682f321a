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
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .constructors import (
    bailey_specialization,
    eta,
    gen_eta,
    gosper_symbols,
    lambert_L,
    lambert_L_odd,
    lambert_mod,
    pi_q,
    theta_f,
)
from .errors import DSLError
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


def evaluate(node, order: int) -> QSeries:
    """Evaluate a tree to a truncated series.

    Primitive constructors are expanded through the absolute order, named
    symbols get it as their relative window.  Arithmetic failures are
    re-raised as DSLError tagged with the offending subexpression.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _eval(node, order)


def _eval(node, order: int) -> QSeries:
    if isinstance(node, Lit):
        return QSeries.constant(node.value)
    if isinstance(node, Q):
        return qpow(node.exponent)
    if isinstance(node, Call):
        return _wrap(node, _CALLS[node.name][1], order, *node.args)
    if isinstance(node, Neg):
        return -_eval(node.node, order)
    if isinstance(node, Sqrt):
        return _wrap(node, _eval(node.node, order).sqrt)
    if isinstance(node, BinOp):
        left = _eval(node.left, order)
        right = _eval(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return _wrap(node, lambda: left / right)
    if isinstance(node, Pow):
        base = _eval(node.base, order)
        e = node.exponent
        return _wrap(node, lambda: base ** (int(e) if e.denominator == 1 else e))
    if isinstance(node, Subq):
        return _eval(node.node, order).subs_qpow(node.power)
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, func, *args):
    try:
        return func(*args)
    except DSLError:
        raise
    except (ArithmeticError, ValueError, KeyError) as err:
        message = err.args[0] if err.args else str(err)
        raise DSLError(f"{message} in '{to_text(node)}'") from err
