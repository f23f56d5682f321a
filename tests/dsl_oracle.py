"""Slow references for the DSL: the node-by-node evaluator and the
token-object tokenizer.

``evaluate`` is how ``qlambert.dsl.evaluate`` worked before it read polynomial
subtrees as polynomials: every node is evaluated on its own, a repeated
subtree as often as it appears, and ``+``, ``-``, ``*`` and ``^`` are series
operations in the order the tree gives them.  It shares the node types, the
call table and the printer with ``qlambert.dsl``, and none of its
evaluation: the eta-type calls, which ``qlambert.dsl`` forms as product
leaves, go to their own constructors here.  The differential tests compare
the two.

``tokenize`` is how ``qlambert.dsl`` tokenized before its tokens became bare
strings: one regex match per token or run of blanks, each token an object
carrying its kind, text, line and column.
"""

import re
from dataclasses import dataclass

from qlambert.constructors import eta, gen_eta, pi_q, theta_f
from qlambert.dsl import _CALLS, BinOp, Call, Lit, Neg, Pow, Q, Sqrt, Subq, to_text
from qlambert.errors import DSLError
from qlambert.series import QSeries, qpow

#: the builders of the eta-type calls, which take the order first
_ETA_TYPE = {
    "eta": lambda order, d: eta(d, order),
    "geta": lambda order, m, g: gen_eta(m, g, order),
    "pi": lambda order, k: pi_q(k, order),
    "theta": lambda order, sa, a, sb, b: theta_f(sa, a, sb, b, order),
}


def evaluate(node, order: int) -> QSeries:
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
        build = _ETA_TYPE.get(node.name) or _CALLS[node.name][1]
        return _wrap(node, build, order, *node.args)
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


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<EQ>==)"
    r"|(?P<OP>[-+*/^(),])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """The tokens of ``text``, ending with an END token; a character that
    starts no token is a DSLError at its line and column."""
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
            tokens.append(Token(kind, m.group(), line, pos - start + 1))
        else:
            line += m.group().count("\n")
            nl = text.rfind("\n", pos, m.end())
            if nl >= 0:
                start = nl + 1
        pos = m.end()
    tokens.append(Token("END", "", line, len(text) - start + 1))
    return tokens
