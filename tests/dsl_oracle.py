"""Slow references for the DSL: the node-by-node evaluator and the
token-object tokenizer.

``evaluate`` is how ``qlambert.dsl.evaluate`` worked before it read polynomial
subtrees as polynomials: every node is evaluated on its own, a repeated
subtree as often as it appears, and ``+``, ``-``, ``*`` and ``^`` are series
operations in the order the tree gives them.  An exact operand of more than
one term is cut at q^order before it is inverted, raised to a negative power
or put under a square root, as a constructor's series is.  It shares the
node types, the call table and the printer with ``qlambert.dsl``, and none
of its evaluation: the eta-type calls, which ``qlambert.dsl`` forms as
product leaves, go to their own constructors here.  The differential tests
compare the two.

``tokenize`` is how ``qlambert.dsl`` tokenized before its tokens became bare
strings: one regex match per token or run of blanks, each token an object
carrying its kind, text, line and column.

``quotient_orders`` is how ``qlambert ord-table`` read a quotient spec before
it went through the DSL's product leaves: its own walk of the parsed tree,
which takes products, quotients and integer powers of ``eta`` and ``geta``
calls and the constant 1, and sums each cusp order in a loop of its own,
one formula per family (``orders_oracle``).  The walk folds each ``geta``
index into 1..M/2 by its own arithmetic.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

import orders_oracle
from qlambert.constructors import EtaQuotient, GenEtaQuotient, eta, gen_eta, pi_q, theta_f
from qlambert.dsl import _CALLS, BinOp, Call, Lit, Neg, Pow, Q, Sqrt, Subq, parse, to_text
from qlambert.errors import DSLError
from qlambert.gamma0 import cusp_set
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
        return _wrap(node, _cut(_eval(node.node, order), order).sqrt)
    if isinstance(node, BinOp):
        left = _eval(node.left, order)
        right = _eval(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if left.T is None:
            right = _cut(right, order)
        return _wrap(node, lambda: left / right)
    if isinstance(node, Pow):
        base = _eval(node.base, order)
        e = node.exponent
        if e < 0:
            base = _cut(base, order)
        return _wrap(node, lambda: base ** (int(e) if e.denominator == 1 else e))
    if isinstance(node, Subq):
        return _eval(node.node, -(-order // node.power)).subs_qpow(node.power)
    raise TypeError(f"not an expression node: {node!r}")


def _cut(s: QSeries, order: int) -> QSeries:
    # an exact operand whose inverse or square root has no end: cut at q^order
    if s.T is None and len([c for c in s.coeffs if c]) > 1:
        return s.truncate(order)
    return s


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


def quotient_orders(text: str, level: int) -> list:
    """[(cusp, order)] over ``cusp_set(level)`` of a product of eta/geta
    powers, each order summed from ``orders_oracle``; anything else is a
    ValueError, and so is an eta(d) with d not dividing the level, which
    names the call."""
    node = parse(text)
    eta_exps: dict[int, int] = {}
    gen_exps: dict[int, dict[int, int]] = {}
    collect_factors(node, 1, eta_exps, gen_exps)
    pieces: list = []
    eta_exps = {d: r for d, r in eta_exps.items() if r}
    for d in sorted(eta_exps):
        if level % d:
            raise ValueError(f"eta argument {d} does not divide the level {level} in 'eta({d})'")
    if eta_exps:
        pieces.append(EtaQuotient(level, eta_exps))
    for m, bucket in sorted(gen_exps.items()):
        bucket = {g: r for g, r in bucket.items() if r}
        if bucket:
            pieces.append(GenEtaQuotient(m, bucket))
    rows = []
    for cusp, _width in cusp_set(level):
        total = sum((orders_oracle.order(piece, level, cusp) for piece in pieces), Fraction(0))
        rows.append((cusp, total))
    return rows


def collect_factors(node, power: int, eta_exps, gen_exps) -> None:
    """Flatten a product of eta/geta powers, each geta index folded into
    1..M/2; anything else is rejected, and so is a g divisible by M."""
    if isinstance(node, BinOp) and node.op in "*/":
        collect_factors(node.left, power, eta_exps, gen_exps)
        flip = -power if node.op == "/" else power
        collect_factors(node.right, flip, eta_exps, gen_exps)
        return
    if isinstance(node, Pow):
        if node.exponent.denominator != 1:
            raise ValueError("quotient spec powers must be integers")
        collect_factors(node.base, power * int(node.exponent), eta_exps, gen_exps)
        return
    if isinstance(node, Lit) and node.value == 1:
        return
    if isinstance(node, Call) and node.name == "eta":
        (d,) = node.args
        eta_exps[d] = eta_exps.get(d, 0) + power
        return
    if isinstance(node, Call) and node.name == "geta":
        # eta_{M,g} = eta_{M,M-g} = -eta_{M,g+M}: the orders see g mod M,
        # and g against M - g; the sign is no order's concern
        m, g = node.args
        if g % m == 0:
            raise ValueError(
                f"index g must not be divisible by the level in '{to_text(node)}'"
            )
        g = min(g % m, m - g % m)
        bucket = gen_exps.setdefault(m, {})
        bucket[g] = bucket.get(g, 0) + power
        return
    raise ValueError(
        "quotient spec must be a product of eta(d) and geta(M,g) powers"
    )
