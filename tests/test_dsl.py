"""Expression language: parsing, printing, folding, and evaluation."""

import re
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st

from qlambert import dsl
from qlambert.constructors import gosper_symbols, lambert_L, pi_q
from qlambert.cli import main
from qlambert.dsl import (
    MAX_NESTING,
    BinOp,
    Call,
    Lit,
    Neg,
    Pow,
    Q,
    Sqrt,
    Subq,
    evaluate,
    parse,
    parse_identity,
    to_text,
)
from qlambert.errors import DSLError
from qlambert.relations import MultiPoly, variables


# ----------------------------------------------------------------- parsing


def test_division_of_two_calls():
    node = parse("pi(1)/pi(7)")
    assert node == BinOp("/", Call("pi", (1,)), Call("pi", (7,)))


def test_rational_q_power():
    assert parse("q^(1/4)") == Q(Fraction(1, 4))
    assert parse("q^(-5/2)") == Q(Fraction(-5, 2))
    assert parse("q") == Q(Fraction(1))


def test_lambert_difference_shape():
    node = parse("Lodd(1) - 7*Lodd(7)")
    assert node == BinOp(
        "-",
        Call("Lodd", (1,)),
        BinOp("*", Lit(Fraction(7)), Call("Lodd", (7,))),
    )


def test_unary_minus_binds_below_power():
    # ^ binds tighter than unary minus, so -q^2 negates the square
    assert parse("-q^2") == Neg(Q(Fraction(2)))
    assert parse("(-q)^2") == Pow(Neg(Q(Fraction(1))), Fraction(2))


def test_left_associative_subtraction():
    node = parse("L(1) - L(2) - L(3)")
    left = BinOp("-", Call("L", (1,)), Call("L", (2,)))
    assert node == BinOp("-", left, Call("L", (3,)))


def test_term_precedence_over_sum():
    node = parse("1 - 2*L(1)")
    assert node == BinOp(
        "-", Lit(Fraction(1)), BinOp("*", Lit(Fraction(2)), Call("L", (1,)))
    )


def test_signed_call_arguments():
    assert parse("theta(-1,8,-1,6)") == Call("theta", (-1, 8, -1, 6))


def test_constant_folding():
    assert parse("2+3") == Lit(Fraction(5))
    assert parse("2^3") == Lit(Fraction(8))
    assert parse("-5") == Lit(Fraction(-5))
    assert parse("(3/6)") == Lit(Fraction(1, 2))
    assert parse("2^-2") == Lit(Fraction(1, 4))


def test_q_power_folding():
    assert parse("(q^(1/2))^3") == Q(Fraction(3, 2))
    assert parse("q^0") == Q(Fraction(0))
    # folding never crosses a product
    assert parse("q^2*q") == BinOp("*", Q(Fraction(2)), Q(Fraction(1)))


def test_sqrt_and_subq_shapes():
    assert parse("sqrt(pi(1))") == Sqrt(Call("pi", (1,)))
    assert parse("subq(L(1), 2)") == Subq(Call("L", (1,)), 2)


def test_parse_identity_splits_on_equality():
    left, right = parse_identity("L(1) == L(2)")
    assert left == Call("L", (1,))
    assert right == Call("L", (2,))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected a number, 'q', a call, '(' or '-', got end of input"),
        ("q^^2", "expected an exponent, got '^' (line 1, column 3)"),
        ("pi(1", "expected ')' (pi takes 1 argument), got end of input"),
        ("pi(1,2)", "expected ')' (pi takes 1 argument), got ','"),
        ("theta(1)", "expected ',' (theta takes 4 arguments), got ')'"),
        ("foo(1)", "unknown function 'foo' (line 1, column 1)"),
        ("symbol(3)", "expected a symbol name, got '3'"),
        ("q^(1/0)", "zero denominator in exponent"),
        ("(1/0)", "division by zero in a constant"),
        ("2 @ 3", "unexpected character '@' (line 1, column 3)"),
        ("subq(q, 0)", "subq needs a positive substitution power"),
        ("L(1) L(2)", "expected end of input"),
    ],
)
def test_syntax_errors(text, message):
    with pytest.raises(DSLError) as err:
        parse(text)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "wrap",
    [
        lambda n: "(" * n + "q" + ")" * n,
        lambda n: "-" * n + "q",
        lambda n: "sqrt(" * n + "q^2" + ")" * n,
        lambda n: "subq(" * n + "q" + ", 1)" * n,
        # a chain of n binary operators prints n parentheses deep
        lambda n: "q" + " + q" * n,
        lambda n: "q" + " * q^2" * n,
        # minus, its parentheses and the chain inside: 1 + 1 + (n - 2)
        lambda n: "-(q" + " - q" * (n - 2) + ")",
    ],
    ids=["parentheses", "minus", "sqrt", "subq", "sum-chain", "product-chain", "neg-sum"],
)
def test_nesting_limit(wrap):
    node = parse(wrap(MAX_NESTING))  # parses and evaluates at the limit
    evaluate(node, 5)
    assert parse(to_text(node)) == node
    with pytest.raises(DSLError, match="nested more than"):
        parse(wrap(MAX_NESTING + 1))


def test_too_deep_an_expression_is_a_usage_error(capsys):
    deep = "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1)
    assert main(["verify", "--expr", f"{deep} == q", "--order", "5"]) == 2
    assert "nested more than" in capsys.readouterr().err
    at_limit = "(" * MAX_NESTING + "q" + ")" * MAX_NESTING
    assert main(["verify", "--expr", f"{at_limit} == q", "--order", "5"]) == 0


def test_a_long_flat_chain_is_a_usage_error(capsys):
    n = MAX_NESTING + 1  # n terms, n - 1 operators: the chain is at the limit
    at_limit = " + ".join(["q"] * n)
    assert main(["verify", "--expr", f"{at_limit} == {n}*q", "--order", "5"]) == 0
    past = f"{at_limit} + q == {n + 1}*q"
    assert main(["verify", "--expr", past, "--order", "5"]) == 2
    assert "nested more than" in capsys.readouterr().err


def test_identity_needs_the_separator():
    with pytest.raises(DSLError, match="expected '=='"):
        parse_identity("L(1)")
    with pytest.raises(DSLError, match="expected end of input"):
        parse_identity("L(1) == L(2) == L(3)")


# ---------------------------------------------------------------- printing


def test_print_spot_checks():
    assert to_text(parse("q^(-5/2)")) == "q^(-5/2)"
    assert to_text(parse("pi(1)/pi(7)")) == "(pi(1) / pi(7))"
    assert to_text(parse("-q^2")) == "-q^2"
    assert to_text(parse("theta(-1,8,-1,6)")) == "theta(-1, 8, -1, 6)"
    assert to_text(parse("(1/24)")) == "(1/24)"
    assert to_text(parse("---q")) == "---q"  # one nesting level per minus
    assert to_text(parse("-(q + 1)")) == "-((q + 1))"


_SYMBOLS = st.sampled_from(
    ["z", "g", "t", "f", "w", "H", "h1", "h2", "f0", "f1", "g1", "g2", "g3"]
)
_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)
_EXPONENTS = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=2, max_value=9),
    ),
)

_LEAVES = st.one_of(
    st.builds(Lit, _FRACTIONS),
    st.builds(Q, _FRACTIONS),
    st.builds(lambda d: Call("eta", (d,)), st.integers(min_value=1, max_value=30)),
    st.builds(
        lambda m, g: Call("geta", (m, g)),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=15),
    ),
    st.builds(lambda k: Call("pi", (k,)), st.integers(min_value=1, max_value=9)),
    st.builds(lambda k: Call("L", (k,)), st.integers(min_value=1, max_value=9)),
    st.builds(lambda n: Call("symbol", (n,)), _SYMBOLS),
    st.builds(
        lambda a, b, c, d: Call("theta", (a, b, c, d)),
        *(st.integers(min_value=-9, max_value=9) for _ in range(4)),
    ),
)


_FOLD = {"+": add, "-": sub, "*": mul, "/": truediv}


def _binop(op, left, right):
    # the parser folds arithmetic on two literals, and refuses a division
    # by the literal 0
    if isinstance(left, Lit) and isinstance(right, Lit):
        if op == "/" and not right.value:
            return left
        return Lit(_FOLD[op](left.value, right.value))
    return BinOp(op, left, right)


def _neg(node):
    # the parser folds the negation of a literal
    return Lit(-node.value) if isinstance(node, Lit) else Neg(node)


def _power(base, e):
    # the parser folds a power of q into a power of q, and an integer power
    # of a literal into a literal, here the base itself
    if isinstance(base, Q):
        return Q(base.exponent * e)
    if isinstance(base, Lit) and e.denominator == 1:
        return base
    return Pow(base, e)


def _extend(children):
    # parser output only: each shape the parser folds is drawn as the node it
    # folds into, rather than filtered out (a filter on the recursive children
    # makes hypothesis record the whole nested strategy on each retry)
    binops = st.builds(_binop, st.sampled_from("+-*/"), children, children)
    pows = st.builds(_power, children, _EXPONENTS)
    sqrts = children.map(Sqrt)
    subqs = st.builds(Subq, children, st.integers(min_value=1, max_value=5))
    return st.one_of(binops, children.map(_neg), pows, sqrts, subqs)


@settings(max_examples=200)
@given(st.recursive(_LEAVES, _extend, max_leaves=20))
def test_print_parse_round_trip(node):
    assert parse(to_text(node)) == node


class _DepthRecorder(dsl._Parser):
    deepest = 0

    def enter(self, tok):
        super().enter(tok)
        self.deepest = max(self.deepest, self.depth)


@settings(max_examples=200)
@given(st.recursive(_LEAVES, _extend, max_leaves=20))
def test_nesting_is_the_depth_of_the_printed_text(node):
    parser = _DepthRecorder(to_text(node))
    parser.expr()
    assert parser.deepest == dsl._nesting(node)


# -------------------------------------------------------------- evaluation


def test_literal_evaluates_exactly():
    series = evaluate(parse("(1/24)"), 5)
    assert series.is_exact()
    assert series.coefficient(0) == Fraction(1, 24)


def test_call_quotient_matches_constructors():
    got = evaluate(parse("pi(1)/pi(7)"), 20)
    want = pi_q(1, 20) / pi_q(7, 20)
    assert (got - want).is_zero()


def test_symbol_matches_builder():
    got = evaluate(parse("symbol(z)"), 12)
    assert (got - gosper_symbols("z", 12)).is_zero()


def test_calls_reach_the_constructors_through_module_globals(monkeypatch):
    # a wrapper bound over a dsl global after import, as a tracer binds
    # one, sees every call that evaluation makes to that constructor; the
    # eta-type calls form product leaves through the quotient classes'
    # ``series`` method instead
    names = (
        "lambert_L",
        "lambert_L_odd",
        "lambert_mod",
        "bailey_specialization",
        "gosper_symbols",
    )
    seen = []
    for name in names:

        def wrapped(*args, _name=name, _original=getattr(dsl, name)):
            seen.append(_name)
            return _original(*args)

        monkeypatch.setattr(dsl, name, wrapped)
    evaluate(
        parse(
            "eta(1) + geta(14, 1) + pi(1) + L(1) + Lodd(1) + Lmod(1, 3)"
            " + theta(1, 1, 1, 2) + bailey(1, 4) + symbol(g)"
        ),
        5,
    )
    assert sorted(seen) == sorted(names)


def test_subq_rescales_the_grid():
    got = evaluate(parse("subq(L(1), 2)"), 30)
    want = lambert_L(1, 30).subs_qpow(2)
    assert (got - want).is_zero()


def _subq_reference(inner: str, k: int, order: int):
    # the inner expression at the full window, substituted and cut there
    return evaluate(parse(inner), order).subs_qpow(k).truncate(order)


@pytest.mark.parametrize(
    "inner",
    [
        "theta(1,1,1,1)^4",
        "1 + 8*L(1) - 32*L(4)",
        "eta(1)^2/eta(2)",
        "geta(11,3) + L(2)*L(3)",
        "sqrt(1 + q)",
        "subq(eta(1), 2)",
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("order", [7, 40, 61])
def test_subq_evaluates_its_operand_at_its_own_window(inner, k, order):
    got = evaluate(parse(f"subq({inner}, {k})"), order)
    own = evaluate(parse(inner), -(-order // k)).subs_qpow(k)
    assert (got.v, got.D, got.T, got.L, got.coeffs) == (own.v, own.D, own.T, own.L, own.coeffs)
    want = _subq_reference(inner, k, order)
    assert got.truncation_exponent() >= order
    assert want.truncation_exponent() == order
    assert (got - want).is_zero()


@pytest.mark.parametrize("order", range(2, 41, 2))
def test_subq_of_l2_by_2_is_l4(order):
    got, want = evaluate(parse("subq(L(2), 2)"), order), evaluate(parse("L(4)"), order)
    assert (got.v, got.D, got.S, got.T, got.L, got.coeffs) == (
        want.v,
        want.D,
        want.S,
        want.T,
        want.L,
        want.coeffs,
    )


def test_square_root_under_subq_sees_the_window_l4_sees():
    # subq(L(2), 2) is known through q^4 at order 4, as L(4) is, so the
    # square of either is zero through its truncation
    message = "series is zero through its truncation; square root undetermined"
    for text in ("sqrt(subq(L(2),2)^2)", "sqrt(L(4)^2)"):
        with pytest.raises(DSLError, match=re.escape(message)):
            evaluate(parse(text), 4)


def test_numeric_power_of_q():
    series = evaluate(parse("q^(-5/2)*q^(5/2)"), 6)
    assert series.coefficient(0) == 1
    assert series.valuation() == 0


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        evaluate(parse("L(1)"), 0)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "sqrt(2 + q)",
            "no rational square root: leading coefficient 2 is not the square "
            "of a rational in 'sqrt((2 + q))'",
        ),
        ("sqrt(-symbol(z))", "leading coefficient -1 is negative"),
        (
            "1/(symbol(z) - symbol(z))",
            "cannot invert a series that is zero through its truncation "
            "in '(1 / (symbol(z) - symbol(z)))'",
        ),
        ("symbol(nope)", "in 'symbol(nope)'"),
    ],
)
def test_evaluation_errors_name_the_subexpression(text, message):
    with pytest.raises(DSLError) as err:
        evaluate(parse(text), 10)
    assert message in str(err.value)


def test_sqrt_of_odd_valuation_refines_the_grid():
    series = evaluate(parse("sqrt(symbol(z))"), 10)
    assert series.valuation() == Fraction(-5, 4)
    assert (series * series - gosper_symbols("z", 10)).is_zero()


# -------------------------------------------------- conversion to MultiPoly

_ZFG = {"Z": "z", "F": "f", "G": "g"}
Z, F, G = variables("Z", "F", "G")


@st.composite
def _zfg_polys(draw):
    coeffs = {}
    for _ in range(draw(st.integers(0, 8))):
        mono = tuple(draw(st.integers(0, 5)) for _ in range(3))
        coeffs[mono] = draw(_FRACTIONS)
    return MultiPoly(("Z", "F", "G"), coeffs)


def _dsl_text(poly) -> str:
    terms = []
    for mono, c in poly.coeffs.items():
        factors = [f"({c.numerator}/{c.denominator})"]
        factors += [f"symbol({s})^{e}" for s, e in zip("zfg", mono) if e]
        terms.append("*".join(factors))
    return " + ".join(terms) or "0"


@settings(max_examples=100)
@given(_zfg_polys())
def test_polynomial_round_trip(poly):
    assert dsl._polynomial(parse(_dsl_text(poly)), _ZFG) == (poly,)


def test_polynomial_multiplies_out_composite_leaves():
    (power,) = dsl._polynomial(parse("(symbol(f) - 4)^3*symbol(g)"), _ZFG)
    assert power == (F - 4) ** 3 * G and power.variables == ("Z", "F", "G")
    inner = parse("2*(symbol(f) - 4)*(symbol(g)^2 + 1) - symbol(z)")
    assert dsl._polynomial(inner, _ZFG) == (2 * (F - 4) * (G**2 + 1) - Z,)


def test_polynomial_returns_the_factors_of_a_top_level_product():
    node = parse("(symbol(f) + 2*symbol(g))*(symbol(g)^2 - 3*symbol(f))")
    assert dsl._polynomial(node, _ZFG) == (F + 2 * G, G**2 - 3 * F)
    cubic, cofactor = dsl._polynomial(node, {"F": "f", "G": "g"})
    assert cubic.variables == cofactor.variables == ("F", "G")


@pytest.mark.parametrize(
    "text, leaf",
    [
        ("symbol(z) + pi(1)", "pi(1)"),
        ("q*symbol(g)", "q"),
        ("sqrt(symbol(g)) - 1", "sqrt(symbol(g))"),
        ("subq(symbol(g), 2)", "subq(symbol(g), 2)"),
        ("symbol(t)^2", "symbol(t)"),
        ("1/symbol(g)", "(1 / symbol(g))"),
        ("symbol(g)^(1/2)", "symbol(g)^(1/2)"),
    ],
)
def test_polynomial_rejects_other_leaves(text, leaf):
    with pytest.raises(ValueError, match=re.escape(f"not a polynomial in z, f, g: '{leaf}'")):
        dsl._polynomial(parse(text), _ZFG)
