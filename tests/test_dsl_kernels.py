"""Differential tests: the polynomial evaluator of the DSL against the
node-by-node oracle.

Every value must equal ``dsl_oracle``'s: the same grid index, grid
denominator, truncation and coefficients, which implies agreement through
the smaller truncation; and every truncation must be sound, that is agree
with the oracle run at a wider window.  Every failure must raise the same
exception type with the same message.  Products of eta-type calls get a
strategy of their own, since the evaluator forms each one as a single
q-product.  The shipped catalog is checked the same way at the windows
``verify`` evaluates at.  The string tokenizer is checked against the
oracle's token objects, kinds, lines and columns included.
"""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle as oracle
from qlambert import catalog, constructors, dsl
from qlambert.constructors import gosper_symbols
from qlambert.dsl import BinOp, Call, Lit, Neg, Pow, Q, Sqrt, Subq, evaluate, parse
from qlambert.errors import DSLError
from qlambert.relations import eval_poly
from qlambert.series import QSeries

_signs = st.sampled_from([1, -1])

# eta-type calls; geta indices run past the level, below 0 and onto its
# multiples, so both sign laws and the rejected indices occur
_eta_calls = st.one_of(
    st.builds(lambda d: Call("eta", (d,)), st.integers(1, 4)),
    st.builds(lambda k: Call("pi", (k,)), st.integers(1, 3)),
    st.builds(
        lambda m, g: Call("geta", (m, g)),
        st.sampled_from([5, 7, 11]),
        st.integers(-12, 24),
    ),
    st.builds(
        lambda sa, a, sb, b: Call("theta", (sa, a, sb, b)),
        _signs,
        st.integers(1, 3),
        _signs,
        st.integers(1, 3),
    ),
)
_qpowers = st.builds(Q, st.sampled_from([F(1), F(2), F(-1), F(1, 2)]))

_leaves = st.one_of(
    st.builds(lambda n: Call("symbol", (n,)), st.sampled_from(["z", "g", "f", "g2"])),
    _eta_calls,
    st.builds(lambda k: Call("L", (k,)), st.integers(1, 3)),
    _qpowers,
    st.builds(Lit, st.sampled_from([F(0), F(1), F(-2), F(3, 2)])),
)


def _extend(children):
    binops = st.builds(BinOp, st.sampled_from("+-*/"), children, children)
    # the same subtree twice: cancellations, repeated leaves
    repeated = st.builds(
        lambda op, a: BinOp(op, a, a), st.sampled_from("+-*/"), children
    )
    commuted = st.builds(
        lambda a, b: BinOp("-", BinOp("*", a, b), BinOp("*", b, a)), children, children
    )
    exponents = st.sampled_from([F(0), F(1), F(2), F(3), F(-1), F(1, 2), F(-3, 2)])
    pows = st.builds(Pow, children, exponents)
    squares = children.map(lambda c: Sqrt(BinOp("*", c, c)))
    sqrts = st.one_of(children.map(Sqrt), squares)
    subqs = st.builds(Subq, children, st.integers(1, 3))
    return st.one_of(binops, repeated, commuted, children.map(Neg), pows, sqrts, subqs)


trees = st.recursive(_leaves, _extend, max_leaves=8)


def _products_of(children):
    quotients = st.builds(BinOp, st.sampled_from("*/"), children, children)
    powers = st.builds(Pow, children, st.integers(-3, 3).map(F))
    return st.one_of(quotients, powers)


# products and quotients of integer powers of eta-type calls and q powers
products = st.recursive(st.one_of(_eta_calls, _qpowers), _products_of, max_leaves=6)


def outcome(evaluate_fn, node, order):
    try:
        return evaluate_fn(node, order)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def state(s):
    return s.v, s.D, s.T, s.L, s.coeffs


def agrees_with_the_oracle(node, order):
    new = outcome(evaluate, node, order)
    old = outcome(oracle.evaluate, node, order)
    if isinstance(new, tuple) or isinstance(old, tuple):
        assert new == old
        return
    # the difference of two honest series is zero through the smaller truncation
    assert (new - old).is_zero()
    assert state(new) == state(old)
    wide = outcome(oracle.evaluate, node, order + 10)
    if not isinstance(wide, tuple):
        assert (new - wide).is_zero()


@settings(max_examples=150)
@given(trees, st.integers(4, 12))
def test_evaluation_agrees_with_the_oracle(node, order):
    agrees_with_the_oracle(node, order)


@settings(max_examples=150)
@given(products, st.integers(1, 40))
def test_products_of_calls_agree_with_the_oracle(node, order):
    agrees_with_the_oracle(node, order)


def _poled(sides):
    # times symbol(t)^k, a pole of order up to 30 at infinity: the products
    # above it eat more of the window than verify's default margin of 16
    return st.builds(
        lambda k, x: BinOp("*", Pow(Call("symbol", ("t",)), F(k)), x),
        st.integers(0, 6),
        sides,
    )


# trees at the orders of their differential above, since a square root on a
# fine grid grows costly with the window; products at orders 1-40
_identities = st.one_of(
    st.tuples(_poled(trees), _poled(trees), st.integers(1, 12)),
    st.tuples(_poled(products), _poled(products), st.integers(1, 40)),
)


@settings(max_examples=150)
@given(_identities)
def test_verify_widens_the_window_at_most_once(identity):
    # one widening by the evaluated shortfall covers the demanded truncation,
    # whether the sides cancel (X == X) or not (X == Y)
    x, y, truncation = identity
    calls = []
    real = dsl.evaluate

    def recording(node, order):
        # the identity's sides, not the symbol texts their symbols are built from
        if node is x or node is y:
            calls.append(order)
        return real(node, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "evaluate", recording)
        for left, right in ((x, x), (x, y)):
            calls.clear()
            report = catalog.verify(catalog.IdentityRecord("xy", left, right, truncation))
            assert "window kept collapsing" not in report.detail
            # both sides at order + 16, then perhaps both at one wider window;
            # an evaluation error may end a pass early
            windows = sorted(set(calls))
            assert windows[0] == truncation + 16 and len(windows) <= 2
            assert len(calls) == 2 * len(windows) or (
                report.status == "error" and len(calls) < 2 * len(windows)
            )


@pytest.mark.parametrize("name", sorted(catalog.load_catalog()))
def test_catalog_sides_match_the_oracle_exactly(name, monkeypatch):
    record = catalog.get_identity(name)
    windows = {record.truncation + 16}
    real = dsl.evaluate

    def recording(node, order):
        if node is record.left or node is record.right:
            windows.add(order)
        return real(node, order)

    monkeypatch.setattr(dsl, "evaluate", recording)
    assert catalog.verify(record).verified
    for window in sorted(windows):
        for side in (record.left, record.right):
            assert state(real(side, window)) == state(oracle.evaluate(side, window))


def test_a_power_of_a_sum_is_a_leaf_not_an_expansion():
    terms, leaves = dsl._converted(parse("(symbol(f) - 4)^3*symbol(g)"))
    assert [leaf for leaf, _ in leaves] == [
        parse("symbol(f)"),
        parse("(symbol(f) - 4)^3"),
        parse("symbol(g)"),
    ]
    assert terms == {(0, 1, 1): 1}
    # its spec is its one operand's polynomial; the exponent stays in the node
    (base,) = leaves[1][1][1]
    assert base == {(1,): 1, (): -4}
    terms, leaves = dsl._converted(parse("(1 + q)^1000"))
    assert len(leaves) == 2 and terms == {(0, 1): 1}


def test_a_product_of_two_sums_stays_a_product():
    terms, leaves = dsl._converted(catalog.get_identity("elim-K").left)
    assert [leaf for leaf, _ in leaves][:2] == [parse("symbol(f)"), parse("symbol(g)")]
    assert len(leaves) == 3 and terms == {(0, 0, 1): 1}
    cubic, cofactor = leaves[2][1][1]
    assert (len(cubic), len(cofactor)) == (14, 45)


def test_each_distinct_leaf_is_evaluated_once(monkeypatch):
    calls = []
    real = dsl.gosper_symbols

    def counting(name, order):
        calls.append(name)
        return real(name, order)

    monkeypatch.setattr(dsl, "gosper_symbols", counting)
    text = "symbol(z)^2 + 3*symbol(z) - symbol(z)*symbol(g) + sqrt(symbol(z)^2)"
    value = evaluate(parse(text), 10)
    assert sorted(calls) == ["g", "z"]
    assert (value - oracle.evaluate(parse(text), 10)).is_zero()


def test_a_cancelled_monomial_still_bounds_the_truncation():
    value = evaluate(parse("symbol(z) - symbol(z)"), 10)
    assert value.is_zero() and not value.is_exact()
    assert value.truncation_exponent() == gosper_symbols("z", 10).truncation_exponent()
    node = parse("symbol(g)*(symbol(z) - symbol(z)) + 1")
    assert state(evaluate(node, 10)) == state(oracle.evaluate(node, 10))


def test_a_cancelled_monomial_stays_and_a_cancelled_constant_goes():
    terms, leaves = dsl._converted(parse("symbol(z) - symbol(z)"))
    assert [leaf for leaf, _ in leaves] == [parse("symbol(z)")]
    assert terms == {(1,): 0}
    terms, leaves = dsl._converted(parse("1 + q - 1 - q"))
    assert [leaf for leaf, _ in leaves] == [Q(F(1))]
    assert terms == {(1,): 0}


def _counting(monkeypatch, counts):
    def wrap(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("__mul__", "__rmul__", "invert", "__pow__"):
        monkeypatch.setattr(QSeries, name, wrap(name, getattr(QSeries, name)))
    real = constructors._qproduct
    monkeypatch.setattr(constructors, "_qproduct", wrap("_qproduct", real))


@pytest.mark.parametrize(
    "text",
    [
        "geta(11,1)*geta(11,2)*geta(11,3)*geta(11,4)*geta(11,5)",
        "eta(2)^5/(eta(1)^2*eta(4)^2)",
        "theta(1,1,1,1)^4",
    ],
)
def test_a_product_of_calls_is_one_q_product(monkeypatch, text):
    counts = Counter()
    _counting(monkeypatch, counts)
    node = parse(text)
    value = evaluate(node, 120)
    assert counts == {"_qproduct": 1}
    monkeypatch.undo()
    assert state(value) == state(oracle.evaluate(node, 120))


@pytest.mark.parametrize(
    "text",
    [
        "2*eta(1)*eta(2)/3",
        "-eta(1)/((3/2)*geta(7,9))",
        "(q^2*pi(1)/2)^-2*theta(1,1,-1,2)",
        "0*eta(1)*eta(2)",
        "eta(1)*eta(2)/(0*eta(3))",
    ],
)
def test_constants_ride_along_with_a_product_leaf(text):
    node = parse(text)
    terms, leaves = dsl._converted(node)
    assert len(terms) <= 1
    agrees_with_the_oracle(node, 12)


def test_a_division_that_does_not_fuse_is_one_leaf():
    # the division is one composite leaf over its operands' polynomials,
    # and the eta calls on either side stay one-factor product leaves
    node = parse("(L(1) + 1)*eta(2)/eta(3)")
    terms, leaves = dsl._converted(node)
    eta2, eta3 = parse("eta(2)"), parse("eta(3)")
    assert [leaf for leaf, _ in leaves] == [
        parse("L(1)"),
        eta2,
        dsl._Product(frozenset({(eta2, 1)}), F(0)),
        node.left,
        eta3,
        dsl._Product(frozenset({(eta3, 1)}), F(0)),
        node,
    ]
    assert [spec for _, (_, spec) in leaves][1::3] == [dsl._CHECK, dsl._CHECK]
    assert leaves[-1][1][1] == ({(0, 0, 0, 1): 1}, {(0, 0, 0, 0, 0, 1): 1})
    assert terms == {(0,) * 6 + (1,): 1}
    agrees_with_the_oracle(node, 12)


@pytest.mark.parametrize(
    "text", ["eta(1)*eta(2) + (eta(1) + 1)/(eta(2) + 2)", "eta(1)*eta(2) + (eta(1) + 1)^-1"]
)
def test_an_unfused_division_leaves_earlier_calls_as_they_were(text):
    # its operands register a product leaf of eta(1) after the fused
    # eta(1)*eta(2), and the calls stay _CHECK leaves
    node = parse(text)
    leaves = dsl._converted(node)[1]
    specs = {leaf: spec for leaf, (_, spec) in leaves}
    eta1, eta2 = parse("eta(1)"), parse("eta(2)")
    assert specs[eta1] == specs[eta2] == dsl._CHECK
    fused = dsl._Product(frozenset({(eta1, 1), (eta2, 1)}), F(0))
    alone = dsl._Product(frozenset({(eta1, 1)}), F(0))
    assert [leaf for leaf, _ in leaves][2:4] == [fused, alone]
    assert leaves[-1][0] == node.right
    assert specs[node.right][0] == {(0, 0, 0, 1): 1, (): 1}
    assert len(specs) == (6 if isinstance(node.right, BinOp) else 5)
    agrees_with_the_oracle(node, 12)


@pytest.mark.parametrize("name", ["gosper-1.3", "gosper-1.4", "gosper-1.6", "eq-4.6"])
def test_each_evaluation_converts_its_tree_once(name, monkeypatch):
    # square roots and divisions convert into the tree's one registry
    record = catalog.get_identity(name)
    converted = []
    real = dsl._converted

    def recording(node):
        converted.append(node)
        return real(node)

    monkeypatch.setattr(dsl, "_converted", recording)
    for side in (record.left, record.right):
        converted.clear()
        evaluate(side, record.truncation + 16)
        assert converted == [side]


@settings(max_examples=150)
@given(st.one_of(trees, products))
def test_composite_operands_use_only_earlier_leaves(node):
    poly, leaves = dsl._converted(node)
    assert [index for _, (index, _) in leaves] == list(range(len(leaves)))
    # a monomial has no trailing zero exponents, so its length bounds its leaves
    for _, (index, spec) in leaves:
        if isinstance(spec, tuple):
            assert spec and all(isinstance(p, dict) for p in spec)
            assert all(len(m) <= index for p in spec for m in p)
    assert all(len(m) <= len(leaves) for m in poly)


def test_each_polynomial_names_only_the_leaves_it_uses(monkeypatch):
    # the square root's operand uses the third leaf alone: one variable, not
    # one per leaf registered before it; the sum names all four of its own
    handed = []

    def spy(poly, assignment):
        handed.append(poly)
        return eval_poly(poly, assignment)

    monkeypatch.setattr(dsl, "eval_poly", spy)
    text = "L(1) + L(2) + L(3) + sqrt(L(3) + 1)"
    got = evaluate(parse(text), 12)
    assert [p.variables for p in handed] == [("x2",), ("x0", "x1", "x2", "x3")]
    assert state(got) == state(oracle.evaluate(parse(text), 12))
    # over the shipped catalog, every variable handed over is used
    handed.clear()
    for name in sorted(catalog.load_catalog()):
        catalog.verify(name)
    assert handed
    for p in handed:
        assert all(any(m[i] for m in p.coeffs) for i in range(len(p.variables)))


def test_a_product_leaf_goes_through_the_quotient_series_method(monkeypatch):
    # a wrapper set where the quotient classes hold ``series``, as a tracer
    # sets one, sees every product leaf
    seen = []
    original = vars(constructors.EtaQuotient)["series"]

    def wrapped(self, order):
        seen.append(type(self).__name__)
        return original(self, order)

    for cls in (
        constructors.EtaQuotient,
        constructors.GenEtaQuotient,
        constructors.EtaTypeProduct,
        constructors.ThetaPower,
    ):
        assert vars(cls)["series"] is original
        monkeypatch.setattr(cls, "series", wrapped)
    text = "pi(1)^2/pi(2) + geta(11,1)*geta(11,2) + eta(1) + theta(1,1,1,2)^2"
    evaluate(parse(text), 20)
    assert seen == ["EtaTypeProduct", "EtaTypeProduct", "EtaTypeProduct", "ThetaPower"]


def test_bare_calls_and_zero_powers_stay_as_they_are():
    # a bare call is a one-factor product leaf next to its _CHECK leaf
    for text in ("eta(1)", "geta(11,12)"):
        call = parse(text)
        terms, leaves = dsl._converted(call)
        assert leaves == (
            (call, (0, dsl._CHECK)),
            (dsl._Product(frozenset({(call, 1)}), F(0)), (1, None)),
        )
        assert terms == {(0, 1): 1}
    # a zero power leaves its call only checked
    terms, leaves = dsl._converted(parse("eta(1)^0*eta(2)"))
    eta2 = parse("eta(2)")
    assert [leaf for leaf, _ in leaves] == [
        parse("eta(1)"),
        eta2,
        dsl._Product(frozenset({(eta2, 1)}), F(0)),
    ]
    assert [spec for _, (_, spec) in leaves] == [dsl._CHECK, dsl._CHECK, None]
    assert terms == {(0, 0, 1): 1}
    terms, leaves = dsl._converted(parse("q^2*q/q^(1/2)"))
    assert [leaf for leaf, _ in leaves] == [Q(F(5, 2))] and terms == {(1,): 1}


@pytest.mark.parametrize(
    "text, message",
    [
        ("eta(0)/eta(1)", "eta argument must be a positive integer in 'eta(0)'"),
        (
            "geta(11,1)*geta(11,22)",
            "index g must not be divisible by the level in 'geta(11, 22)'",
        ),
        # the product leaf is formed after L(0), but its calls are checked first
        (
            "eta(1)*geta(11,22)*(L(0) + 1)",
            "index g must not be divisible by the level in 'geta(11, 22)'",
        ),
        # L and Lodd check their own argument; only Lmod takes a modulus
        ("L(0)", "argument must be a positive integer in 'L(0)'"),
        ("Lodd(-1)", "argument must be a positive integer in 'Lodd(-1)'"),
        ("Lmod(1,0)", "modulus must be a positive integer in 'Lmod(1, 0)'"),
    ],
)
def test_a_product_fails_with_the_message_of_its_bad_call(text, message):
    node = parse(text)
    for evaluate_fn in (evaluate, oracle.evaluate):
        with pytest.raises(DSLError) as err:
            evaluate_fn(node, 10)
        assert str(err.value) == message


# ------------------------------------------------------------------ tokenizer


def _kind(token: str) -> str:
    # a token's kind as the parser reads it off its text
    if not token:
        return "END"
    if token.isdecimal():
        return "INT"
    if token[0] in dsl._NAME_START:
        return "NAME"
    return "EQ" if token == "==" else "OP"


def _tokens(tokenize, text):
    """(kind, text, line, col) of each token, or the DSLError's (message,
    line, col)."""
    try:
        tokens = tokenize(text)
    except DSLError as err:
        return "error", str(err), err.line, err.col
    if tokenize is oracle.tokenize:
        return [(t.kind, t.text, t.line, t.col) for t in tokens]
    return [(_kind(t), t, *dsl._where(text, i)) for i, t in enumerate(tokens)]


# texts pieced together from tokens, blanks and line breaks, and now and
# then a character that starts no token: a lone "=", punctuation, a
# non-ASCII letter, a superscript digit (not a decimal digit) or any other;
# an Arabic-Indic digit is a decimal digit, so it makes an integer
_TOKEN_PIECES = st.sampled_from(
    ["q", "eta", "x_1", "12", "\u0663", "0", "==", "+", "-", "*", "/", "^", "(", ")", ","]
)
_BLANKS = st.sampled_from([" ", "\n", "\t", "\r\n", "\n\n  ", "\u2028", "\x0b"])
_STRAYS = st.one_of(st.sampled_from(["=", "$", ".", "\u00e9", "\u00b2"]), st.characters())
_TOKEN_TEXT = st.lists(
    st.one_of(_TOKEN_PIECES, _BLANKS, _TOKEN_PIECES, _BLANKS, _STRAYS), max_size=30
).map("".join)


@settings(max_examples=300)
@given(_TOKEN_TEXT)
def test_tokens_agree_with_the_oracle(text):
    assert _tokens(dsl._tokenize, text) == _tokens(oracle.tokenize, text)


@pytest.mark.parametrize("name", sorted(catalog.load_catalog()))
def test_catalog_lines_tokenize_and_parse_as_with_the_oracle(name, monkeypatch):
    record = catalog.get_identity(name)
    line = record.source
    assert _tokens(dsl._tokenize, line) == _tokens(oracle.tokenize, line)
    # the parser fed the oracle's token texts gives the catalog's trees
    monkeypatch.setattr(
        dsl, "_tokenize", lambda text: [t.text for t in oracle.tokenize(text)]
    )
    assert dsl.parse_identity(line) == (record.left, record.right)
