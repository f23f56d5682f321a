"""Differential tests: the polynomial evaluator of the DSL against the
node-by-node oracle.

Every value must equal ``dsl_oracle``'s: the same grid index, grid
denominator, truncation and coefficients, which implies agreement through
the smaller truncation; and every truncation must be sound, that is agree
with the oracle run at a wider window.  Every failure must raise the same
exception type with the same message.  Products of eta-type calls get a
strategy of their own, since the evaluator forms each one as a single
q-product.  The shipped catalog is checked the same way at the windows
``verify`` evaluates at.
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
    return s.v, s.D, s.T, s.coeffs


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


@pytest.mark.parametrize("name", sorted(catalog.load_catalog()))
def test_catalog_sides_match_the_oracle_exactly(name, monkeypatch):
    record = catalog.get_identity(name)
    windows = {record.truncation + 16}
    real = dsl.evaluate

    def recording(node, order):
        windows.add(order)
        return real(node, order)

    monkeypatch.setattr(dsl, "evaluate", recording)
    assert catalog.verify(record).verified
    for window in sorted(windows):
        for side in (record.left, record.right):
            assert state(real(side, window)) == state(oracle.evaluate(side, window))


def test_a_power_of_a_sum_is_a_leaf_not_an_expansion():
    (terms, _), leaves = dsl._converted(parse("(symbol(f) - 4)^3*symbol(g)"))
    assert [leaf for leaf, _ in leaves] == [
        parse("symbol(f)"),
        parse("(symbol(f) - 4)^3"),
        parse("symbol(g)"),
    ]
    assert terms == {(0, 1, 1): 1}
    (base,), exponents = leaves[1][1][1]
    assert exponents == (3,) and base[0] == {(1,): 1, (): -4}
    (terms, _), leaves = dsl._converted(parse("(1 + q)^1000"))
    assert len(leaves) == 2 and terms == {(0, 1): 1}


def test_a_product_of_two_sums_stays_a_product():
    (terms, _), leaves = dsl._converted(catalog.get_identity("elim-K").left)
    assert [leaf for leaf, _ in leaves][:2] == [parse("symbol(f)"), parse("symbol(g)")]
    assert len(leaves) == 3 and terms == {(0, 0, 1): 1}
    (cubic, cofactor), exponents = leaves[2][1][1]
    assert exponents == (1, 1)
    assert (len(cubic[0]), len(cofactor[0])) == (14, 45)


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
    (terms, _), leaves = dsl._converted(node)
    assert len(terms) <= 1
    agrees_with_the_oracle(node, 12)


def test_a_division_that_does_not_fuse_is_one_leaf():
    node = parse("(L(1) + 1)*eta(2)/eta(3)")
    assert [leaf for leaf, _ in dsl._converted(node)[1]] == [node]
    agrees_with_the_oracle(node, 12)


@pytest.mark.parametrize(
    "text", ["eta(1)*eta(2) + (eta(1) + 1)/(eta(2) + 2)", "eta(1)*eta(2) + (eta(1) + 1)^-1"]
)
def test_an_unfused_division_leaves_earlier_calls_as_they_were(text):
    # converting its operands marks eta(1) as evaluated; that is undone
    node = parse(text)
    specs = {leaf: spec for leaf, (_, spec) in dsl._converted(node)[1]}
    assert specs[parse("eta(1)")] == specs[parse("eta(2)")] == dsl._CHECK
    assert specs[node.right] is None and len(specs) == 4
    agrees_with_the_oracle(node, 12)


def test_a_product_leaf_goes_through_the_quotient_series_method(monkeypatch):
    # a wrapper set where the quotient classes hold ``series``, as a tracer
    # sets one, sees every product leaf
    seen = []
    original = vars(constructors.EtaQuotient)["series"]

    def wrapped(self, order):
        seen.append(type(self).__name__)
        return original(self, order)

    for cls in (constructors.EtaQuotient, constructors.GenEtaQuotient, constructors.EtaTypeProduct):
        assert vars(cls)["series"] is original
        monkeypatch.setattr(cls, "series", wrapped)
    evaluate(parse("pi(1)^2/pi(2) + geta(11,1)*geta(11,2) + eta(1)"), 20)
    assert seen == ["EtaTypeProduct", "EtaTypeProduct"]


def test_bare_calls_and_zero_powers_stay_as_they_are():
    for text in ("eta(1)", "geta(11,12)"):
        (_, leaves) = dsl._converted(parse(text))
        assert [leaf for leaf, _ in leaves] == [parse(text)]
    (terms, seen), leaves = dsl._converted(parse("eta(1)^0*eta(2)"))
    assert [leaf for leaf, _ in leaves] == [parse("eta(1)"), parse("eta(2)")]
    assert leaves[0][1][1] == dsl._CHECK and terms == {(0, 1): 1}
    (terms, _), leaves = dsl._converted(parse("q^2*q/q^(1/2)"))
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
    ],
)
def test_a_product_fails_with_the_message_of_its_bad_call(text, message):
    node = parse(text)
    for evaluate_fn in (evaluate, oracle.evaluate):
        with pytest.raises(DSLError) as err:
            evaluate_fn(node, 10)
        assert str(err.value) == message
