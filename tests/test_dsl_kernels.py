"""Differential tests: the polynomial evaluator of the DSL against the
node-by-node oracle.

Every value must equal ``dsl_oracle``'s: the same grid index, grid
denominator, truncation and coefficients, which implies agreement through
the smaller truncation; and every truncation must be sound, that is agree
with the oracle run at a wider window.  Every failure must raise the same
exception type.  The shipped catalog is checked the same way at the windows
``verify`` evaluates at.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle as oracle
from qlambert import catalog, dsl
from qlambert.constructors import gosper_symbols
from qlambert.dsl import BinOp, Call, Lit, Neg, Pow, Q, Sqrt, Subq, evaluate, parse

_leaves = st.one_of(
    st.builds(lambda n: Call("symbol", (n,)), st.sampled_from(["z", "g", "f", "g2"])),
    st.builds(lambda d: Call("eta", (d,)), st.integers(1, 4)),
    st.builds(lambda k: Call("pi", (k,)), st.integers(1, 3)),
    st.builds(lambda k: Call("L", (k,)), st.integers(1, 3)),
    st.builds(Q, st.sampled_from([F(1), F(2), F(-1), F(1, 2)])),
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


def outcome(evaluate_fn, node, order):
    try:
        return evaluate_fn(node, order)
    except (ArithmeticError, ValueError) as err:
        return type(err)


def state(s):
    return s.v, s.D, s.T, s.coeffs


@settings(max_examples=150)
@given(trees, st.integers(4, 12))
def test_evaluation_agrees_with_the_oracle(node, order):
    new = outcome(evaluate, node, order)
    old = outcome(oracle.evaluate, node, order)
    if isinstance(new, type) or isinstance(old, type):
        assert new == old
        return
    # the difference of two honest series is zero through the smaller truncation
    assert (new - old).is_zero()
    assert state(new) == state(old)
    wide = outcome(oracle.evaluate, node, order + 10)
    if not isinstance(wide, type):
        assert (new - wide).is_zero()


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
