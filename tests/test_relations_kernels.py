"""Differential tests: the polynomial kernels against the Fraction oracle.

Exact division, the Bareiss resultant and the relation fit must agree with
``relations_oracle`` exactly: the same quotient, determinant or relation, the
same exception type and message; the relation fit's triangular sweep is
checked against a full-system solve over ``Fraction``.  Horner evaluation
must agree with the term-by-term sum at rationals and polynomials exactly,
and at series through the smaller truncation; at series it must also equal
the chained Horner evaluation exactly, truncation included.  Results crossing
the public boundary must hold ``Fraction`` coefficients.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relations_oracle as oracle
from qlambert import ExactDivisionError, QSeries
from qlambert.level14 import F3_RELATION
from qlambert.relations import (
    MultiPoly,
    eval_poly,
    exact_divide,
    find_relation,
    resultant_eliminate,
)

integers = st.integers(-9, 9)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
NAMES = ("Z", "X", "Y", "W")


@st.composite
def polys(draw, nvars=None, max_terms=5, max_exp=3):
    n = draw(st.integers(1, 3)) if nvars is None else nvars
    kind = draw(st.sampled_from(["int", "rational", "mixed"]))
    mixed = st.one_of(integers, rationals)
    pool = {"int": integers, "rational": rationals, "mixed": mixed}[kind]
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        coeffs[mono] = draw(pool)
    return MultiPoly(NAMES[:n], coeffs)


def nonzero(p):
    return not p.is_zero()


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    assert all(type(c) is F for c in result.coeffs.values())
    return result.variables, result.coeffs


# ------------------------------------------------------------ ring operations


@given(polys(nvars=2), polys(nvars=2))
def test_product_matches_schoolbook(p, q):
    product = p * q
    assert product.coeffs == oracle.mul(p, q)
    assert all(type(c) is F for c in product.coeffs.values())
    assert (p + q) - q == p


@given(polys(max_terms=3, max_exp=2), st.integers(0, 4))
def test_power_matches_repeated_products(p, n):
    want = MultiPoly(p.variables, {(0,) * len(p.variables): 1})
    for _ in range(n):
        want = MultiPoly(p.variables, oracle.mul(want, p))
    assert (p**n).coeffs == want.coeffs


# ----------------------------------------------------------------- evaluation

short_series = st.builds(
    lambda cs, v, window: QSeries(cs, v, 1, None if window is None else v + window),
    st.lists(integers, min_size=1, max_size=5),
    st.integers(-2, 2),
    st.one_of(st.none(), st.integers(1, 6)),
)


@settings(max_examples=60)
@given(polys(max_terms=6), st.data())
def test_horner_agrees_with_the_term_by_term_sum(p, data):
    for values in (rationals, short_series, polys(nvars=2, max_terms=2, max_exp=1)):
        assignment = {name: data.draw(values) for name in p.variables}
        new, old = eval_poly(p, assignment), oracle.eval_poly(p, assignment)
        if isinstance(new, QSeries) or isinstance(old, QSeries):
            # the difference of two honest series is zero through the smaller truncation
            assert (new - old).is_zero()
        else:
            assert new == old


grid_series = st.builds(
    lambda cs, v, D, window: QSeries(cs, v, D, None if window is None else v + window),
    st.lists(st.one_of(integers, rationals), min_size=1, max_size=5),
    st.integers(-3, 3),
    st.sampled_from([1, 2, 3, 6]),
    st.one_of(st.none(), st.integers(1, 8)),
)


@settings(max_examples=80)
@given(polys(max_terms=6, max_exp=4), st.one_of(st.just(0), integers, rationals), st.data())
def test_horner_steps_as_one_combination_match_the_chained_sums(p, constant, data):
    # gaps in the Horner degrees and a constant term are both drawn
    p = p + constant
    assignment = {name: data.draw(grid_series) for name in p.variables}
    new = eval_poly(p, assignment)
    old = oracle.eval_poly_chained(p, assignment)
    assert type(new) is type(old)
    if isinstance(new, QSeries):
        # both canonical: the same terms, grid, stride and truncation
        fields = ("D", "v", "S", "coeffs", "T")
        assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
    else:
        assert new == old


def test_horner_neither_multiplies_by_one_nor_by_a_scalar(monkeypatch):
    products = []
    real = QSeries.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    x, y = QSeries([1, 2, 3], T=5), QSeries([2, 1], v=1, T=6)
    X, Y = MultiPoly(("X",), {(1,): 1}), MultiPoly(("Y",), {(1,): 1})
    cases = ((X, 0), (F(2, 3) * X - 7, 0), (X * Y, 1), (2 * X**2 * Y + X, 2))
    for poly, count in cases:
        products.clear()
        value = eval_poly(poly, {"X": x, "Y": y})
        assert len(products) == count
        assert value == oracle.eval_poly(poly, {"X": x, "Y": y})


# ------------------------------------------------------------- exact division


@given(polys(), polys().filter(nonzero))
def test_exact_quotients_agree(p, q):
    assert outcome(exact_divide, p * q, q) == outcome(oracle.exact_divide, p * q, q)
    assert exact_divide(p * q, q) == p


@given(polys(), polys().filter(nonzero))
def test_inexact_divisions_fail_alike(p, q):
    assert outcome(exact_divide, p, q) == outcome(oracle.exact_divide, p, q)


@given(polys(), polys().filter(nonzero), polys().filter(nonzero))
def test_divisions_with_a_remainder_fail_alike(p, q, r):
    # p*q + r is divisible by q exactly when r is
    dividend = p * q + r
    assert outcome(exact_divide, dividend, q) == outcome(oracle.exact_divide, dividend, q)


def test_inexact_division_message():
    X, Y = MultiPoly(("X", "Y"), {(1, 0): 1}), MultiPoly(("X", "Y"), {(0, 1): 1})
    with pytest.raises(ExactDivisionError) as new:
        exact_divide(X**2 + Y, F(1, 3) * X)
    with pytest.raises(ExactDivisionError) as old:
        oracle.exact_divide(X**2 + Y, F(1, 3) * X)
    assert str(new.value) == str(old.value)
    assert str(new.value).endswith("leading monomial Y")


# ----------------------------------------------------------------- resultants


def resultant_outcome(fn, p, q):
    got = outcome(fn, p, q, "Z")
    if isinstance(got[0], type):
        return got
    # the oracle keeps a dummy "1" axis on one early exit of the univariate case
    variables, coeffs = got
    return () if variables == ("1",) else variables, coeffs


@settings(max_examples=60)
@given(polys(max_terms=4, max_exp=2), polys(max_terms=4, max_exp=2))
def test_resultants_agree(p, q):
    assume(p.degree("Z") >= 1 and q.degree("Z") >= 1)
    assert resultant_outcome(resultant_eliminate, p, q) == resultant_outcome(
        oracle.resultant_eliminate, p, q
    )


@st.composite
def with_z_degree(draw, least: int, **kwargs):
    """A polynomial of Z-degree at least ``least`` (0: any nonzero one),
    made so by adding a term above its Z-degree rather than filtered."""
    p = draw(polys(**kwargs))
    if p.degree("Z") < least:
        mono = (least,) + (0,) * (len(p.variables) - 1)  # Z is the first name
        p = p + MultiPoly(p.variables, {mono: draw(st.integers(1, 9))})
    return p


@settings(max_examples=30)
@given(
    with_z_degree(1, max_terms=3, max_exp=1),
    with_z_degree(0, max_terms=3, max_exp=1),
    with_z_degree(0, max_terms=3, max_exp=1),
)
def test_resultants_with_a_common_factor_vanish(f, g, h):
    # Z-degrees add, so both products have Z-degree at least 1
    p, q = f * g, f * h
    new = resultant_eliminate(p, q, "Z")
    assert new.is_zero()
    assert resultant_outcome(resultant_eliminate, p, q) == resultant_outcome(
        oracle.resultant_eliminate, p, q
    )


big_integers = st.integers(-(2**40), 2**40)
big_rationals = st.builds(F, big_integers, st.integers(1, 2**40))


@st.composite
def big_polys(draw):
    """A polynomial in Z and up to three more variables, of Z-degree 1 to 4,
    with integer coefficients up to 2^40 in size or rational ones with
    denominators that large.  A top term and a term free of Z are forced,
    so that few resultants vanish through a common root Z = 0.  Degree at
    most 1 in each other variable keeps the Kronecker slot count, and with
    it the test's time, small."""
    n = draw(st.integers(1, 4))
    pool = draw(st.sampled_from([big_integers, big_rationals]))

    def mono(z_degree):
        return (z_degree,) + tuple(draw(st.integers(0, 1)) for _ in range(n - 1))

    coeffs = {mono(draw(st.integers(0, 3))): draw(pool) for _ in range(draw(st.integers(0, 2)))}
    for z_degree in (draw(st.integers(1, 4)), 0):
        coeffs[mono(z_degree)] = draw(pool.filter(bool))
    return MultiPoly(NAMES[:n], coeffs)


@settings(max_examples=40)
@given(big_polys(), big_polys())
def test_resultants_with_big_coefficients_agree(p, q):
    assert resultant_outcome(resultant_eliminate, p, q) == resultant_outcome(
        oracle.resultant_eliminate, p, q
    )


def _zxy(coeffs):
    return MultiPoly(NAMES[:3], coeffs)


# 2^35 Z + 3^20 X - 2^33, a factor of both operands of "common-factor-big"
_BIG_FACTOR = _zxy({(1, 0, 0): 2**35, (0, 1, 0): 3**20, (0, 0, 0): -(2**33)})


@pytest.mark.parametrize(
    "p, q",
    [
        # Z^2 + A Z + B against Z + A: the second pivot A - A vanishes, so
        # the elimination swaps rows
        (
            _zxy({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1}),
            _zxy({(1, 0, 0): 1, (0, 1, 0): 1}),
        ),
        (
            _zxy({(2, 0, 0): F(1, 2), (1, 1, 0): F(2, 3), (0, 0, 1): 5}),
            _zxy({(1, 0, 0): F(3, 4), (0, 1, 0): 1}),
        ),
        # univariate: no remaining variables
        (MultiPoly(("Z",), {(2,): 1, (0,): -2}), MultiPoly(("Z",), {(3,): F(1, 3), (1,): 1})),
        # univariate and proportional: zero through the early exit
        (
            MultiPoly(("Z",), {(2,): 1, (1,): 1, (0,): 1}),
            MultiPoly(("Z",), {(2,): 2, (1,): 2, (0,): 2}),
        ),
        # univariate with one common root: zero in the last pivot
        (
            MultiPoly(("Z",), {(2,): 1, (1,): -3, (0,): 2}),
            MultiPoly(("Z",), {(2,): 1, (1,): 2, (0,): -3}),
        ),
        # X only in p, Y only in q: each of E_X and E_Y comes from one side
        (
            _zxy({(2, 0, 0): 3, (1, 1, 0): -2, (0, 2, 0): 1}),
            _zxy({(3, 0, 0): 1, (1, 0, 1): 5, (0, 0, 2): -7}),
        ),
        # Z-degree 1 against Z-degree 5
        (
            _zxy({(1, 0, 0): 3, (0, 1, 0): -1}),
            _zxy({(5, 0, 0): 1, (3, 0, 1): -2, (1, 1, 1): 4, (0, 0, 0): 9}),
        ),
        # univariate with big integers
        (
            MultiPoly(("Z",), {(3,): 2**40 + 1, (1,): -(2**39), (0,): 3**25}),
            MultiPoly(("Z",), {(2,): 5 - 2**37, (1,): 7**14, (0,): 1}),
        ),
        # a common factor with big coefficients: zero
        (
            _BIG_FACTOR * _zxy({(1, 0, 0): 1, (0, 0, 1): -1}),
            _BIG_FACTOR * _zxy({(2, 0, 0): 1, (0, 1, 0): 5**15}),
        ),
    ],
    ids=[
        "row-swap",
        "row-swap-rational",
        "univariate",
        "univariate-zero",
        "univariate-zero-last",
        "one-sided-variables",
        "z-degree-1-against-5",
        "univariate-big",
        "common-factor-big",
    ],
)
def test_resultant_special_cases(p, q):
    new = resultant_outcome(resultant_eliminate, p, q)
    assert new == resultant_outcome(oracle.resultant_eliminate, p, q)
    assert new[0] == tuple(v for v in p.variables if v != "Z")


# ------------------------------------------------------------ relation fitting


@st.composite
def relation_inputs(draw):
    """x and y as powers of one t = q^-1 + ..., perhaps with a planted extra
    term, at pole orders that are coprime or not, cut anywhere from inside
    the leading block q^-mn .. q^0 to past it."""
    small = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    t = QSeries([1, *draw(st.lists(small, max_size=4))], v=-1)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    out = []
    for power in (m, n):
        s = t**power
        if draw(st.booleans()):
            s = s + QSeries.monomial(draw(st.integers(1, 3)), draw(st.integers(1 - power, 4)))
        cut = draw(st.one_of(st.none(), st.integers(1 - power, 6)))
        out.append(s if cut is None else s.truncate(cut))
    return out


def relation_outcome(fn, x, y):
    try:
        rel = fn(x, y)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    assert all(type(c) is F for c in rel.coeffs.values())
    return rel.variables, rel.coeffs


@settings(max_examples=120)
@given(relation_inputs())
def test_find_relation_agrees(inputs):
    x, y = inputs
    assert relation_outcome(find_relation, x, y) == relation_outcome(
        oracle.find_relation, x, y
    )


@pytest.mark.parametrize(
    "rows, rhs, reason",
    [
        ([[1, 2], [2, 4]], [1, 2], "underdetermined"),
        ([[1, 2], [2, 4]], [1, 3], "inconsistent"),
        ([[0, 0], [0, 0]], [0, 1], "inconsistent"),
        ([[1, 1], [1, -1], [2, 0]], [2, 0, 2], None),
        ([[1, 1], [1, -1], [2, 0]], [2, 0, 3], "inconsistent"),
        ([], [], None),
    ],
)
def test_linear_solve_reasons(rows, rhs, reason):
    # the oracle's full-system solve, which test_find_relation_agrees trusts
    rows = [[F(c) for c in r] for r in rows]
    rhs = [F(c) for c in rhs]
    sol, got = oracle.solve_exact(rows, rhs)
    assert got == reason
    if sol is not None:
        assert [sum(a * x for a, x in zip(r, sol)) for r in rows] == rhs


# ----------------------------------------------------------------- hash and eq


@st.composite
def equal_pairs(draw):
    p = draw(polys(max_terms=4))
    if draw(st.booleans()):
        names = list(p.variables) + draw(st.lists(st.sampled_from(["A", "B"]), unique=True))
        q = p.with_variables(draw(st.permutations(names)))
    else:
        q = draw(polys(max_terms=4))
    return p, q


@given(equal_pairs())
def test_equal_polynomials_hash_equal(pair):
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@given(st.one_of(integers, rationals), st.integers(0, 3))
def test_constants_hash_as_their_value(c, n):
    p = MultiPoly(NAMES[:n], {(0,) * n: c})
    assert p == c and hash(p) == hash(c)


relation_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(integers, rationals),
    max_size=4,
)


@given(relation_coeffs, relation_coeffs, st.booleans())
def test_equal_relations_hash_equal(a, b, restate):
    if restate:
        # the same relation with Fraction coefficients and a zero term
        b = {k: F(c) for k, c in a.items()} | {(4, 4): 0}
    x, y = MultiPoly(("X", "Y"), a), MultiPoly(("X", "Y"), b)
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


def test_shipped_relation_is_hashable():
    again = MultiPoly(("X", "Y"), dict(F3_RELATION.coeffs))
    assert again == F3_RELATION and len({again, F3_RELATION}) == 1


def test_unused_variables_do_not_change_the_hash():
    a = MultiPoly(("X", "Y"), {(1, 0): 1})
    b = MultiPoly(("X",), {(1,): 1})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    c = MultiPoly(("Y", "X"), {(0, 1): 1, (1, 0): 2})
    d = MultiPoly(("X", "Y"), {(1, 0): 1, (0, 1): 2})
    assert c == d and hash(c) == hash(d)
