"""Polynomial arithmetic, relation fitting, and resultants."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from qlambert import ExactDivisionError, PrecisionError
from qlambert.relations import (
    MultiPoly,
    eval_poly,
    exact_divide,
    find_relation,
    resultant_eliminate,
    vanishing_factor,
    variables,
)
from qlambert.series import ONE, QSeries, qpow

X, Y = variables("X", "Y")


@st.composite
def polys(draw):
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mono = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        coeffs[mono] = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    return MultiPoly(("X", "Y"), coeffs)


# ----------------------------------------------------------- MultiPoly


def test_construction_normalizes():
    p = MultiPoly(("X", "Y"), {(1, 0): 2, (0, 0): 0})
    assert (0, 0) not in p.coeffs
    assert p.coeffs == {(1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        MultiPoly(("X", "Y"), {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("X", "Y"), {(-1, 0): 1})
    with pytest.raises(TypeError):
        MultiPoly(("X",), {(1,): 0.5})


def test_ring_arithmetic():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert (X - Y) * (X + Y) == X**2 - Y**2
    assert 3 * X - X - X - X == MultiPoly(("X", "Y"), {})
    assert (2 - X) + (X - 2) == 0


def test_alignment_across_variable_sets():
    (A,) = variables("A")
    (B,) = variables("B")
    p = A + B
    assert p.variables == ("A", "B")
    assert p == MultiPoly(("A", "B"), {(1, 0): 1, (0, 1): 1})


def test_degrees_and_leading():
    p = X**3 - 22 * X**2 * Y + Y**5
    assert p.degree("X") == 3
    assert p.degree("Y") == 5
    assert p.total_degree() == 5
    assert p.leading() == ((3, 0), 1)
    assert MultiPoly(("X",), {}).degree("X") == -1


def test_display_ordering():
    p = X**3 - 22 * X**2 * Y + 41 * X * Y**2 - Y**5
    assert str(p) == "X^3 - 22*X^2*Y + 41*X*Y^2 - Y^5"
    assert str(MultiPoly(("X",), {})) == "0"
    assert str(-X + Fraction(1, 2)) == "-X + 1/2"


def test_content_stripping():
    p = 6 * X**2 * Y - 4 * X * Y**2
    prim, scal, mono = p.strip_content()
    assert scal == 2 and mono == (1, 1)
    assert prim == 3 * X - 2 * Y
    rebuilt = prim * scal * MultiPoly(("X", "Y"), {mono: 1})
    assert rebuilt == p
    neg = -p
    _, scal_neg, _ = neg.strip_content()
    assert scal_neg == -2  # sign goes into the scalar, primitive part is lex-positive


# ---------------------------------------------------------- arithmetic ops


@given(polys(), polys())
def test_exact_divide_round_trip(p, q):
    assume(not q.is_zero())
    assert exact_divide(p * q, q) == p


def test_exact_divide_error_carries_leading_monomial():
    with pytest.raises(ExactDivisionError) as info:
        exact_divide(X**2 + Y, X)
    assert "Y" in str(info.value)
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, MultiPoly(("X", "Y"), {}))


# ----------------------------------------------------------- evaluation


def test_eval_poly_rational_and_series():
    p = X**2 - Y
    assert eval_poly(p, {"X": Fraction(3), "Y": Fraction(4)}) == 5
    x = qpow(-1) + ONE
    assert eval_poly(X - Y, {"X": x, "Y": x}).is_zero()
    with pytest.raises(ValueError, match="unassigned variable"):
        eval_poly(p, {"X": Fraction(1)})


# ----------------------------------------------------------- resultants


def test_resultant_linear_case():
    Z, A, B = variables("Z", "A", "B")
    assert resultant_eliminate(Z - A, Z - B, "Z") == A - B


def test_resultant_classic_substitution():
    # common root of Z^2 - A and Z - B exists iff B^2 = A
    Z, A, B = variables("Z", "A", "B")
    res = resultant_eliminate(Z**2 - A, Z - B, "Z")
    assert res in (B**2 - A, A - B**2)
    assert "Z" not in res.variables


def test_resultant_requires_positive_degree():
    Z, A, B = variables("Z", "A", "B")
    with pytest.raises(ValueError, match="positive degree"):
        resultant_eliminate(A + B, Z - B, "Z")
    with pytest.raises(ValueError, match="unknown variable"):
        resultant_eliminate(Z - A, Z - B, "W")


def test_vanishing_factor_basics():
    x = qpow(-1) + ONE
    assert vanishing_factor([X - Y, X + Y], {"X": x, "Y": x}) == 0
    assert vanishing_factor([X + Y, X - Y], {"X": x, "Y": x}) == 1
    with pytest.raises(ValueError, match="factorization inconsistent"):
        vanishing_factor([X + Y, X * Y], {"X": x, "Y": x})
    with pytest.raises(ValueError, match="factorization inconsistent"):
        # both factors vanish: ambiguous
        vanishing_factor([X - Y, 2 * X - 2 * Y], {"X": x, "Y": x})


# -------------------------------------------------------- find_relation


def test_find_relation_identical_inputs():
    x = qpow(-1) + ONE
    rel = find_relation(x, x)
    assert rel.variables == ("X", "Y")
    assert rel.degree("X") == rel.degree("Y") == 1
    assert rel.coeffs == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert str(rel) == "X - Y"


def test_find_relation_input_validation():
    with pytest.raises(ValueError, match="integer exponents"):
        find_relation(qpow(Fraction(-1, 2)) + ONE, qpow(-1) + ONE)
    with pytest.raises(ValueError, match="pole at infinity"):
        find_relation(ONE + qpow(1), qpow(-1) + ONE)
    with pytest.raises(ValueError, match="leading coefficient"):
        find_relation(2 * qpow(-1) + ONE, qpow(-1) + ONE)
    with pytest.raises(ValueError, match="not coprime"):
        find_relation(qpow(-2) + ONE, qpow(-4) + ONE)


def test_find_relation_insufficient_truncation():
    x = (qpow(-5) + qpow(-4)).truncate(-3)
    y = (qpow(-3) + qpow(-2)).truncate(-1)
    with pytest.raises(PrecisionError, match="insufficient truncation"):
        find_relation(x, y)


def test_find_relation_multiplies_no_series_by_a_constant(monkeypatch):
    t = qpow(-1) + ONE
    x, y = t**3, t**2  # pole orders m = 3, n = 2, and X^2 = Y^3
    products = []
    real = QSeries.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    rel = find_relation(x, y)
    assert rel.coeffs == {(2, 0): 1, (0, 3): -1}
    # x^2, y^2, y^3 and the one mixed monomial x*y
    assert len(products) == 4
    assert all(len(a.coeffs) > 1 and len(b.coeffs) > 1 for a, b in products)


def test_find_relation_solves_the_leading_block_only():
    t = qpow(-1) + ONE + 3 * qpow(2)
    x, y = t**3, t**2  # m = 3, n = 2; known far past q^0
    assert find_relation(x, y).coeffs == {(2, 0): 1, (0, 3): -1}
    # the rows of q^-6 .. q^0 fix it: with x^2 and y^3 cut at q^1 (x at q^4,
    # y at q^5) the same relation comes back, and one row fewer is too few
    assert find_relation(x.truncate(4), y.truncate(5)).coeffs == {(2, 0): 1, (0, 3): -1}
    with pytest.raises(PrecisionError, match="underdetermined at q\\^0;"):
        find_relation(x.truncate(4), y.truncate(4))


def test_find_relation_short_block_names_the_q0_target():
    # cut at q^1, y^3 is unknown from q^-3; the target is every monomial
    # through q^0, which a cut at q^3 still misses (y^3 unknown from q^-1)
    t = qpow(-1) + ONE + 3 * qpow(2)
    x, y = t**3, t**2
    with pytest.raises(PrecisionError) as err:
        find_relation(x.truncate(1), y.truncate(1))
    assert str(err.value) == (
        "insufficient truncation: need every monomial x^a y^b known through "
        "q^0 (unknown from q^-3)"
    )
    with pytest.raises(PrecisionError, match="underdetermined at q\\^-1;"):
        find_relation(x.truncate(3), y.truncate(3))
    assert find_relation(x.truncate(5), y.truncate(5)).coeffs == {
        (2, 0): 1,
        (0, 3): -1,
    }


def test_find_relation_rank_deficient_block_is_underdetermined():
    # truncation at q^-1 leaves the block short: the constant's row, q^0,
    # lies past it
    x = QSeries([1, 0, 2, 1], -2).truncate(3)  # m = 2
    y = QSeries([1, 1, 0, -1], -3).truncate(2)  # n = 3
    with pytest.raises(PrecisionError) as err:
        find_relation(x, y)
    assert str(err.value) == (
        "insufficient truncation: the system is still underdetermined at "
        "q^-1; increase the expansion order"
    )


def test_find_relation_residual_rejects_a_later_mismatch():
    # x^2 - y^3 vanishes through q^0 and the block solves, but x carries
    # an extra q^4, so x^2 - y^3 = 2*t^3*q^4 + q^8 from q^1 on
    t = qpow(-1) + ONE
    with pytest.raises(ValueError) as err:
        find_relation(t**3 + qpow(4), t**2)
    assert str(err.value) == "no relation at this degree bound"


def test_bivar_poly_display_matches_paper_shape():
    # a relation X^n - Y^m + ... prints as the paper writes it, with its pole
    # orders m and n as its degrees in Y and X
    rel = MultiPoly(("X", "Y"), {(3, 0): 1, (2, 1): -22, (0, 5): -1})
    assert str(rel) == "X^3 - 22*X^2*Y - Y^5"
    assert (rel.degree("Y"), rel.degree("X")) == (5, 3)
