"""The level-14 constants: relation discovery, factorization, elimination."""

from fractions import Fraction

import pytest

from qlambert import constructors, dsl, level14
from qlambert.catalog import get_identity
from qlambert.constructors import gosper_symbols
from qlambert.level14 import (
    EQ37_FACTORS,
    EQ38,
    EQ49,
    F3_RELATION,
    F4_RELATION,
    K_POLY,
    THM12_CUBIC,
    VAR_SYMBOLS,
    eliminate,
    order_table,
)
from qlambert.relations import (
    MultiPoly,
    eval_poly,
    find_relation,
    vanishing_factor,
    variables,
)
from qlambert.series import qpow

Z, F, G = variables("Z", "F", "G")


def _sym(name: str, window: int = 60):
    return gosper_symbols(name, window)


# ------------------------------------------------------- relation discovery


def test_find_relation_recovers_z_cubic():
    z, g = _sym("z"), _sym("g")
    rel = find_relation(z * z, g * g)
    assert rel.degree("Y") == 5 and rel.degree("X") == 3
    assert rel == F3_RELATION


def test_find_relation_returns_fraction_coefficients():
    # the sweep reads each coefficient off the residual series, where the
    # kernels keep ints; the relation must hold Fractions all the same
    rel = find_relation(_sym("z") ** 2, _sym("g") ** 2)
    assert rel.coeffs and all(type(c) is Fraction for c in rel.coeffs.values())


def test_find_relation_recovers_t_cubic():
    t, g = _sym("t"), _sym("g")
    rel = find_relation(t, g * g)
    assert rel == F4_RELATION


def test_find_relation_stable_under_more_truncation():
    lo = find_relation(_sym("z", 45) ** 2, _sym("g", 45) ** 2)
    hi = find_relation(_sym("z", 70) ** 2, _sym("g", 70) ** 2)
    assert lo == hi == F3_RELATION


def test_relation_monomials_respect_degree_bound():
    for rel in (F3_RELATION, F4_RELATION):
        m, n = rel.degree("Y"), rel.degree("X")
        assert rel.coeffs[(n, 0)] == 1
        assert rel.coeffs[(0, m)] == -1
        for a, b in rel.coeffs:
            assert a * m + b * n <= m * n


def test_perturbed_series_has_no_relation():
    z, g = _sym("z", 30), _sym("g", 30)
    with pytest.raises(ValueError, match="no relation at this degree bound"):
        find_relation(z * z, g * g + Fraction(1, 3) * qpow(5))


# ------------------------------------------------------- factorizations


def test_product_of_factors_is_relation_at_squares():
    # multiplying the two cubic factors gives the bivariate relation
    # evaluated at (Z^2, G^2)
    lhs = EQ37_FACTORS[0] * EQ37_FACTORS[1]
    rhs = eval_poly(F3_RELATION, {"X": Z**2, "Y": G**2})
    assert lhs == rhs


def test_first_factor_vanishes_at_series():
    z, g = _sym("z", 40), _sym("g", 40)
    assert vanishing_factor(EQ37_FACTORS, {"Z": z, "G": g}) == 0


def test_cubic_not_cofactor_vanishes_at_series():
    f, g = _sym("f", 40), _sym("g", 40)
    assert vanishing_factor([THM12_CUBIC, K_POLY], {"F": f, "G": g}) == 0
    assert vanishing_factor([K_POLY, THM12_CUBIC], {"F": f, "G": g}) == 1


def test_defining_cubics_vanish():
    z, f, g = _sym("z", 45), _sym("f", 45), _sym("g", 45)
    assert eval_poly(EQ38, {"Z": z, "F": f, "G": g}).is_zero()
    assert eval_poly(EQ49, {"Z": z, "F": f, "G": g}).is_zero()
    assert eval_poly(THM12_CUBIC, {"F": f, "G": g}).is_zero()


# ----------------------------------------------------------- elimination


def test_eliminate_factors_exactly():
    rep = eliminate()
    assert rep["cofactor_matches"] is True
    assert rep["cofactor"] == K_POLY
    assert rep["scalar"] != 0
    # reconstruct: resultant = scalar * monomial * cubic * K
    mono = rep["monomial"]
    mono_poly = MultiPoly(
        rep["resultant"].variables,
        {tuple(mono[v] for v in rep["resultant"].variables): 1},
    )
    assert rep["resultant"] == rep["scalar"] * mono_poly * THM12_CUBIC * K_POLY


def test_k_poly_structure():
    assert len(K_POLY.coeffs) == 45
    assert K_POLY.constant_term() == 7**8
    assert K_POLY.coeffs[(0, 16)] == 1
    assert K_POLY.degree("F") == 6 and K_POLY.degree("G") == 16


def test_resultant_vanishes_at_series_assignment():
    rep = eliminate()
    f, g = _sym("f", 50), _sym("g", 50)
    value = eval_poly(rep["resultant"], {"F": f, "G": g})
    assert value.is_zero()


# ----------------------------------------------------------- order tables


def test_order_tables_match_fixed_values():
    t31 = order_table("3.1")
    assert t31.columns == ("0", "1/2", "1/7", "inf")
    assert t31.row("g1^2") == (0, 1, 0, -5)
    assert t31.row("g2^2") == (0, 1, 0, -1)
    assert t31.row("g3^2") == (0, 1, 0, 3)

    t32 = order_table("tables/3.2")
    assert t32.row("g1*g2") == (0, 1, 0, -3)
    assert t32.row("g1*g3") == (0, 1, 0, -1)
    assert t32.row("g2*g3") == (0, 1, 0, 1)

    t41 = order_table("4.1")
    assert t41.columns == ("0", "1/2", "1/4", "1/7", "1/14", "inf")
    assert t41.row("h1(alpha tau)") == (0, 1, 2, 0, -5, 2)
    assert t41.row("h2") == (0, -1, -2, 0, 5, -2)
    assert t41.row("h1(alpha tau)*h2") == (0, 0, 0, 0, 0, 0)

    t42 = order_table("4.2")
    assert t42.row("h1") == (0, 2, 0, 2)
    assert t42.row("1/h2") == (0, 1, 0, -5)


def test_order_table_unknown_id():
    with pytest.raises(KeyError):
        order_table("9.9")
    with pytest.raises(KeyError):
        order_table("3.1 ")


def test_var_symbols_binding():
    assert VAR_SYMBOLS == {"Z": "z", "F": "f", "G": "g"}
    for sym in VAR_SYMBOLS.values():
        gosper_symbols(sym, 3)  # must be a known symbol


def test_quotients_are_the_symbol_table_objects():
    # stated once: the order tables and the series read the same objects
    for obj, name in (
        (level14.G1, "g1"),
        (level14.G2, "g2"),
        (level14.G3, "g3"),
        (level14.H1_ETA, "h1"),
        (level14.H2_ETA, "h2"),
    ):
        assert obj is constructors._SYMBOLS[name]


# ------------------------------------------------- read from the catalog


def test_constants_are_the_left_sides_of_identities_with_zero_right_side():
    for name in ("eq-3.8", "eq-4.9", "elim-K", "rel-F3", "rel-F4"):
        assert get_identity(name).right == dsl.Lit(Fraction(0))


def test_constants_keep_their_variables():
    for poly in (EQ38, EQ49, THM12_CUBIC, *EQ37_FACTORS):
        assert poly.variables == ("Z", "F", "G")
    assert K_POLY.variables == ("F", "G")


def test_relation_rejects_an_odd_exponent():
    # eq-3.8 holds z^3 and g^5, which are not polynomials in z^2 and g^2
    with pytest.raises(ValueError, match=r"eq-3.8 is not a polynomial in z\^2 and g\^2"):
        level14._relation("eq-3.8", "z", 2)
