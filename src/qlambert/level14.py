"""Fixed level-14 data: polynomial constants, quotient forms, order tables,
and the resultant elimination pipeline.

The polynomials are read from the identity catalog, their one statement:
EQ38 and EQ49 from ``eq-3.8`` and ``eq-4.9``, THM12_CUBIC and the degree-16
cofactor K_POLY from ``elim-K``, F3_RELATION and F4_RELATION from ``rel-F3``
(in z^2, g^2) and ``rel-F4`` (in t, g^2).  They are read on first use, not
at import, and then kept (``_polynomials``).  The quotients g1-g3, h1 and h2
are the symbol table's objects, and the cusp lists of the four order tables
(ids "3.1", "3.2", "4.1", "4.2") come from ``gamma0.cusp_set``, and their
rows from ``gamma0._orders``, with no cusp-class search; only the level-28
generalized-eta forms of h1 and h2 are stated here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add
from typing import NamedTuple

from . import dsl
from .catalog import get_identity
from .constructors import _SYMBOLS, GenEtaQuotient
from .gamma0 import Cusp, _orders, apply_gamma, cusp_set
from .relations import MultiPoly, eval_poly, exact_divide, resultant_eliminate, variables

__all__ = [
    "ALPHA",
    "EQ37_FACTORS",
    "EQ38",
    "EQ49",
    "F3_RELATION",
    "F4_RELATION",
    "G1",
    "G2",
    "G3",
    "GAMMA_CYCLE",
    "H1_ETA",
    "H1_GEN",
    "H2_ETA",
    "H2_GEN",
    "K_POLY",
    "TABLE_IDS",
    "THM12_CUBIC",
    "TableReport",
    "VAR_SYMBOLS",
    "eliminate",
    "order_table",
]

Z, _, G = variables("Z", "F", "G")

# the one place fixing which series each polynomial variable stands for
VAR_SYMBOLS = {"Z": "z", "F": "f", "G": "g"}

# tau -> tau / (14 tau + 1); conjugation by this joins the two index-14
# cusp classes of level 28
ALPHA = ((1, 0), (14, 1))
# the order-3 cusp permutation used for the sign cycle g1 -> -g2 -> -g3
GAMMA_CYCLE = ((3, 1), (14, 5))

# the generalized eta quotients g1, g2, g3 and the eta quotients h1, h2: the
# objects the symbol table of gosper_symbols builds those functions from
G1, G2, G3 = _SYMBOLS["g1"], _SYMBOLS["g2"], _SYMBOLS["g3"]
H1_ETA, H2_ETA = _SYMBOLS["h1"], _SYMBOLS["h2"]

# generalized-eta forms of h1 and h2 on level 28 (even indices over odd,
# and the reverse, with the 14/7 pair shared)
_h1_exps = {14: 4, 7: -4}
_h1_exps.update({g: 2 for g in (2, 4, 6, 8, 10, 12)})
_h1_exps.update({g: -2 for g in (1, 3, 5, 9, 11, 13)})
H1_GEN = GenEtaQuotient(28, _h1_exps)
H2_GEN = GenEtaQuotient(
    28, {g: (r if g in (7, 14) else -r) for g, r in _h1_exps.items()}
)

# ----------------------------------------------------------- polynomials


def _left_side(name: str, names: dict) -> tuple:
    return dsl._polynomial(get_identity(name).left, names)


def _relation(name: str, x: str, x_power: int) -> MultiPoly:
    # the entry's left side read as a polynomial in x^x_power and g^2
    (poly,) = _left_side(name, {"X": x, "Y": "g"})
    if any(a % x_power or b % 2 for a, b in poly.coeffs):
        raise ValueError(f"{name} is not a polynomial in {x}^{x_power} and g^2")
    coeffs = {(a // x_power, b // 2): c for (a, b), c in poly.coeffs.items()}
    return MultiPoly._make(poly.variables, coeffs)


#: the names of the polynomials, which ``_polynomials`` forms
_POLYNOMIALS = (
    "EQ38",
    "EQ37_FACTORS",
    "EQ49",
    "THM12_CUBIC",
    "K_POLY",
    "F3_RELATION",
    "F4_RELATION",
)


@cache
def _polynomials() -> dict:
    """Each polynomial by name, read from the catalog on the first call."""
    (eq38,) = _left_side("eq-3.8", VAR_SYMBOLS)
    (eq49,) = _left_side("eq-4.9", VAR_SYMBOLS)
    cubic, k_poly = _left_side("elim-K", {"F": "f", "G": "g"})
    return {
        "EQ38": eq38,
        "EQ37_FACTORS": (eq38, eval_poly(eq38, {"Z": Z, "G": -G})),
        "EQ49": eq49,
        "THM12_CUBIC": cubic.with_variables(eq38.variables),
        "K_POLY": k_poly,
        "F3_RELATION": _relation("rel-F3", "z", 2),
        "F4_RELATION": _relation("rel-F4", "t", 1),
    }


def __getattr__(name: str):
    # the polynomials are module attributes that importing does not form
    if name in _POLYNOMIALS:
        return _polynomials()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def eliminate() -> dict:
    """Eliminate Z between the two cubics and factor the result.

    Computes the Sylvester resultant in Z of EQ38 and EQ49, strips scalar
    and monomial content, divides by the known cubic in F, and compares
    the remaining cofactor with K_POLY.  Returns a report with the
    stripped content and both factors.
    """
    polys = _polynomials()
    res = resultant_eliminate(polys["EQ38"], polys["EQ49"], "Z")
    primitive, scalar, mono = res.strip_content()
    cubic = polys["THM12_CUBIC"]
    cofactor = exact_divide(primitive, cubic)
    return {
        "resultant": res,
        "scalar": scalar,
        "monomial": dict(zip(res.variables, mono)),
        "cubic": cubic,
        "cofactor": cofactor,
        "cofactor_matches": cofactor == polys["K_POLY"],
    }


# ----------------------------------------------------------- order tables


class TableReport(NamedTuple):
    """A labelled grid of invariant cusp orders."""

    table_id: str
    group_level: int
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[Fraction, ...]], ...]

    def row(self, label: str) -> tuple[Fraction, ...]:
        for name, values in self.rows:
            if name == label:
                return values
        raise KeyError(label)


_CUSPS_14_UNIT = (Cusp(1, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 14))
_COLUMNS_14_UNIT = tuple(map(str, _CUSPS_14_UNIT))

TABLE_IDS = ("3.1", "3.2", "4.1", "4.2")

#: the rows of tables 3.1 and 3.2: (label, ((quotient, power), ...))
_G_ROWS = {
    "3.1": (("g1^2", ((G1, 2),)), ("g2^2", ((G2, 2),)), ("g3^2", ((G3, 2),))),
    "3.2": (
        ("g1*g2", ((G1, 1), (G2, 1))),
        ("g1*g3", ((G1, 1), (G3, 1))),
        ("g2*g3", ((G2, 1), (G3, 1))),
    ),
}


def order_table(table_id: str) -> TableReport:
    """One of the bundled invariant-order tables ("tables/" prefix optional).

    * "3.1" — squares g_j^2 at the four cusps of level 14,
    * "3.2" — pairwise products g_i g_j at the same cusps,
    * "4.1" — h1 twisted by ALPHA, h2, and their product at the six cusps
      of level 28 (eta-quotient orders at the ALPHA images, whose class
      needs no search: the order reads only what the class shares),
    * "4.2" — h1 and 1/h2 at the 1/c cusps of level 14 (mixed level:
      level-28 quotients against level-14 widths).
    """
    tid = table_id.removeprefix("tables/")
    if tid in _G_ROWS:
        cusps = cusp_set(14).cusps
        rows = tuple((label, _orders(f, 14, cusps)) for label, f in _G_ROWS[tid])
        return TableReport(tid, 14, tuple(map(str, cusps)), rows)
    if tid == "4.1":
        cusps = cusp_set(28).cusps
        twisted = _orders(((H1_ETA, 1),), 28, [apply_gamma(ALPHA, r) for r in cusps])
        direct = _orders(((H2_ETA, 1),), 28, cusps)
        rows = (
            ("h1(alpha tau)", twisted),
            ("h2", direct),
            ("h1(alpha tau)*h2", tuple(map(add, twisted, direct))),
        )
        return TableReport("4.1", 28, tuple(map(str, cusps)), rows)
    if tid == "4.2":
        rows = (
            ("h1", _orders(((H1_GEN, 1),), 14, _CUSPS_14_UNIT)),
            ("1/h2", _orders(((H2_GEN, -1),), 14, _CUSPS_14_UNIT)),
        )
        return TableReport("4.2", 14, _COLUMNS_14_UNIT, rows)
    raise KeyError(f"unknown table id {table_id!r}; known: {', '.join(TABLE_IDS)}")
