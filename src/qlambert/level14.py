"""Fixed level-14 data: polynomial constants, quotient forms, order tables,
and the resultant elimination pipeline.

This module owns the hard-coded polynomial data of level 14: the cubic
relations satisfied by the symbol series, the degree-16 cofactor produced
by eliminating z, and the builders for the four bundled cusp-order tables
(ids "3.1", "3.2", "4.1", "4.2").  The quotients g1-g3, h1 and h2 are the
objects of the symbol table in ``constructors``, and the cusp lists come
from ``gamma0.cusp_set``; only the level-28 generalized-eta forms of h1 and
h2 are stated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructors import _SYMBOLS, GenEtaQuotient
from .gamma0 import (
    Cusp,
    apply_gamma,
    class_representative,
    cusp_set,
    eta_cusp_order,
    gen_eta_cusp_ord,
)
from .relations import BivarPoly, MultiPoly, exact_divide, resultant_eliminate, variables

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

Z, F, G = variables("Z", "F", "G")

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

# z^3 + 4 g z^2 - 3 g^2 z - (g^5 + 4 g^3 + 49 g) and its mirror factor;
# their product is the degree bound relation evaluated at (Z^2, G^2)
EQ38 = Z**3 + 4 * G * Z**2 - 3 * G**2 * Z - (G**5 + 4 * G**3 + 49 * G)
EQ37_FACTORS = (
    EQ38,
    Z**3 - 4 * G * Z**2 - 3 * G**2 * Z + (G**5 + 4 * G**3 + 49 * G),
)

# the same cubic after substituting z = t / (g (f - 4)) and clearing
EQ49 = (
    (F - 4) ** 3 * G * Z**3
    - 33 * (F - 4) ** 2 * G**2 * Z**2
    + 2 * (F - 4) * (7 * G**4 + 46 * G**2 + 343) * G * Z
    - (G**4 + 2 * G**2 + 49) ** 2
)

# the cubic in f with coefficients in g
THM12_CUBIC = (
    G**2 * (G**4 + 4 * G**2 + 49) * F**3
    - G**2 * (2 * G**4 + 5 * G**2 + 98) * F**2
    - 2 * G**2 * (5 * G**4 + 22 * G**2 + 245) * F
    - (G**2 - 4 * G + 7) ** 2 * (G**2 + 4 * G + 7) ** 2
)

# degree-16 cofactor K(F, G) of the elimination, 45 monomials,
# constant term 7^8
_K_TERMS = (
    (0, 0, 5764801),
    (0, 2, -1882384),
    (1, 2, -11529602),
    (2, 2, 4000066),
    (3, 2, -235298),
    (0, 4, 260681372),
    (1, 4, -229161044),
    (2, 4, 80925705),
    (3, 4, -14871794),
    (4, 4, 1512630),
    (5, 4, -81634),
    (6, 4, 2401),
    (0, 6, -50601712),
    (1, 6, 49514402),
    (2, 6, -17617950),
    (3, 6, 2561622),
    (4, 6, -86828),
    (5, 6, -8624),
    (6, 6, 392),
    (0, 8, 4938886),
    (1, 8, -3847640),
    (2, 8, 1335446),
    (3, 8, -300148),
    (4, 8, 44608),
    (5, 8, -3492),
    (6, 8, 114),
    (0, 10, -1032688),
    (1, 10, 1010498),
    (2, 10, -359550),
    (3, 10, 52278),
    (4, 10, -1772),
    (5, 10, -176),
    (6, 10, 8),
    (0, 12, 108572),
    (1, 12, -95444),
    (2, 12, 33705),
    (3, 12, -6194),
    (4, 12, 630),
    (5, 12, -34),
    (6, 12, 1),
    (0, 14, -16),
    (1, 14, -98),
    (2, 14, 34),
    (3, 14, -2),
    (0, 16, 1),
)
K_POLY = MultiPoly(("F", "G"), {(a, b): c for a, b, c in _K_TERMS})

# the monic relations recovered by find_relation:
# X^3 - 22 Y X^2 + Y (8Y^2 + 41Y + 392) X - Y (Y^2 + 4Y + 49)^2 for (z^2, g^2)
F3_RELATION = BivarPoly(
    {
        (3, 0): 1,
        (2, 1): -22,
        (1, 3): 8,
        (1, 2): 41,
        (1, 1): 392,
        (0, 5): -1,
        (0, 4): -8,
        (0, 3): -114,
        (0, 2): -392,
        (0, 1): -2401,
    },
    m=5,
    n=3,
)
# X^3 - 33 Y X^2 + 2 Y (7Y^2 + 46Y + 343) X - Y (Y^2 + 2Y + 49)^2 for (t, g^2)
F4_RELATION = BivarPoly(
    {
        (3, 0): 1,
        (2, 1): -33,
        (1, 3): 14,
        (1, 2): 92,
        (1, 1): 686,
        (0, 5): -1,
        (0, 4): -4,
        (0, 3): -102,
        (0, 2): -196,
        (0, 1): -2401,
    },
    m=5,
    n=3,
)


def eliminate() -> dict:
    """Eliminate Z between the two cubics and factor the result.

    Computes the Sylvester resultant in Z of EQ38 and EQ49, strips scalar
    and monomial content, divides by the known cubic in F, and compares
    the remaining cofactor with K_POLY.  Returns a report with the
    stripped content and both factors.
    """
    res = resultant_eliminate(EQ38, EQ49, "Z")
    primitive, scalar, mono = res.strip_content()
    cofactor = exact_divide(primitive, THM12_CUBIC)
    return {
        "resultant": res,
        "scalar": scalar,
        "monomial": dict(zip(res.variables, mono)),
        "cubic": THM12_CUBIC,
        "cofactor": cofactor,
        "cofactor_matches": cofactor == K_POLY,
    }


# ----------------------------------------------------------- order tables


@dataclass(frozen=True)
class TableReport:
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


def _square(quot: GenEtaQuotient) -> GenEtaQuotient:
    return GenEtaQuotient(quot.level, {g: 2 * r for g, r in quot.exponents.items()})


def _product(a: GenEtaQuotient, b: GenEtaQuotient) -> GenEtaQuotient:
    exps = dict(a.exponents)
    for g, r in b.exponents.items():
        exps[g] = exps.get(g, 0) + r
    return GenEtaQuotient(a.level, exps)


def _inverse(quot: GenEtaQuotient) -> GenEtaQuotient:
    return GenEtaQuotient(quot.level, {g: -r for g, r in quot.exponents.items()})


_CUSPS_14 = cusp_set(14).cusps
_CUSPS_14_UNIT = (Cusp(1, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 14))
_CUSPS_28 = cusp_set(28).cusps

TABLE_IDS = ("3.1", "3.2", "4.1", "4.2")


def order_table(table_id: str) -> TableReport:
    """One of the bundled invariant-order tables.

    * "3.1" — squares g_j^2 at the four cusps of level 14,
    * "3.2" — pairwise products g_i g_j at the same cusps,
    * "4.1" — h1 twisted by ALPHA, h2, and their product at the six cusps
      of level 28 (eta-quotient orders plus the ALPHA relabelling),
    * "4.2" — h1 and 1/h2 at the 1/c cusps of level 14 (mixed level:
      level-28 quotients against level-14 widths).
    """
    tid = table_id.removeprefix("tables/")
    if tid == "3.1":
        rows = tuple(
            (label, tuple(gen_eta_cusp_ord(_square(q), 14, r) for r in _CUSPS_14))
            for label, q in (("g1^2", G1), ("g2^2", G2), ("g3^2", G3))
        )
        return TableReport("3.1", 14, tuple(map(str, _CUSPS_14)), rows)
    if tid == "3.2":
        rows = tuple(
            (label, tuple(gen_eta_cusp_ord(_product(a, b), 14, r) for r in _CUSPS_14))
            for label, a, b in (
                ("g1*g2", G1, G2),
                ("g1*g3", G1, G3),
                ("g2*g3", G2, G3),
            )
        )
        return TableReport("3.2", 14, tuple(map(str, _CUSPS_14)), rows)
    if tid == "4.1":
        twisted = tuple(
            eta_cusp_order(H1_ETA, 28, class_representative(28, apply_gamma(ALPHA, r)))
            for r in _CUSPS_28
        )
        direct = tuple(eta_cusp_order(H2_ETA, 28, r) for r in _CUSPS_28)
        product = tuple(a + b for a, b in zip(twisted, direct))
        rows = (
            ("h1(alpha tau)", twisted),
            ("h2", direct),
            ("h1(alpha tau)*h2", product),
        )
        return TableReport("4.1", 28, tuple(map(str, _CUSPS_28)), rows)
    if tid == "4.2":
        rows = (
            (
                "h1",
                tuple(gen_eta_cusp_ord(H1_GEN, 14, r) for r in _CUSPS_14_UNIT),
            ),
            (
                "1/h2",
                tuple(
                    gen_eta_cusp_ord(_inverse(H2_GEN), 14, r) for r in _CUSPS_14_UNIT
                ),
            ),
        )
        return TableReport("4.2", 14, tuple(map(str, _CUSPS_14_UNIT)), rows)
    raise KeyError(f"unknown table id {table_id!r}; known: {', '.join(TABLE_IDS)}")
