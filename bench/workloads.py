"""Workload inputs, operations and verdict checks for the qlambert benchmark.

Input generators are pure functions of the seed and import nothing from
qlambert, so run.py can build inputs without loading the program.  The
``setup_*`` functions turn those plain inputs into program objects (the
part of a repetition that counts as set-up), the ``run_*`` functions perform
the timed operations and return one verdict per operation.

A verdict is a ``(label, ok, detail)`` triple; ``ok`` is False for a wrong
result and for an operation that raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

WORKLOADS = ("catalog", "deep", "algebra")

# -- host speed ----------------------------------------------------------------

#: nominal duration of ``reference()``; end-to-end times are reported in
#: seconds at the host speed where the reference takes this long
REFERENCE_S = 0.15


def reference() -> float:
    """Seconds taken by a fixed schoolbook product of two 40-term lists of
    Fractions, repeated 20 times.

    It runs no qlambert code, so it probes only the host's current speed,
    which on a shared machine swings by up to 2x within minutes.
    """
    a = [Fraction(k + 1, 2 * k + 3) for k in range(40)]
    start = time.perf_counter()
    for _ in range(20):
        out = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    return time.perf_counter() - start


# -- catalog -----------------------------------------------------------------

#: the keys of one ``verify --json`` report entry; pinned by the CLI tests
REPORT_KEYS = frozenset(
    (
        "name",
        "status",
        "grid_denominator",
        "truncation_exponent",
        "first_nonzero",
        "elapsed_ms",
    )
)

#: the shipped catalog, in ``verify --all`` order
CATALOG_NAMES = (
    "elim-K",
    "eq-3.1-a1",
    "eq-3.1-a3",
    "eq-3.1-a5",
    "eq-3.2",
    "eq-3.8",
    "eq-4.6",
    "eq-4.7",
    "eq-4.8",
    "eq-4.9",
    "gosper-1.1",
    "gosper-1.2",
    "gosper-1.3",
    "gosper-1.4",
    "gosper-1.5",
    "gosper-1.6",
    "gosper-1.7",
    "lambert-odd-split",
    "lemma-4.1-product",
    "rel-F3",
    "rel-F4",
    "thm-1.1",
    "thm-1.2",
)


def catalog_inputs(seed: int) -> dict:
    """The catalog workload's input is the shipped catalog; the seed is only
    recorded."""
    return {"seed": seed}


def setup_catalog(inputs: dict):
    from qlambert import catalog, cli

    catalog.load_catalog()
    return cli


def run_catalog(cli) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--all", "--json"])
    reports = json.loads(buf.getvalue())
    by_name = {r.get("name"): r for r in reports}
    verdicts = []
    for name in CATALOG_NAMES:
        report = by_name.get(name)
        if report is None:
            verdicts.append((name, False, "missing from the report"))
            continue
        keys_ok = set(report) == REPORT_KEYS
        ok = keys_ok and report["status"] == "verified"
        detail = "" if ok else f"status {report['status']!r}, keys {sorted(report)}"
        verdicts.append((name, ok, detail))
    extra = set(by_name) - set(CATALOG_NAMES)
    if extra or code != 0:
        verdicts.append(
            ("report", False, f"exit code {code}, unexpected entries {sorted(extra)}")
        )
    return verdicts


# -- deep --------------------------------------------------------------------

#: identity families that hold at every order: (left, right) DSL templates
_FAMILIES = {
    "theta4": ("theta(1,1,1,1)^4", "1 + 8*L(1) - 32*L(4)"),
    "theta-minus": ("theta(-1,1,-1,1)", "eta(1)^2/eta(2)"),
    "theta-eta": ("theta(1,1,1,1)", "eta(2)^5/(eta(1)^2*eta(4)^2)"),
    "lambert-odd": ("L({k}) - L({k2})", "Lodd({k})"),
    "geta": ("{gets}", "eta(1)/eta({n})"),
}

#: (family, lowest order, highest order); every seed draws one identity per
#: slot, so the work of a repetition hardly depends on the seed
DEEP_SLOTS = (
    ("theta4", 150, 190),
    ("theta4", 290, 310),
    ("theta4", 450, 470),
    ("theta-minus", 150, 190),
    ("theta-minus", 290, 310),
    ("theta-eta", 150, 190),
    ("theta-eta", 240, 260),
    ("lambert-odd", 150, 250),
    ("lambert-odd", 300, 400),
    ("lambert-odd", 400, 500),
    ("geta", 290, 310),
    ("geta", 290, 310),
)

#: levels of the two geta slots; each pair costs about the same
_GETA_PAIRS = ((5, 11), (7, 9))


def _fraction_text(c: Fraction) -> str:
    if c.denominator == 1:
        return f"({c.numerator})"
    return f"({c.numerator}/{c.denominator})"


def deep_inputs(seed: int, scale: float = 1.0) -> list:
    """Seeded identities for the ``deep`` workload.

    One identity per slot of DEEP_SLOTS, with orders scaled by ``scale``.
    A quarter of them get ``+ c*q^e`` planted on the right side, so their
    verification must fail with first nonzero term ``(e, -c)``.  Returns a
    list of dicts with keys name, text, order and planted (None, or
    [exponent, coefficient text]).
    """
    rng = random.Random(seed)
    geta_levels = list(rng.choice(_GETA_PAIRS))
    rng.shuffle(geta_levels)
    planted = set(rng.sample(range(len(DEEP_SLOTS)), len(DEEP_SLOTS) // 4))
    cases = []
    for index, (family, lo, hi) in enumerate(DEEP_SLOTS):
        order = max(8, round(rng.randint(lo, hi) * scale))
        left, right = _FAMILIES[family]
        if family == "lambert-odd":
            k = rng.randint(1, 12)
            left, right = left.format(k=k, k2=2 * k), right.format(k=k)
        elif family == "geta":
            n = geta_levels.pop()
            gets = "*".join(f"geta({n},{g})" for g in range(1, (n - 1) // 2 + 1))
            left, right = left.format(gets=gets), right.format(n=n)
        elif family == "theta4":
            k = rng.randint(1, 3)
            if k > 1:
                left, right = f"subq({left}, {k})", f"subq({right}, {k})"
        plant = None
        if index in planted:
            exponent = rng.randrange(order)
            numerator = rng.choice([-1, 1]) * rng.randint(1, 9)
            coefficient = Fraction(numerator, rng.randint(1, 5))
            right = f"{right} + {_fraction_text(coefficient)}*q^{exponent}"
            plant = [exponent, str(coefficient)]
        cases.append(
            {
                "name": f"deep-{index:02d}-{family}",
                "text": f"{left} == {right}",
                "order": order,
                "planted": plant,
            }
        )
    return cases


def setup_deep(inputs: list):
    from qlambert import catalog, dsl

    catalog.load_catalog()
    records = []
    for case in inputs:
        left, right = dsl.parse_identity(case["text"])
        records.append(
            (
                catalog.IdentityRecord(case["name"], left, right, case["order"]),
                case["planted"],
            )
        )
    return records


def run_deep(records) -> list:
    from qlambert import catalog

    verdicts = []
    for record, planted in records:
        report = catalog.verify(record)
        if planted is None:
            ok = report.status == "verified" and report.first_nonzero is None
            want = "verified"
        else:
            exponent, coefficient = planted
            expected = (Fraction(exponent), -Fraction(coefficient))
            ok = report.status == "failed" and report.first_nonzero == expected
            want = f"failed at {expected}"
        detail = "" if ok else (
            f"wanted {want}, got {report.status} {report.first_nonzero} {report.detail}"
        )
        verdicts.append((record.name, ok, detail))
    return verdicts


# -- algebra -----------------------------------------------------------------

_POLY_VARS = ("Z", "X", "Y")
_RESULTANT_PAIRS = 3


def _dense_poly(rng, z_degree: int, xy_degree: int) -> list:
    # every monomial Z^i X^j Y^k with j + k <= xy_degree, nonzero coefficient
    terms = []
    for i in range(z_degree + 1):
        for j in range(xy_degree + 1):
            for k in range(xy_degree + 1 - j):
                terms.append([i, j, k, rng.choice([-1, 1]) * rng.randint(1, 9)])
    return terms


def algebra_inputs(seed: int) -> dict:
    """Seeded inputs for the ``algebra`` workload.

    ``pairs``: resultant problems p = (Z - a(X, Y)) * p2, q in Z, X, Y, given
    as [Z, X, Y, coefficient] term lists; since Res_Z(Z - a, q) = q(a, X, Y),
    that polynomial must divide Res_Z(p, q).  ``windows``: five relative
    windows from 35 to 80 for the F3/F4 relation searches, two of them
    repeated.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(_RESULTANT_PAIRS):
        pairs.append(
            {
                "root": _dense_poly(rng, 0, 1),
                "cofactor": _dense_poly(rng, 2, 1),
                "q": _dense_poly(rng, 3, 1),
            }
        )
    # w1 + w3 is fixed, so the searches cost about the same for every seed
    w1, w2 = rng.randint(35, 47), rng.randint(54, 60)
    return {"pairs": pairs, "windows": [w1, w2, 115 - w1, w1, w2]}


#: the built-in cusp-order tables, row by row
ORDER_TABLES = {
    "3.1": (
        ("g1^2", (0, 1, 0, -5)),
        ("g2^2", (0, 1, 0, -1)),
        ("g3^2", (0, 1, 0, 3)),
    ),
    "3.2": (
        ("g1*g2", (0, 1, 0, -3)),
        ("g1*g3", (0, 1, 0, -1)),
        ("g2*g3", (0, 1, 0, 1)),
    ),
    "4.1": (
        ("h1(alpha tau)", (0, 1, 2, 0, -5, 2)),
        ("h2", (0, -1, -2, 0, 5, -2)),
        ("h1(alpha tau)*h2", (0, 0, 0, 0, 0, 0)),
    ),
    "4.2": (
        ("h1", (0, 2, 0, 2)),
        ("1/h2", (0, 1, 0, -5)),
    ),
}


def setup_algebra(inputs: dict):
    from qlambert import catalog
    from qlambert.relations import MultiPoly

    catalog.load_catalog()

    def poly(terms):
        return MultiPoly(_POLY_VARS, {(i, j, k): c for i, j, k, c in terms})

    z = MultiPoly(_POLY_VARS, {(1, 0, 0): 1})
    pairs = []
    for pair in inputs["pairs"]:
        root, cofactor, q = (poly(pair[key]) for key in ("root", "cofactor", "q"))
        pairs.append((root, (z - root) * cofactor, q))
    return pairs, list(inputs["windows"])


def _planted_factor(q, root):
    # q(root(X, Y), X, Y): substitute the planted root for Z
    from qlambert.relations import MultiPoly

    total = MultiPoly(q.variables, {})
    for (i, j, k), c in q.coeffs.items():
        total = total + MultiPoly(q.variables, {(0, j, k): c}) * root**i
    return MultiPoly(("X", "Y"), {m[1:]: c for m, c in total.coeffs.items()})


def run_algebra(state) -> list:
    from qlambert import level14, numeric
    from qlambert.constructors import gosper_symbols
    from qlambert.errors import ExactDivisionError
    from qlambert.relations import exact_divide, find_relation, resultant_eliminate

    pairs, windows = state
    verdicts = []

    result = level14.eliminate()
    ok = result["cofactor_matches"] is True and result["cubic"] == level14.THM12_CUBIC
    verdicts.append(("eliminate", ok, "" if ok else "cofactor does not match K"))

    for index, (root, p, q) in enumerate(pairs):
        res = resultant_eliminate(p, q, "Z")
        factor = _planted_factor(q, root)
        ok = not res.is_zero() and factor.total_degree() >= 1
        detail = "" if ok else "degenerate resultant or planted factor"
        if ok:
            try:
                exact_divide(res, factor)
            except ExactDivisionError as err:
                ok, detail = False, str(err)
        verdicts.append((f"resultant-{index}", ok, detail))

    for window in windows:
        z, g, t = (gosper_symbols(name, window) for name in ("z", "g", "t"))
        g2 = g**2
        ok = find_relation(z**2, g2) == level14.F3_RELATION
        verdicts.append((f"F3-w{window}", ok, "" if ok else "wrong relation"))
        ok = find_relation(t, g2) == level14.F4_RELATION
        verdicts.append((f"F4-w{window}", ok, "" if ok else "wrong relation"))

    for table_id, rows in ORDER_TABLES.items():
        report = level14.order_table(table_id)
        want = tuple((label, tuple(map(Fraction, values))) for label, values in rows)
        ok = report.rows == want
        verdicts.append((f"table-{table_id}", ok, "" if ok else "rows differ"))

    report = numeric.numeric_report()
    failing = [name for name, row in report.items() if not row["passed"]]
    verdicts.append(("numeric", not failing, ", ".join(failing)))
    return verdicts


def expected_verdicts(workload: str, inputs) -> int:
    """How many verdicts one repetition must produce."""
    if workload == "catalog":
        return len(CATALOG_NAMES)
    if workload == "deep":
        return len(inputs)
    return 1 + len(inputs["pairs"]) + 2 * len(inputs["windows"]) + len(ORDER_TABLES) + 1


# -- dispatch ----------------------------------------------------------------

INPUTS = {"catalog": catalog_inputs, "deep": deep_inputs, "algebra": algebra_inputs}
SETUP = {"catalog": setup_catalog, "deep": setup_deep, "algebra": setup_algebra}
RUN = {"catalog": run_catalog, "deep": run_deep, "algebra": run_algebra}

