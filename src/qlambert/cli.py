"""Command-line driver.

Subcommands: ``verify`` (catalog or inline identities), ``cusps``,
``ord-table`` (built-in tables or an eta-type quotient), ``find-relation``,
``eliminate``, ``numeric-check`` and ``expand``.  Exit codes: 0 on
success/verified, 1 when a verification or numeric check fails, 2 on
usage errors, and 2 when a request runs out of memory (an order too large
to expand, say).

``ord-table`` reads a quotient spec as one product leaf of eta, pi, geta and
theta calls (``dsl._product_calls``), whose merged statement gives the rows by
the order tables' formula (``gamma0._factor_orders``) if its q power is that
formula's order at infinity.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numeric
from .catalog import IdentityRecord, load_catalog, verify
from .constructors import _positive, _power_product
from .dsl import _ETA_TYPE, _product_calls, _wrap, evaluate, parse, parse_identity, to_text
from .errors import DSLError
from .gamma0 import _factor_orders, cusp_set
from .level14 import TABLE_IDS, eliminate, order_table
from .relations import find_relation


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except DSLError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as err:
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller --order", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlambert",
        description="exact q-series toolkit: eta quotients, cusp orders, "
        "polynomial relations, and an identity catalog",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("verify", help="check identities coefficient by coefficient")
    p.add_argument("name", nargs="?", help="catalog identity name")
    p.add_argument("--all", action="store_true", help="check every catalog entry")
    p.add_argument("--expr", metavar='"LHS == RHS"', help="check an inline identity")
    p.add_argument("--order", type=int, help="truncation override (integer orders)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("cusps", help="cusp representatives and widths of Gamma_0(N)")
    p.add_argument("level", type=int, help="group level N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_cusps)

    p = sub.add_parser("ord-table", help="cusp order table, built-in or for a quotient")
    p.add_argument("table", help="table id (e.g. 3.1) or a product of eta/pi/geta/theta powers")
    p.add_argument("--level", type=int, help="group level for a quotient spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_ord_table)

    p = sub.add_parser(
        "find-relation", help="monic polynomial relation between two expressions"
    )
    p.add_argument("--x", required=True, metavar="EXPR")
    p.add_argument("--y", required=True, metavar="EXPR")
    p.add_argument("--order", type=int, default=60, help="expansion order (default 60)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_find_relation)

    p = sub.add_parser("eliminate", help="resultant elimination and factor split")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eliminate)

    p = sub.add_parser("numeric-check", help="floating-point transformation checks")
    p.add_argument("--tol", type=float, help="uniform tolerance override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_numeric)

    p = sub.add_parser("expand", help="print the q-expansion of an expression")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("--order", type=int, required=True, help="truncation order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_expand)

    return parser


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    picked = sum((args.name is not None, args.all, args.expr is not None))
    if picked != 1:
        print("error: choose exactly one of NAME, --all, --expr", file=sys.stderr)
        return 2
    if args.all:
        # widest truncation first, so the narrower entries' symbols are
        # truncations of builds already made; reported in name order
        records = load_catalog()
        widest_first = sorted(records, key=lambda name: (-records[name].truncation, name))
        done = {name: verify(name, args.order) for name in widest_first}
        reports = [done[name] for name in sorted(records)]
    elif args.expr is not None:
        left, right = parse_identity(args.expr)
        record = IdentityRecord(
            "expr", left, right, 40 if args.order is None else args.order
        )
        reports = [verify(record)]
    else:
        reports = [verify(args.name, args.order)]
    if args.json:
        print(json.dumps([r.json_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(_verify_line(report))
    return 0 if all(r.verified for r in reports) else 1


def _verify_line(report) -> str:
    if report.status == "verified":
        if report.truncation_exponent is None:
            return f"{report.name}: verified exactly ({report.elapsed_ms:.0f} ms)"
        return (
            f"{report.name}: verified through q^{report.truncation_exponent}"
            f" ({report.elapsed_ms:.0f} ms)"
        )
    if report.status == "failed":
        exponent, coefficient = report.first_nonzero
        return f"{report.name}: FAILED, residual {coefficient} * q^{exponent}"
    return f"{report.name}: error: {report.detail}"


# ------------------------------------------------------------------ cusps


def _cmd_cusps(args) -> int:
    table = cusp_set(args.level)
    if args.json:
        rows = [{"cusp": str(r), "width": h} for r, h in table]
        print(json.dumps({"level": table.level, "cusps": rows}, indent=2))
        return 0
    label = max(len(str(r)) for r, _ in table)
    for r, h in table:
        print(f"{str(r):<{label}}  {h}")
    return 0


# -------------------------------------------------------------- ord-table


def _cmd_ord_table(args) -> int:
    text = args.table.strip()
    if text.startswith("tables/") or text in TABLE_IDS:
        report = order_table(text)
        if args.level is not None:
            print("error: a built-in table takes no --level", file=sys.stderr)
            return 2
        return _print_builtin_table(report, args.json)
    if args.level is None:
        print("error: a quotient spec needs --level", file=sys.stderr)
        return 2
    rows = _quotient_orders(text, args.level)
    if args.json:
        payload = {
            "level": args.level,
            "quotient": text,
            "orders": [{"cusp": str(r), "order": str(v)} for r, v in rows],
        }
        print(json.dumps(payload, indent=2))
        return 0
    label = max(len(str(r)) for r, _ in rows)
    for r, v in rows:
        print(f"{str(r):<{label}}  {v}")
    return 0


def _print_builtin_table(report, as_json: bool) -> int:
    if as_json:
        payload = {
            "table": report.table_id,
            "level": report.group_level,
            "columns": list(report.columns),
            "rows": [
                {"label": label, "orders": [str(v) for v in values]}
                for label, values in report.rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    head = ["cusp"] + list(report.columns)
    body = [[label] + [str(v) for v in values] for label, values in report.rows]
    widths = [max(len(row[i]) for row in [head] + body) for i in range(len(head))]
    for row in [head] + body:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


#: a spec that is no product of eta-type calls, or whose q power is not the
#: order its factors give at infinity (theta(1,1,1,2), say, is q^(-1/24)
#: times a quotient, so the rows would not be its own)
_SPEC_ERROR = (
    "quotient spec must be a product of eta(d), pi(k), geta(M,g) and theta powers"
    " whose q power is its order at infinity"
)


def _quotient_orders(text: str, level: int) -> list:
    # the calls' statements merge into one factor dict, read from each
    # statement as expand reads it, so a nonpositive argument or a g
    # divisible by M fails as in expand; the order at infinity, the same
    # at every level, must be the q power; then each eta factor (q^M; q^M),
    # in ascending M, must have M | level, else the first call that holds
    # it is named
    calls = _product_calls(parse(text))
    if calls is None:
        raise ValueError(_SPEC_ERROR)
    stated = {call: _wrap(call, _ETA_TYPE[call.name], *call.args) for call in calls}
    factors, pref, _ = _power_product((stated[call], r) for call, r in calls.items())
    if _factor_orders(factors, 1, ((1, 0),)) != (pref,):
        raise ValueError(_SPEC_ERROR)
    _positive(level, "level")
    for m in sorted(m for g, m in factors if g == m):
        if level % m:
            name = to_text(next(c for c, r in calls.items() if r and stated[c][0].get((m, m))))
            raise ValueError(f"eta argument {m} does not divide the level {level} in '{name}'")
    cusps = cusp_set(level).cusps
    return list(zip(cusps, _factor_orders(factors, level, cusps)))


# ---------------------------------------------------------- find-relation


def _cmd_find_relation(args) -> int:
    x = evaluate(parse(args.x), args.order)
    y = evaluate(parse(args.y), args.order)
    relation = find_relation(x, y)
    if args.json:
        payload = {
            "x": args.x,
            "y": args.y,
            "order": args.order,
            # the relation is X^n - Y^m + ..., for x's pole order m and y's n
            "pole_orders": {"x": relation.degree("Y"), "y": relation.degree("X")},
            "relation": str(relation),
            "coefficients": [
                {"x_power": a, "y_power": b, "value": str(c)}
                for (a, b), c in sorted(relation.coeffs.items(), reverse=True)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(relation)
    return 0


# -------------------------------------------------------------- eliminate


def _cmd_eliminate(args) -> int:
    result = eliminate()
    ok = result["cofactor_matches"]
    mono = result["monomial"]
    if args.json:
        payload = {
            "resultant_terms": len(result["resultant"].coeffs),
            "scalar": str(result["scalar"]),
            "monomial": mono,
            "cubic": str(result["cubic"]),
            "cofactor": str(result["cofactor"]),
            "cofactor_matches": ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        stripped = "*".join(f"{v}^{e}" for v, e in mono.items() if e) or "1"
        print(f"resultant: {len(result['resultant'].coeffs)} terms")
        print(f"stripped content: scalar {result['scalar']}, monomial {stripped}")
        print(f"cubic factor: {result['cubic']}")
        print(f"cofactor: {result['cofactor']}")
        print(f"cofactor matches: {ok}")
    return 0 if ok else 1


# ----------------------------------------------------------- numeric-check


def _cmd_numeric(args) -> int:
    report = numeric.numeric_report(args.tol)
    ok = all(row["passed"] for row in report.values())
    if args.json:
        print(json.dumps({"checks": report, "passed": ok}, indent=2))
    else:
        label = max(len(name) for name in report)
        for name, row in report.items():
            verdict = "ok" if row["passed"] else "FAIL"
            print(
                f"{name:<{label}}  deviation {row['deviation']:.3e}"
                f"  (tol {row['tolerance']:.1e})  {verdict}"
            )
    return 0 if ok else 1


# ----------------------------------------------------------------- expand


def _cmd_expand(args) -> int:
    series = evaluate(parse(args.expr), args.order)
    if args.json:
        texp = series.truncation_exponent()
        payload = {
            "expr": args.expr,
            "order": args.order,
            "grid_denominator": series.D,
            "truncation_exponent": None if texp is None else str(texp),
            "terms": [
                {"exponent": str(e), "coefficient": str(c)}
                for e, c in series.items()
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
