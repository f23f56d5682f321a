"""Command-line driver: output shapes and exit codes."""

import json

import pytest

from qlambert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ cusps


def test_cusps_14_matches_the_level_14_header(capsys):
    code, out, _ = run(capsys, "cusps", "14")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["0", "14"], ["1/2", "7"], ["1/7", "2"], ["inf", "1"]]


def test_cusps_json(capsys):
    code, out, _ = run(capsys, "cusps", "28", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 28
    assert {"cusp": "inf", "width": 1} in data["cusps"]
    assert sum(row["width"] for row in data["cusps"]) == 48


def test_cusps_rejects_a_bad_level(capsys):
    code, _, err = run(capsys, "cusps", "0")
    assert code == 2
    assert "positive" in err


def test_levels_past_the_bound_exit_2(capsys):
    for argv in (("cusps", "100000001"), ("ord-table", "eta(1)", "--level", "100000001")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "above the largest supported level 100000000" in err


# -------------------------------------------------------------- ord-table


def test_ord_table_builtin_31(capsys):
    code, out, _ = run(capsys, "ord-table", "tables/3.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["cusp", "0", "1/2", "1/7", "inf"]
    grid = [line.split() for line in lines[1:]]
    assert grid == [
        ["g1^2", "0", "1", "0", "-5"],
        ["g2^2", "0", "1", "0", "-1"],
        ["g3^2", "0", "1", "0", "3"],
    ]


def test_ord_table_builtin_json(capsys):
    code, out, _ = run(capsys, "ord-table", "4.2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "4.2"
    assert data["level"] == 14
    assert len(data["rows"]) == 2
    assert all(len(row["orders"]) == 4 for row in data["rows"])


def test_ord_table_quotient_orders_sum_against_known_symbol(capsys):
    # geta(14,6)^2/geta(14,1)^2 is the first index-shifted quotient; its
    # pole at infinity is half the tabulated square
    code, out, _ = run(
        capsys, "ord-table", "geta(14,6)^2/geta(14,1)^2", "--level", "14", "--json"
    )
    assert code == 0
    data = json.loads(out)
    orders = {row["cusp"]: row["order"] for row in data["orders"]}
    assert orders == {"0": "0", "1/2": "1/2", "1/7": "0", "inf": "-5/2"}


def test_ord_table_quotient_weight_zero_eta(capsys):
    code, out, _ = run(
        capsys,
        "ord-table",
        "eta(2)^4*eta(7)^2/(eta(1)^2*eta(14)^4)",
        "--level",
        "14",
    )
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [
        ["0", "0"],
        ["1/2", "3/2"],
        ["1/7", "0"],
        ["inf", "-3/2"],
    ]


def test_ord_table_quotient_needs_level(capsys):
    code, _, err = run(capsys, "ord-table", "eta(2)^4")
    assert code == 2
    assert "--level" in err


def test_ord_table_rejects_non_quotients(capsys):
    code, _, err = run(capsys, "ord-table", "symbol(z)", "--level", "14")
    assert code == 2
    assert "product of eta(d), pi(k), geta(M,g) and theta powers" in err


# ----------------------------------------------------------------- verify


def test_verify_single_name(capsys):
    code, out, _ = run(capsys, "verify", "gosper-1.2")
    assert code == 0
    assert out.startswith("gosper-1.2: verified through q^40")


def test_verify_all_json_is_sorted_and_green(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--json")
    assert code == 0
    data = json.loads(out)
    names = [row["name"] for row in data]
    assert len(names) == 23
    assert names == sorted(names)
    assert all(row["status"] == "verified" for row in data)
    for row in data:
        assert set(row) == {
            "name",
            "status",
            "grid_denominator",
            "truncation_exponent",
            "first_nonzero",
            "elapsed_ms",
        }


def test_verify_inline_expression(capsys):
    code, out, _ = run(
        capsys, "verify", "--expr", "q*q == q^2", "--order", "5"
    )
    assert code == 0
    assert "verified" in out


def test_verify_inline_failure_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "L(1) == L(2)", "--order", "8")
    assert code == 1
    assert "FAILED" in out
    assert "q^1" in out


@pytest.mark.parametrize(
    "selection", [["thm-1.1"], ["--expr", "eta(1) == eta(1) + q^50"]]
)
@pytest.mark.parametrize("order", ["0", "-3"])
def test_verify_rejects_a_truncation_below_1(capsys, selection, order):
    code, out, err = run(capsys, "verify", *selection, "--order", order)
    assert code == 2
    assert out == ""
    assert "truncation must be a positive integer" in err


def test_verify_selection_is_exclusive(capsys):
    code, _, err = run(capsys, "verify", "thm-1.1", "--all")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "gosper-9.9")
    assert code == 2
    assert "unknown identity" in err


# ------------------------------------------------------------------ expand


def test_expand_prints_the_series(capsys):
    code, out, _ = run(capsys, "expand", "symbol(z)", "--order", "3")
    assert code == 0
    assert out.startswith("q^(-5/2) + 2*q^(-3/2) + 4*q^(-1/2)")


def test_expand_divides_a_truncated_zero_by_an_exact_series(capsys):
    text = "(symbol(z) - symbol(z))/(q + q^2)"
    code, out, _ = run(capsys, "expand", text, "--order", "5")
    assert (code, out.strip()) == (0, "O(q^(3/2))")


@pytest.mark.parametrize(
    "text, printed",
    [
        ("1/(1-q)", "1 + q + q^2 + q^3 + q^4 + q^5 + O(q^6)"),
        ("(1-q)^-1", "1 + q + q^2 + q^3 + q^4 + q^5 + O(q^6)"),
        ("sqrt(1+q)", "1 + 1/2*q - 1/8*q^2 + 1/16*q^3 - 5/128*q^4 + 7/256*q^5 + O(q^6)"),
        ("q/(q^2-q^3)", "q^-1 + 1 + q + q^2 + O(q^3)"),
    ],
)
def test_expand_cuts_an_exact_operand_at_the_order(capsys, text, printed):
    # an exact polynomial has no end to its inverse or square root
    code, out, _ = run(capsys, "expand", text, "--order", "6")
    assert (code, out.strip()) == (0, printed)
    code, out, _ = run(capsys, "verify", "--expr", f"{text} == {text} + q^6", "--order", "6")
    assert code == 0 and "verified through q^6" in out


def test_expand_json_shape(capsys):
    # a polynomial in q evaluates exactly, so there is no truncation bound
    code, out, _ = run(capsys, "expand", "1 + 2*q", "--order", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["grid_denominator"] == 1
    assert data["truncation_exponent"] is None
    assert data["terms"] == [
        {"exponent": "0", "coefficient": "1"},
        {"exponent": "1", "coefficient": "2"},
    ]
    code, out, _ = run(capsys, "expand", "eta(1)", "--order", "4", "--json")
    data = json.loads(out)
    assert data["truncation_exponent"] == "97/24"
    assert data["terms"][0] == {"exponent": "1/24", "coefficient": "1"}
    assert data["grid_denominator"] == 24


def test_expand_reports_syntax_errors(capsys):
    code, _, err = run(capsys, "expand", "q^^2", "--order", "4")
    assert code == 2
    assert "expected an exponent" in err


def test_expand_reports_evaluation_errors(capsys):
    code, _, err = run(capsys, "expand", "sqrt(2 + q)", "--order", "4")
    assert code == 2
    assert "sqrt((2 + q))" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "theta(1,1,1,1)", "--order", "100000000000"),
        ("verify", "--expr", "eta(1) == eta(1)", "--order", "100000000000"),
    ],
)
def test_running_out_of_memory_exits_2(capsys, monkeypatch, argv):
    # every product leaf, on either route, goes through _qproduct, which here
    # raises at once: nothing is allocated at the order asked for
    from qlambert import constructors

    calls = []

    def out_of_memory(statement, order, route=None):
        calls.append(order)
        raise MemoryError

    monkeypatch.setattr(constructors, "_qproduct", out_of_memory)
    code, out, err = run(capsys, *argv)
    assert calls
    assert (code, out) == (2, "")
    assert err == "error: out of memory; try a smaller --order\n"


# ---------------------------------------------------------- find-relation


def test_find_relation_recovers_the_z_square_polynomial(capsys):
    code, out, _ = run(
        capsys,
        "find-relation",
        "--x",
        "symbol(z)^2",
        "--y",
        "symbol(g)^2",
        "--order",
        "45",
    )
    assert code == 0
    assert out.strip() == (
        "X^3 - 22*X^2*Y + 8*X*Y^3 + 41*X*Y^2 + 392*X*Y"
        " - Y^5 - 8*Y^4 - 114*Y^3 - 392*Y^2 - 2401*Y"
    )


def test_find_relation_json_carries_pole_orders(capsys):
    code, out, _ = run(
        capsys,
        "find-relation",
        "--x",
        "symbol(t)",
        "--y",
        "symbol(g)^2",
        "--order",
        "45",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pole_orders"] == {"x": 5, "y": 3}
    assert any(
        row == {"x_power": 3, "y_power": 0, "value": "1"}
        for row in data["coefficients"]
    )


def test_find_relation_insufficient_order_exits_1(capsys):
    code, _, err = run(
        capsys,
        "find-relation",
        "--x",
        "symbol(z)^2",
        "--y",
        "symbol(g)^2",
        "--order",
        "12",
    )
    assert code == 1
    assert "insufficient truncation" in err


# --------------------------------------------------- eliminate and numeric


def test_eliminate_summary(capsys):
    code, out, _ = run(capsys, "eliminate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cofactor_matches"] is True
    assert data["scalar"] == "1"
    assert data["cubic"].startswith("F^3*G^6")


def test_numeric_check_passes_at_default_tolerances(capsys):
    code, out, _ = run(capsys, "numeric-check")
    assert code == 0
    assert "eta_inversion" in out
    assert "FAIL" not in out


def test_numeric_check_json_with_uniform_tolerance(capsys):
    code, out, _ = run(capsys, "numeric-check", "--tol", "1e-20", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["checks"]["sign_laws"]["passed"] is True


# ------------------------------------------------------------------- usage


def test_unknown_command_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out
