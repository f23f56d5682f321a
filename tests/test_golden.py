"""Golden command-line output: stdout pinned byte for byte, timings masked.

The fixtures in ``tests/golden/`` hold the output of the Fraction-coefficient
implementation.  Any kernel change must reproduce them exactly.  To add a
case, append it to CASES and write ``masked(stdout)`` of the command to the
named fixture.
"""

import re
from pathlib import Path

import pytest

from qlambert.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: (fixture file, argv, expected exit code)
CASES = [
    ("verify_all.json", ["verify", "--all", "--json"], 0),
    (
        "verify_integer_residual.txt",
        ["verify", "--expr", "L(1) - L(2) == Lodd(1) + 3*q^5", "--order", "20"],
        1,
    ),
    (
        "verify_rational_residual.json",
        ["verify", "--expr", "eta(1)^2/eta(2) == theta(-1,1,-1,1) + (1/3)*q^7", "--json"],
        1,
    ),
    (
        "verify_fractional_grid.json",
        [
            "verify",
            "--expr",
            "geta(14,1)*geta(14,3) == geta(14,3)*geta(14,1) - 2*q^(31/14)",
            "--order",
            "10",
            "--json",
        ],
        1,
    ),
    (
        "verify_sqrt_error.txt",
        ["verify", "--expr", "sqrt(q^4 - q^5) + (1/2)*L(1) == q^2", "--order", "10"],
        1,
    ),
    (
        "expand_sqrt_mixed_grid.txt",
        ["expand", "sqrt(4*eta(1)^2/eta(2)^2 + (1/3)*q)", "--order", "8"],
        0,
    ),
    (
        "expand_sqrt_rational_lead.txt",
        ["expand", "sqrt((9/4)*q^3 - q^4*eta(2))*(5/7)", "--order", "9"],
        0,
    ),
    (
        "expand_sqrt_symbol.json",
        ["expand", "(2/3)*sqrt(symbol(z))", "--order", "6", "--json"],
        0,
    ),
    ("eliminate.txt", ["eliminate"], 0),
    ("eliminate.json", ["eliminate", "--json"], 0),
    (
        "find_relation_F3.txt",
        ["find-relation", "--x", "symbol(z)^2", "--y", "symbol(g)^2", "--order", "40"],
        0,
    ),
    (
        "find_relation_F3.json",
        ["find-relation", "--x", "symbol(z)^2", "--y", "symbol(g)^2", "--order", "40", "--json"],
        0,
    ),
    (
        "find_relation_F4.txt",
        ["find-relation", "--x", "symbol(t)", "--y", "symbol(g)^2", "--order", "40"],
        0,
    ),
    (
        "find_relation_F4.json",
        ["find-relation", "--x", "symbol(t)", "--y", "symbol(g)^2", "--order", "40", "--json"],
        0,
    ),
    (
        "find_relation_rational.txt",
        ["find-relation", "--x", "1/q+1/3", "--y", "1/q^2", "--order", "30"],
        0,
    ),
    (
        "expand_geta_product_sign.txt",
        ["expand", "geta(11,1)*geta(11,2)^2/geta(11,16)", "--order", "6"],
        0,
    ),
    (
        "expand_product_quotient.json",
        [
            "expand",
            "q^(-5/2)*pi(7)^2*theta(-1,8,-1,6)^2/theta(-1,1,-1,13)^2",
            "--order",
            "8",
            "--json",
        ],
        0,
    ),
    (
        "verify_eta_quotient.json",
        [
            "verify",
            "--expr",
            "eta(2)^5/(eta(1)^2*eta(4)^2) == theta(1,1,1,1) + q^200",
            "--order",
            "250",
            "--json",
        ],
        1,
    ),
]


def masked(text: str) -> str:
    text = re.sub(r'"elapsed_ms": [-+.0-9e]+', '"elapsed_ms": "<ms>"', text)
    return re.sub(r"\(\d+ ms\)", "(<ms> ms)", text)


@pytest.mark.parametrize("fixture, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_the_golden_file(capsys, fixture, argv, code):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert masked(out) == (GOLDEN / fixture).read_text()
