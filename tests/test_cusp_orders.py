"""Cusp-order rows: gamma0._orders, the order tables built from it, and the
ord-table command's reading of a quotient spec through the DSL's product
leaves, against the tree walk it replaced (dsl_oracle.quotient_orders)."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle as oracle
import orders_oracle
from qlambert import cli, constructors, gamma0, level14, numeric
from qlambert.cli import main
from qlambert.constructors import EtaQuotient, GenEtaQuotient
from qlambert.dsl import Call, _product_calls, evaluate, parse, to_text
from qlambert.gamma0 import _orders, cusp_set, eta_cusp_order, gen_eta_cusp_ord

SPEC_ERROR = (
    "quotient spec must be a product of eta(d), pi(k), geta(M,g) and theta powers"
    " whose q power is its order at infinity"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ _orders


@st.composite
def _factors_level_cusps(draw):
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, 40))
        if draw(st.booleans()):
            deltas = [d for d in range(1, m + 1) if m % d == 0]
            exps = draw(st.dictionaries(st.sampled_from(deltas), st.integers(-6, 6)))
            quot = EtaQuotient(m, exps)
        else:
            indices = st.integers(1, max(1, m // 2))
            exps = draw(st.dictionaries(indices, st.integers(-6, 6))) if m > 1 else {}
            quot = GenEtaQuotient(m, exps)
        factors.append((quot, draw(st.integers(-4, 4))))
    return (factors, *_level_and_cusps(draw))


def _level_and_cusps(draw):
    # a level, its cusp representatives and up to three other cusps
    n = draw(st.integers(1, 60))
    cusps = list(cusp_set(n).cusps)
    cusps += draw(
        st.lists(
            st.tuples(st.integers(-300, 300), st.integers(0, 300)).map(
                lambda ac: gamma0.Cusp(ac[0] or 1, ac[1])
            ),
            max_size=3,
        )
    )
    return n, cusps


@settings(max_examples=200)
@given(_factors_level_cusps())
def test_orders_is_the_sum_of_the_per_type_orders(case):
    factors, n, cusps = case
    row = _orders(factors, n, cusps)
    want = tuple(
        sum((r * orders_oracle.order(q, n, c) for q, r in factors), Fraction(0))
        for c in cusps
    )
    assert row == want
    assert all(type(v) is Fraction for v in row)


@st.composite
def _calls_level_cusps(draw):
    # eta(d), geta(M,g) and pi(k) statements to powers, each next to its
    # family's quotient: pi(k) as eta(2k)^4/eta(k)^2, a geta index folded
    parts, quots = [], []
    for _ in range(draw(st.integers(0, 5))):
        kind, r = draw(st.sampled_from(("eta", "geta", "pi"))), draw(st.integers(-4, 4))
        if kind == "eta":
            d = draw(st.integers(1, 40))
            parts.append((constructors.eta_statement(d), r))
            quots.append((EtaQuotient(d, {d: 1}), r))
        elif kind == "pi":
            k = draw(st.integers(1, 20))
            parts.append((constructors.pi_statement(k), r))
            quots.append((EtaQuotient(2 * k, {2 * k: 4, k: -2}), r))
        else:
            m = draw(st.integers(2, 40))
            g = draw(st.integers(-m, 2 * m).filter(lambda g: g % m))
            parts.append((constructors.gen_eta_statement(m, g), r))
            quots.append((GenEtaQuotient(m, {min(g % m, m - g % m): 1}), r))
    return (parts, quots, *_level_and_cusps(draw))


@settings(max_examples=200)
@given(_calls_level_cusps())
def test_merged_statements_are_the_sum_of_the_oracles(case):
    # one statement of eta, geta and pi factors, read by the one formula
    parts, quots, n, cusps = case
    factors, _, _ = constructors._power_product(parts)
    want = tuple(
        sum((r * orders_oracle.order(q, n, c) for q, r in quots), Fraction(0))
        for c in cusps
    )
    assert gamma0._factor_orders(factors, n, cusps) == want


def test_orders_at_mixed_level_is_table_4_2():
    # level-28 generalized eta quotients against level-14 widths, and an eta
    # quotient of level 28 alongside
    cusps = (gamma0.Cusp(1, 1), gamma0.Cusp(1, 2), gamma0.Cusp(1, 7), gamma0.Cusp(1, 14))
    h1, h2 = level14.H1_GEN, level14.H2_GEN
    assert _orders([(h1, 1)], 14, cusps) == (0, 2, 0, 2)
    assert _orders([(h2, -1)], 14, cusps) == (0, 1, 0, -5)
    mixed = [(h1, 3), (h2, -2), (level14.H1_ETA, 1)]
    assert _orders(mixed, 14, cusps) == tuple(
        3 * gen_eta_cusp_ord(h1, 14, c)
        - 2 * gen_eta_cusp_ord(h2, 14, c)
        + eta_cusp_order(level14.H1_ETA, 14, c)
        for c in cusps
    )


# ------------------------------------------------------------- order tables


@pytest.mark.parametrize("table_id", level14.TABLE_IDS)
def test_order_tables_run_no_class_search(table_id, monkeypatch):
    def refuse(*args):
        raise AssertionError("an order table searched the cusp classes")

    want = level14.order_table(table_id)
    monkeypatch.setattr(gamma0, "cusp_equivalent", refuse)
    monkeypatch.setattr(gamma0, "class_representative", refuse)
    assert level14.order_table(table_id) == want
    assert level14.order_table("tables/" + table_id) == want


# -------------------------------------------------------- reading a spec


# geta indices run from -M to 2M: both laws fold them into 1..M/2, and the
# multiples of M are rejected
_ATOMS = st.one_of(
    st.integers(1, 30).map(lambda d: f"eta({d})"),
    st.integers(1, 24).flatmap(
        lambda m: st.integers(-m, 2 * m).map(lambda g: f"geta({m},{g})")
    ),
)


@st.composite
def _spec(draw, atoms=_ATOMS, levels=st.integers(1, 42)):
    # products, quotients and integer powers over a few atoms, so that calls
    # repeat and their exponents can cancel
    atoms = draw(st.lists(atoms, min_size=1, max_size=4))

    def build(depth):
        op = draw(st.sampled_from("a*/^")) if depth else "a"
        if op == "a":
            return draw(st.sampled_from(atoms))
        if op == "^":
            return f"({build(depth - 1)})^{draw(st.integers(-3, 3))}"
        return f"({build(depth - 1)}){op}({build(depth - 1)})"

    return build(3), draw(levels)


def _outcome(func, *args):
    try:
        return "value", func(*args)
    except ValueError as err:
        return "error", str(err)


@settings(max_examples=300)
@given(_spec())
def test_spec_orders_agree_with_the_tree_walk(case):
    text, level = case
    assert _outcome(cli._quotient_orders, text, level) == _outcome(
        oracle.quotient_orders, text, level
    )


@settings(max_examples=200)
@given(_spec())
def test_product_calls_are_the_tree_walks_exponents(case):
    # the product of call^r over the DSL's calls walks to the spec's
    # exponents, the folded geta indices and a rejected index included
    text, _ = case
    calls = _product_calls(parse(text))
    restated = "*".join(f"({to_text(call)})^{r}" for call, r in calls.items())

    def walked(text):
        eta_exps, gen_exps = {}, {}
        oracle.collect_factors(parse(text), 1, eta_exps, gen_exps)
        return eta_exps, gen_exps

    assert _outcome(walked, restated) == _outcome(walked, text)


def test_spec_with_mixed_geta_levels_and_cancelled_exponents():
    text = "geta(14,1)*eta(2)/geta(7,3)^2*geta(7,3)^2*eta(7)/eta(7)"
    calls = _product_calls(parse(text))
    assert calls == {
        Call("geta", (14, 1)): 1,
        Call("eta", (2,)): 1,
        Call("geta", (7, 3)): 0,
        Call("eta", (7,)): 0,
    }
    assert cli._quotient_orders(text, 14) == oracle.quotient_orders(text, 14)


def test_ord_table_folds_geta_indices(capsys):
    # eta_{7,4} = eta_{7,3} and eta_{7,-1} = -eta_{7,1}: equal orders, and the
    # exponents of calls that meet at one index add up
    rows = {}
    for text in ("geta(7,3)", "geta(7,4)", "geta(7,1)", "geta(7,-1)", "geta(7,3)^2"):
        rows[text] = run(capsys, "ord-table", text, "--level", "14")
        assert rows[text][0] == 0
    assert rows["geta(7,4)"] == rows["geta(7,3)"]
    assert rows["geta(7,-1)"] == rows["geta(7,1)"] != rows["geta(7,3)"]
    both = run(capsys, "ord-table", "geta(7,3)*geta(7,4)", "--level", "14")
    assert both == rows["geta(7,3)^2"]


@pytest.mark.parametrize("text", ["geta(7,7)", "geta(7,-14)*geta(7,1)", "geta(7,0)^0"])
def test_ord_table_rejects_a_geta_index_as_expand_does(capsys, text):
    code, out, err = run(capsys, "ord-table", text, "--level", "14")
    assert (code, out) == (2, "")
    assert err == run(capsys, "expand", text, "--order", "5")[2]
    assert "index g must not be divisible by the level in 'geta(7, " in err


@pytest.mark.parametrize("text", ["eta(0)", "eta(-2)", "eta(2)*eta(0)^0"])
def test_ord_table_rejects_a_nonpositive_eta_argument_as_expand_does(capsys, text):
    code, out, err = run(capsys, "ord-table", text, "--level", "14")
    assert (code, out) == (2, "")
    assert err == run(capsys, "expand", text, "--order", "5")[2]
    assert "eta argument must be a positive integer in 'eta(" in err


@pytest.mark.parametrize(
    "text, want",
    [
        ("1", {}),
        ("q/q", {}),
        ("q^0", {}),
        ("eta(1)^0", {Call("eta", (1,)): 0}),
        ("eta(1)/eta(1)", {Call("eta", (1,)): 0}),
        ("q*eta(1)/q", {Call("eta", (1,)): 1}),
        ("1/geta(14,3)^2", {Call("geta", (14, 3)): -2}),
        ("eta(1)*pi(2)", {Call("eta", (1,)): 1, Call("pi", (2,)): 1}),
    ],
)
def test_product_calls_of_accepted_shapes(text, want):
    assert _product_calls(parse(text)) == want


@pytest.mark.parametrize(
    "text",
    [
        "symbol(z)",
        "symbol(z)^0*eta(1)",
        "eta(1)+eta(2)",
        "eta(1)-eta(1)",
        "2*eta(1)",
        "eta(1)/3",
        "-eta(1)",
        "0",
        "2",
        "q",
        "q*eta(1)",
        "eta(1)/q^2",
        "q^(1/2)*eta(2)",
        "eta(1)^(1/2)",
        "sqrt(eta(1)^2)",
        "subq(eta(1),2)",
        "L(1)*eta(1)",
        "eta(1)/symbol(z)",
    ],
)
def test_product_calls_rejects_other_shapes(text):
    assert _product_calls(parse(text)) is None


def test_ord_table_of_pi_quotient_is_the_table_g(capsys):
    # g = Pi_q / Pi_{q^7}, the symbol table's eta quotient
    g = constructors._SYMBOLS["g"]
    cusps = cusp_set(14).cusps
    want = "".join(f"{str(r):<3}  {v}\n" for r, v in zip(cusps, _orders([(g, 1)], 14, cusps)))
    assert run(capsys, "ord-table", "pi(1)/pi(7)", "--level", "14") == (0, want, "")


@pytest.mark.parametrize(
    "text, eta_form",
    [
        ("pi(1)", "eta(2)^4/eta(1)^2"),
        ("eta(1)*pi(1)", "eta(2)^4/eta(1)"),
        ("pi(7)^2*eta(14)^-8", "eta(7)^-4"),
        ("pi(1)/pi(1)", "1"),
    ],
)
def test_ord_table_reads_pi_as_its_eta_quotient(capsys, text, eta_form):
    got = run(capsys, "ord-table", text, "--level", "14", "--json")
    want = run(capsys, "ord-table", eta_form, "--level", "14", "--json")
    assert got[0] == 0 and json.loads(got[1])["orders"] == json.loads(want[1])["orders"]


def test_ord_table_rejects_a_nonpositive_pi_argument_as_expand_does(capsys):
    code, out, err = run(capsys, "ord-table", "pi(0)", "--level", "14")
    assert (code, out) == (2, "")
    assert err == run(capsys, "expand", "pi(0)", "--order", "5")[2]
    assert err == "error: argument must be a positive integer in 'pi(0)'\n"


@pytest.mark.parametrize(
    "text",
    [
        "theta(1,1,1,2)",
        "symbol(g)",
        "eta(1)+eta(2)",
        "2*eta(1)",
        "eta(1)/2",
        "q*eta(1)",
        "q^2",
        "eta(2)^(1/2)",
        "sqrt(eta(1))",
    ],
)
def test_ord_table_rejects_what_is_no_quotient(capsys, text):
    code, out, err = run(capsys, "ord-table", text, "--level", "14")
    assert (code, out) == (2, "")
    assert err == f"error: {SPEC_ERROR}\n"


@pytest.mark.parametrize(
    "text, m, call",
    [
        ("pi(3)", 3, "pi(3)"),
        ("eta(1)*pi(3)", 3, "pi(3)"),
        ("eta(3)*pi(3)", 3, "eta(3)"),
        ("eta(3)/eta(3)*pi(3)", 3, "pi(3)"),
        ("eta(3)^2*pi(3)*eta(9)", 6, "pi(3)"),
        ("theta(1,3,1,3)^2", 6, "theta(1, 3, 1, 3)"),
    ],
)
def test_ord_table_names_the_call_of_an_eta_factor_off_the_level(capsys, text, m, call):
    # the least offending (q^M; q^M) of the merged statement, named by the
    # first call that holds it with a nonzero exponent
    code, out, err = run(capsys, "ord-table", text, "--level", "14")
    assert (code, out) == (2, "")
    assert err == f"error: eta argument {m} does not divide the level 14 in '{call}'\n"


@pytest.mark.parametrize(
    "text, same",
    [
        ("eta(3)/eta(3)", "1"),
        ("pi(3)/pi(3)*eta(2)", "eta(2)"),
        ("eta(3)^2*pi(3)/eta(6)^4*eta(7)", "eta(7)"),
    ],
)
def test_ord_table_accepts_a_cancelled_factor_off_the_level(capsys, text, same):
    got = run(capsys, "ord-table", text, "--level", "14")
    assert got[0] == 0 and got == run(capsys, "ord-table", same, "--level", "14")


@pytest.mark.parametrize(
    "text, eta_form, level",
    [
        ("theta(-1,1,-1,1)", "eta(1)^2/eta(2)", "14"),
        ("theta(1,1,1,1)", "eta(2)^5/(eta(1)^2*eta(4)^2)", "4"),
        ("theta(1,1,1,1)^-3*eta(4)", "eta(1)^6*eta(4)^7/eta(2)^15", "4"),
    ],
)
def test_ord_table_reads_theta_as_its_quotient(capsys, text, eta_form, level):
    got = run(capsys, "ord-table", text, "--level", level)
    assert got[0] == 0 and got == run(capsys, "ord-table", eta_form, "--level", level)


def test_ord_table_rows_of_theta_at_level_14(capsys):
    got = run(capsys, "ord-table", "theta(-1,1,-1,1)", "--level", "14")
    assert got == (0, "0    7/8\n1/2  0\n1/7  1/8\ninf  0\n", "")


def test_theta_is_a_quotient_exactly_when_its_exponents_are_equal():
    # theta(sa,a,sb,b) with a != b is q^(-x) times a quotient for some x != 0
    accepted = []
    for sa, sb, a, b in itertools.product((1, -1), (1, -1), range(1, 7), range(1, 7)):
        text = f"theta({sa},{a},{sb},{b})"
        outcome = _outcome(cli._quotient_orders, text, 4 * (a + b))
        assert outcome[0] == "value" or outcome == ("error", SPEC_ERROR)
        if outcome[0] == "value":
            accepted.append((a, b))
    assert len(accepted) == 24 and all(a == b for a, b in accepted)


_ATOMS_ALL = st.one_of(
    st.integers(1, 8).map(lambda d: f"eta({d})"),
    st.integers(1, 4).map(lambda k: f"pi({k})"),
    st.integers(2, 12).flatmap(
        lambda m: st.integers(1, m - 1).map(lambda g: f"geta({m},{g})")
    ),
    st.tuples(*[st.sampled_from((1, -1)), st.integers(1, 3)] * 2).map(
        lambda t: "theta(%d,%d,%d,%d)" % t
    ),
)


@settings(max_examples=100)
@given(_spec(_ATOMS_ALL, st.sampled_from((840, 1680))))
def test_the_infinity_row_of_an_accepted_spec_is_its_valuation(case):
    # every eta factor here divides the level, so a spec is refused only
    # when its q power is not its order at infinity
    text, level = case
    outcome = _outcome(cli._quotient_orders, text, level)
    if outcome == ("error", SPEC_ERROR):
        assert "theta" in text
        return
    (cusp, order) = outcome[1][-1]
    assert str(cusp) == "inf"
    assert order == evaluate(parse(text), 2).valuation()


# --------------------------------------------------------- usage errors


def test_ord_table_builtin_rejects_a_level(capsys):
    code, out, err = run(capsys, "ord-table", "3.1", "--level", "28")
    assert (code, out) == (2, "")
    assert "takes no --level" in err
    code, out, _ = run(capsys, "ord-table", "tables/4.1", "--level", "28", "--json")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("level", [[], ["--level", "14"]])
def test_ord_table_unknown_table_id(capsys, level):
    code, out, err = run(capsys, "ord-table", "tables/9.9", *level)
    assert (code, out) == (2, "")
    assert err == "error: unknown table id 'tables/9.9'; known: 3.1, 3.2, 4.1, 4.2\n"


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_numeric_report_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        numeric.numeric_report(tol)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400", "-inf"])
def test_numeric_check_bad_tolerance_is_a_usage_error(capsys, tol):
    code, out, err = run(capsys, "numeric-check", f"--tol={tol}", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be a finite number >= 0")


def test_numeric_check_takes_tolerance_zero(capsys):
    code, out, _ = run(capsys, "numeric-check", "--tol", "0", "--json")
    checks = json.loads(out)["checks"]
    assert all(row["tolerance"] == 0 for row in checks.values())
    assert checks["sign_laws"]["passed"] is True
    assert code == (0 if all(row["passed"] for row in checks.values()) else 1)
