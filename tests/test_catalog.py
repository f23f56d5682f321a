"""Identity catalog: file format, verification reports, JSON schema."""

from fractions import Fraction

import pytest

from qlambert import QSeries, constructors, dsl
from qlambert.catalog import (
    IdentityRecord,
    get_identity,
    load_catalog,
    parse_catalog,
    verify,
)
from qlambert.cli import main
from qlambert.dsl import parse_identity
from qlambert.errors import DSLError

CATALOG_NAMES = {
    "gosper-1.1",
    "gosper-1.2",
    "gosper-1.3",
    "gosper-1.4",
    "gosper-1.5",
    "gosper-1.6",
    "gosper-1.7",
    "thm-1.1",
    "thm-1.2",
    "eq-3.1-a1",
    "eq-3.1-a3",
    "eq-3.1-a5",
    "eq-3.2",
    "eq-3.8",
    "eq-4.6",
    "eq-4.7",
    "eq-4.8",
    "eq-4.9",
    "lemma-4.1-product",
    "rel-F3",
    "rel-F4",
    "elim-K",
    "lambert-odd-split",
}


def test_catalog_names_are_exactly_the_published_set():
    assert set(load_catalog()) == CATALOG_NAMES


def test_every_entry_verifies_at_its_default_truncation():
    reports = {name: verify(name) for name in sorted(load_catalog())}
    bad = [name for name, r in reports.items() if r.status != "verified"]
    assert bad == []


def test_thm_11_at_truncation_40():
    report = verify("thm-1.1", 40)
    assert report.status == "verified"
    assert report.truncation_exponent == Fraction(40)


def test_gosper_12_at_truncation_30():
    assert verify("gosper-1.2", 30).status == "verified"


def test_verification_is_monotone_in_truncation():
    # verified at the default order implies verified at anything smaller
    for name in ("gosper-1.5", "eq-3.2", "rel-F4"):
        full = verify(name)
        assert full.status == "verified"
        small = verify(name, 12)
        assert small.status == "verified"


def test_corrupted_cubic_fails_at_the_constant_term():
    text = get_identity("thm-1.1")
    left, right = parse_identity(
        "symbol(z)^3 + 4*(pi(1)/pi(7))*symbol(z)^2 - 3*(pi(1)/pi(7))^2*symbol(z)"
        " - (pi(1)/pi(7))*((pi(1)/pi(7))^4 + 4*(pi(1)/pi(7))^2 + 49) + 1 == 0"
    )
    record = IdentityRecord("corrupted", left, right, text.truncation)
    report = verify(record)
    assert report.status == "failed"
    assert report.first_nonzero == (Fraction(0), Fraction(1))


def test_sqrt_failure_reports_the_subexpression():
    left, right = parse_identity("sqrt(2 + q) == 0")
    report = verify(IdentityRecord("bad-sqrt", left, right, 10))
    assert report.status == "error"
    assert "sqrt((2 + q))" in report.detail
    assert report.grid_denominator is None
    assert report.first_nonzero is None


# ----------------------------------------------------------- window loop


def _passes(monkeypatch, record, truncation=None):
    """(report, windows of the passes): each pass evaluates both sides once
    (the symbol texts that a side's symbols are built from are not counted)."""
    orders = []
    real = dsl.evaluate
    sides = get_identity(record) if isinstance(record, str) else record

    def recording(node, order):
        if node is sides.left or node is sides.right:
            orders.append(order)
        return real(node, order)

    monkeypatch.setattr(dsl, "evaluate", recording)
    report = verify(record, truncation)
    assert len(orders) % 2 == 0 and orders[::2] == orders[1::2]
    return report, orders[::2]


def test_elim_k_needs_one_pass_at_its_predicted_window(monkeypatch):
    report, windows = _passes(monkeypatch, "elim-K")
    assert report.status == "verified" and report.truncation_exponent == 20
    # the difference at 36 ends at q^2 of the demanded q^20, which predicts
    # the window 20 + 34 + 4
    assert windows == [36, 58]
    # and one pass at the predicted window covers q^20 on its own
    record = get_identity("elim-K")
    diff = dsl.evaluate(record.left, 58) - dsl.evaluate(record.right, 58)
    assert diff.truncation_exponent() == 24 and diff.truncate(20).is_zero()


def test_entries_that_eat_little_keep_the_default_window(monkeypatch):
    for name, record in load_catalog().items():
        if name != "elim-K":
            report, windows = _passes(monkeypatch, name)
            assert report.verified and windows == [record.truncation + 16]


def _windows(monkeypatch, name):
    """The orders of every evaluation of the identity's own trees (not of
    the symbol texts its symbols are built from)."""
    orders = set()
    real = dsl._eval
    record = get_identity(name)

    def recording(node, order):
        if node is record.left or node is record.right:
            orders.add(order)
        return real(node, order)

    monkeypatch.setattr(dsl, "_eval", recording)
    assert verify(name).verified
    return sorted(orders)


@pytest.mark.parametrize("name", ["thm-1.2", "rel-F3", "rel-F4"])
def test_a_prediction_that_covers_the_truncation_keeps_its_window(monkeypatch, name):
    # the default window is the prediction: at 66 thm-1.2 is known through
    # q^53 of q^50, at 41 rel-F3 and rel-F4 through q^26 of q^25, so no node
    # is evaluated at any other window
    assert _windows(monkeypatch, name) == [get_identity(name).truncation + 16]


def test_a_prediction_that_falls_short_widens_the_window_once(monkeypatch):
    # elim-K's default window 36 falls short; every node is evaluated at it
    # and at the one wider window, and at no other
    assert _windows(monkeypatch, "elim-K") == [36, 58]


def test_verify_all_builds_each_symbol_once(monkeypatch, capsys):
    builds = []
    real = constructors._build

    def recording(name, window):
        builds.append((name, window))
        return real(name, window)

    monkeypatch.setattr(constructors, "_SYMBOL_CACHE", {})
    monkeypatch.setattr(constructors, "_build", recording)
    assert main(["verify", "--all"]) == 0
    names = [name for name, _ in builds]
    assert len(names) == len(set(names)) and "z" in names and "t" in names
    # the reports still come in name order
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(CATALOG_NAMES)


def test_a_window_that_keeps_collapsing_is_an_error(monkeypatch):
    left, right = parse_identity("L(1) == L(1)")
    record = IdentityRecord("collapsing", left, right, 10)
    monkeypatch.setattr(dsl, "evaluate", lambda node, order: QSeries.zero(T=1))
    report = verify(record)
    assert report.status == "error"
    assert report.detail == "window kept collapsing: got q^1 of the demanded q^10"
    assert report.grid_denominator is None and report.truncation_exponent is None


@pytest.mark.parametrize("name", ["elim-K", "thm-1.2", "gosper-1.3"])
def test_verdicts_at_truncations_1_to_60(name):
    for truncation in range(1, 61):
        report = verify(name, truncation)
        assert (report.status, report.grid_denominator, report.first_nonzero) == (
            "verified",
            1,
            None,
        )
        assert report.truncation_exponent == truncation


def test_report_json_schema_for_a_verified_entry():
    record = verify("gosper-1.2", 30)
    data = record.json_dict()
    assert set(data) == {
        "name",
        "status",
        "grid_denominator",
        "truncation_exponent",
        "first_nonzero",
        "elapsed_ms",
    }
    assert data["name"] == "gosper-1.2"
    assert data["status"] == "verified"
    assert isinstance(data["grid_denominator"], int)
    assert data["truncation_exponent"] == "30"
    assert data["first_nonzero"] is None
    assert isinstance(data["elapsed_ms"], float)


def test_report_json_schema_for_a_failed_entry():
    left, right = parse_identity("L(1) == L(2)")
    data = verify(IdentityRecord("mismatch", left, right, 10)).json_dict()
    assert data["status"] == "failed"
    assert data["first_nonzero"] == {"exponent": "1", "coefficient": "1"}


def test_truncation_override_must_be_positive():
    with pytest.raises(ValueError):
        verify("gosper-1.2", 0)


def test_unknown_identity():
    with pytest.raises(KeyError, match="unknown identity"):
        get_identity("nope-0.0")


def test_records_carry_notes():
    record = get_identity("elim-K")
    assert record.truncation >= 1
    assert record.note


# ------------------------------------------------------------- file format


def test_parse_catalog_roundtrip_of_a_small_file():
    text = (
        "# a comment line\n"
        "\n"
        "# name: tiny\n"
        "# order: 7\n"
        "# note: q times q\n"
        "q*q == q^2\n"
    )
    catalog = parse_catalog(text)
    assert list(catalog) == ["tiny"]
    record = catalog["tiny"]
    assert record.truncation == 7
    assert record.note == "q times q"
    assert verify(record).status == "verified"


@pytest.mark.parametrize(
    "text, message",
    [
        ("q == q\n", "identity without a '# name:' header"),
        (
            "# name: a\n# order: 5\nq == q\n# name: a\n# order: 5\nq == q\n",
            "duplicate identity name 'a'",
        ),
        ("# name: a\n# name: b\n# order: 5\nq == q\n", "duplicate 'name' header"),
        ("# name: a\n# order: five\nq == q\n", "bad order for identity 'a'"),
        ("# name: a\n# order: 5\n", "headers without an identity"),
        ("# name: a\n# order: 5\nq == q q\n", "in identity 'a'"),
    ],
)
def test_parse_catalog_rejects_malformed_files(text, message):
    with pytest.raises(DSLError, match=message):
        parse_catalog(text)
