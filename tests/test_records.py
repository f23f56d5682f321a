"""The record classes outside the DSL tree are named tuples or slotted
classes; their constructors, checks, equality, hashing, order and
immutability are pinned here."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlambert import dsl, level14
from qlambert.catalog import IdentityRecord, VerifyReport, verify
from qlambert.constructors import EtaQuotient, EtaTypeProduct, GenEtaQuotient, ThetaPower
from qlambert.gamma0 import Cusp, CuspTable, cusp_set
from qlambert.level14 import TableReport, order_table

# ------------------------------------------------------------------ Cusp


@pytest.mark.parametrize(
    "args, fields",
    [
        ((2, -4), (-1, 2)),
        ((-6, -9), (2, 3)),
        ((0, -5), (0, 1)),
        ((-3, 0), (1, 0)),
        ((7, 0), (1, 0)),
        ((5, 1), (5, 1)),
    ],
)
def test_cusp_is_normalised(args, fields):
    cusp = Cusp(*args)
    assert (cusp.a, cusp.c) == fields
    assert cusp == Cusp(*fields)
    assert hash(cusp) == hash(Cusp(*fields)) == hash(fields)


def test_cusp_text():
    assert [str(Cusp(*f)) for f in ((1, 0), (0, 1), (3, 1), (-1, 2), (3, 14))] == [
        "inf",
        "0",
        "3",
        "-1/2",
        "3/14",
    ]
    assert repr(Cusp(2, -4)) == "Cusp(-1, 2)"
    assert str(cusp_set(14).cusps) == "(Cusp(0, 1), Cusp(1, 2), Cusp(1, 7), Cusp(1, 0))"


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=12))
def test_cusps_sort_by_numerator_then_denominator(pairs):
    cusps = [Cusp(a, c) for a, c in pairs if (a, c) != (0, 0)]
    assert sorted(cusps) == sorted(cusps, key=lambda r: (r.a, r.c))
    assert len(set(cusps)) == len({(r.a, r.c) for r in cusps})


def test_cusp_rejects_bad_entries():
    with pytest.raises(TypeError, match="cusp entries must be integers"):
        Cusp(F(1, 2), 3)
    with pytest.raises(ValueError, match="0/0 is not a cusp"):
        Cusp(0, 0)


def test_cusp_table_reads_as_before():
    table = cusp_set(14)
    assert table == cusp_set(14) and hash(table) == hash(cusp_set(14))
    assert table != cusp_set(28)
    assert len(table) == 4 and list(table) == list(table.entries)
    assert table.widths == (14, 7, 2, 1)
    assert repr(CuspTable(1, ((Cusp(1, 0), 1),))) == (
        "CuspTable(level=1, entries=((Cusp(1, 0), 1),))"
    )


# -------------------------------------------------------------- quotients


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EtaQuotient(0, {1: 1}), "level must be a positive integer"),
        (lambda: EtaQuotient(14, {3: 1}), "eta argument 3 does not divide the level 14"),
        (lambda: EtaQuotient(14, {0: 1}), "eta argument 0 does not divide the level 14"),
        (lambda: GenEtaQuotient(0, {1: 1}), "level must be a positive integer"),
        (lambda: GenEtaQuotient(14, {8: 1}), "index 8 outside 1..7 for level 14"),
        (lambda: GenEtaQuotient(14, {0: 1}), "index 0 outside 1..7 for level 14"),
    ],
)
def test_quotient_errors(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_quotients_clean_their_exponents():
    quot = EtaQuotient(level=14, exponents={7: 2, 1: -2, 2: 0})
    assert quot == EtaQuotient(14, {1: -2, 7: 2})
    assert list(quot.exponents) == [1, 7]
    assert repr(quot) == "EtaQuotient(level=14, exponents={1: -2, 7: 2})"
    assert GenEtaQuotient(14, {6: 2, 1: -2, 3: 0}).exponents == {1: -2, 6: 2}
    assert EtaTypeProduct([]).q_exponent == 0


def test_the_quotient_series_method_is_bound_in_each_class():
    # a tracer wraps the product layer where each class binds it
    for cls in (EtaQuotient, GenEtaQuotient, EtaTypeProduct, ThetaPower):
        assert "series" in vars(cls)


# ----------------------------------------------------------- immutability


@pytest.mark.parametrize(
    "record, field",
    [
        (Cusp(1, 2), "a"),
        (cusp_set(14), "level"),
        (IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5), "truncation"),
        (verify(IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5)), "status"),
        (GenEtaQuotient(14, {1: -2, 6: 2}), "level"),
        (order_table("3.1"), "rows"),
        (dsl._Product(frozenset(), F(0)), "qexp"),
        (EtaQuotient(14, {1: 1}), "exponents"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "record",
    [
        Cusp(2, -4),
        cusp_set(14),
        IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5),
        verify(IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5)),
        order_table("4.1"),
        dsl._Product(frozenset({(dsl.Call("eta", (1,)), 2)}), F(1, 2)),
        EtaQuotient(14, {1: 1}),
        GenEtaQuotient(14, {1: -2, 6: 2}),
        EtaTypeProduct([], F(1, 3)),
        ThetaPower(-1, 1, -1, 1, 2, F(1, 3)),
    ],
)
def test_records_copy_and_pickle(record):
    copies = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    for again in copies:
        assert type(again) is type(record) and again == record


def test_product_keys_compare_and_hash_in_c():
    # a product leaf is a memo key; generic Python methods would slow
    # every evaluation down
    assert dsl._Product.__eq__ is tuple.__eq__
    assert dsl._Product.__hash__ is tuple.__hash__


def test_records_keep_their_fields_and_methods():
    report = verify(IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5))
    assert report.verified and report.json_dict()["status"] == "verified"
    assert VerifyReport._fields[-1] == "detail" and report.detail == ""
    record = IdentityRecord("x", dsl.parse("q"), dsl.parse("q"), 5)
    assert (record.note, record.source) == ("", "")
    assert order_table("3.1").row("g1^2") == (0, 1, 0, -5)
    assert TableReport._fields == ("table_id", "group_level", "columns", "rows")


def test_unknown_level14_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'EQ99'"):
        level14.EQ99
