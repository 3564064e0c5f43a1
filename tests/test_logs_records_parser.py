"""Tests for audit-log records."""

from __future__ import annotations

from repro.logs.records import LogCategory, make_record


def test_make_record_converts_values_to_strings():
    record = make_record(1.5, "n1", LogCategory.MPR, "MPR_SELECTED",
                         mpr="n2", covered=["b", "a"], count=3, ratio=0.25)
    assert record.fields["mpr"] == "n2"
    assert record.fields["covered"] == "a,b"
    assert record.fields["count"] == "3"
    assert record.fields["ratio"].startswith("0.25")


def test_make_record_skips_none_values():
    record = make_record(0.0, "n1", LogCategory.SYSTEM, "CONFIG", nothing=None, some=1)
    assert "nothing" not in record.fields
    assert "some" in record.fields


def test_record_get_and_get_list():
    record = make_record(0.0, "n1", LogCategory.MPR, "MPR_SET_CHANGED",
                         mprs=["a", "b"], empty=[])
    assert record.get("mprs") == "a,b"
    assert record.get_list("mprs") == ["a", "b"]
    assert record.get_list("empty") == []
    assert record.get_list("absent") == []
    assert record.get("absent", "fallback") == "fallback"


def test_category_str_is_wire_value():
    assert str(LogCategory.MESSAGE_RX) == "MSG_RX"
    assert LogCategory("MSG_RX") is LogCategory.MESSAGE_RX
