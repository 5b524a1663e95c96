"""Artifact text: cell and config values, CSV tables and JSON documents."""

import json

import numpy as np
import pytest

from testscope.fileio import format_value, json_text, rows_to_csv


class TestFormatValue:
    @pytest.mark.parametrize(
        "value, text",
        [
            (0.1, "0.1"),
            (1.0, "1.0"),
            (-2.5e-17, "-2.5e-17"),
            (7, "7"),
            (True, "1"),
            (False, "0"),
            ("standard", "standard"),
            ("", ""),
            ((64, 64), "64,64"),
            ((1.0, 3.5), "1.0,3.5"),
            (np.int64(12), "12"),
            (np.bool_(True), "1"),
            (np.bool_(False), "0"),
        ],
    )
    def test_renders_each_kind(self, value, text):
        assert format_value(value) == text

    def test_bug_flags_print_as_trace_files_hold_them(self):
        flags = np.array([True, False, True])
        assert [format_value(f) for f in flags] == ["1", "0", "1"]
        assert [format_value(f) for f in flags.tolist()] == ["1", "0", "1"]


class TestRowsToCsv:
    def test_header_comments_then_columns_then_rows(self):
        rows = [{"a": 1, "b": 0.5, "c": "x"}, {"a": 2, "b": 2.0, "c": ""}]
        text = rows_to_csv(rows, ("a", "b"), ["first line", "second line"])
        assert text == "# first line\n# second line\na,b\n1,0.5\n2,2.0\n"

    def test_no_rows_and_no_comments(self):
        assert rows_to_csv([], ("a", "b")) == "a,b\n"

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            rows_to_csv([{"a": 1}], ("a", "b"))


def test_json_text_sorts_keys_and_ends_with_a_newline():
    text = json_text({"b": [1, 2], "a": {"d": 0.5, "c": "x"}})
    assert text.endswith("}\n")
    assert text.index('"a"') < text.index('"b"') and text.index('"c"') < text.index('"d"')
    assert json.loads(text) == {"a": {"c": "x", "d": 0.5}, "b": [1, 2]}
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
