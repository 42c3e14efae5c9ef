"""Number formatting and table rendering."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from libcat.render import format_percent, format_rate, render_table


class TestFormatPercent:
    def test_known_shares(self):
        assert format_percent(2505, 5804) == "43.16"
        assert format_percent(9781, 10_000) == "97.81"
        assert format_percent(1, 1) == "100.00"
        assert format_percent(0, 7) == "0.00"

    def test_half_up_at_the_boundary(self):
        # 1/800 = 0.125% exactly; half-up rounds the tie upward
        assert format_percent(1, 800) == "0.13"
        assert format_percent(1, 1600) == "0.06"

    def test_requires_positive_total(self):
        with pytest.raises(ValueError):
            format_percent(1, 0)
        with pytest.raises(ValueError):
            format_percent(1, -5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_matches_integer_arithmetic_oracle(self, count, total):
        assert format_percent(count, total) == oracles.percent_string(count, total)


class TestFormatRate:
    def test_four_decimal_places(self):
        assert format_rate(1.0) == "1.0000"
        assert format_rate(2 / 3) == "0.6667"
        assert format_rate(417 / (121 * 42)) == "0.0821"
        assert format_rate(-0.94868) == "-0.9487"

    def test_negative_zero_is_normalized(self):
        assert format_rate(-0.00001) == "0.0000"
        assert format_rate(-0.0) == "0.0000"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_integer_arithmetic_oracle_on_exact_ratios(self, num, den):
        # restrict to ratios that floats represent exactly enough: compare
        # only when the float is within half an ulp of the true ratio at
        # the 4th decimal, which holds for den that are powers of two
        den = 2 ** (den % 10)
        assert format_rate(num / den) == oracles.rate_string(num, den)


class TestRenderTable:
    HEADERS = ["name", "value"]
    ROWS = [["alpha", "1"], ["beta", "2"]]

    def test_markdown_pipe_table(self):
        got = render_table(self.HEADERS, self.ROWS, "md")
        assert got.splitlines() == [
            "| name | value |",
            "| --- | --- |",
            "| alpha | 1 |",
            "| beta | 2 |",
        ]

    def test_markdown_escapes_pipes(self):
        got = render_table(["h"], [["a|b"]], "md")
        assert "a\\|b" in got

    def test_markdown_writes_line_breaks_as_br(self):
        got = render_table(["h"], [["one\r\ntwo\rthree\nfour|five"]], "md")
        assert got.splitlines()[2] == "| one<br>two<br>three<br>four\\|five |"

    def test_csv_and_jsonl_keep_line_breaks(self):
        assert render_table(["h"], [["a\nb"]], "csv") == 'h\r\n"a\nb"'
        assert json.loads(render_table(["h"], [["a\r\nb"]], "jsonl")) == {"h": "a\r\nb"}

    def test_csv_quoting(self):
        got = render_table(["name", "note"], [["a,b", 'say "hi"']], "csv")
        lines = got.split("\r\n")
        assert lines[0] == "name,note"
        assert lines[1] == '"a,b","say ""hi"""'
        assert not got.endswith("\r\n")

    def test_jsonl_one_object_per_row(self):
        got = render_table(self.HEADERS, self.ROWS, "jsonl")
        objs = [json.loads(line) for line in got.splitlines()]
        assert objs == [
            {"name": "alpha", "value": "1"},
            {"name": "beta", "value": "2"},
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_table(self.HEADERS, self.ROWS, "html")

    def test_rendering_is_deterministic(self):
        rng = random.Random(5)
        rows = [[str(rng.randint(0, 9)) for _ in range(3)] for _ in range(20)]
        for fmt in ("csv", "md", "jsonl"):
            assert render_table(["a", "b", "c"], rows, fmt) == render_table(
                ["a", "b", "c"], rows, fmt
            )


# Text that JSON must escape or may pass through: quotes, backslashes,
# control characters, U+2028, U+FFFF, a lone surrogate, astral characters
# and the empty string.
JSON_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\uffff", "\ud800",
                     "\U0001f600"])
    | st.characters(),
    max_size=12,
)


def dumped(headers, row):
    return json.dumps(dict(zip(headers, row)), ensure_ascii=False, separators=(",", ":"))


class TestRenderJsonl:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(JSON_TEXT, min_size=1, max_size=5).flatmap(
        lambda headers: st.tuples(
            st.just(headers),
            st.lists(st.lists(JSON_TEXT, min_size=len(headers), max_size=len(headers)),
                     max_size=4),
        )
    ))
    def test_each_line_is_the_row_dumped_as_a_dict(self, table):
        headers, rows = table
        got = render_table(headers, rows, "jsonl")
        assert got == "\n".join(dumped(headers, row) for row in rows)

    def test_a_repeated_header_keeps_its_first_position_and_last_value(self):
        headers, row = ["a", "b", "a"], ["1", "2", "3"]
        assert render_table(headers, [row], "jsonl") == dumped(headers, row) == '{"a":"3","b":"2"}'

    def test_no_rows_render_nothing(self):
        assert render_table(["a", "b"], [], "jsonl") == ""

    def test_a_cell_that_is_not_text_is_a_type_error(self):
        with pytest.raises(TypeError):
            render_table(["a", "b"], [["1", 2]], "jsonl")
