"""Deterministic report rendering.

All numbers shown to users pass through the two formatters here:
percentages get 2 decimal places, rates 4, both rounded half-up (ties
away from zero). Percentages are computed by exact decimal division of
the integer counts, so the printed value never inherits binary float
noise. Tables render to CSV (RFC 4180 quoting), Markdown pipe tables
(a line break in a cell written as <br>), or JSON lines; cells arrive
pre-formatted as strings and identical inputs produce byte-identical
output. A JSON line escapes each header once per table and each cell
once, and is the compact UTF-8 dump of the row as a dict; a cell that is
not a `str` raises TypeError.
"""

from __future__ import annotations

import io
import json
import re
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring
from typing import Sequence

FORMATS = ("csv", "md", "jsonl")

# A line break inside a cell; a Markdown row must stay on one line.
_LINE_BREAK = re.compile("\r\n|\r|\n")
# Compact UTF-8 JSON for the dataset lines of `ingest.save_dataset`. The
# jsonl tables here write the same text through its string escape,
# `encode_basestring`.
_JSON_LINE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def format_percent(count: int, total: int) -> str:
    """count/total as 'NN.NN' percent; requires a positive total."""
    if total <= 0:
        raise ValueError("total must be positive")
    value = (Decimal(count) * 100) / Decimal(total)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_rate(value: float) -> str:
    """A real-valued rate to 4 decimals, half-up, no negative zero."""
    quantum = Decimal("0.0001")
    out = Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP)
    if out == 0:
        out = abs(out)
    return str(out)


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue().rstrip("\r\n")


def _render_md(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    def clean(cell: str) -> str:
        return _LINE_BREAK.sub("<br>", cell.replace("|", "\\|"))

    lines = [
        "| " + " | ".join(clean(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(clean(c) for c in row) + " |")
    return "\n".join(lines)


def _render_jsonl(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    # A repeated header keeps what `dict(zip(headers, row))` keeps: its
    # first position and its last value.
    last = {header: index for index, header in enumerate(headers)}
    cells = [(encode_basestring(header) + ":", index) for header, index in last.items()]
    return "\n".join(
        "{" + ",".join([key + encode_basestring(row[index]) for key, index in cells]) + "}"
        for row in rows
    )


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str
) -> str:
    """Render one table; `fmt` is 'csv', 'md', or 'jsonl'."""
    if fmt == "csv":
        return _render_csv(headers, rows)
    if fmt == "md":
        return _render_md(headers, rows)
    if fmt == "jsonl":
        return _render_jsonl(headers, rows)
    raise ValueError(f"unknown output format: {fmt!r}")
