"""Rank correlation for holdings-versus-citations comparisons.

Ties get average (fractional) ranks and the coefficient is the Pearson
product-moment correlation of the two rank vectors. That is exact under
ties, unlike the 6*sum(d^2) shortcut, and count data here is tied almost
by construction. No p-values: only the coefficient is reported.

`correlation_matrix` is the one computation: it ranks each column once
and owns the input rules (at least two rows, then no constant column).
`spearman` is its two-column case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConstantInputError, SampleSizeError


@dataclass(frozen=True, slots=True)
class PairedSample:
    """Two paired real-valued observations per subject."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((float(x), float(y)) for x, y in self.pairs)
        for x, y in pairs:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("paired samples must be finite")
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) < 2:
            raise SampleSizeError(
                f"need at least 2 paired observations, got {len(pairs)}"
            )

    @classmethod
    def from_columns(cls, xs: Sequence[float], ys: Sequence[float]) -> "PairedSample":
        if len(xs) != len(ys):
            raise ValueError(f"column lengths differ: {len(xs)} vs {len(ys)}")
        return cls(tuple(zip(xs, ys)))

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.pairs)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.pairs)


def average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _centered(ranks: Sequence[float]) -> tuple[list[float], float]:
    """A rank column's deviations from its mean, and their sum of squares."""
    mean = math.fsum(ranks) / len(ranks)
    deviations = [r - mean for r in ranks]
    return deviations, math.fsum(d ** 2 for d in deviations)


def spearman(sample: "PairedSample | Sequence[tuple[float, float]]") -> float:
    """Spearman rank correlation of the two coordinates, in [-1, 1]: the
    off-diagonal cell of their `correlation_matrix`, with its errors."""
    if not isinstance(sample, PairedSample):
        sample = PairedSample(tuple(sample))
    return correlation_matrix([("x", sample.xs), ("y", sample.ys)]).values[0][1]


@dataclass(frozen=True, slots=True)
class CorrelationMatrix:
    """Pairwise Spearman coefficients between named metric columns; the
    diagonal is exactly 1 and the matrix is symmetric."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def cell(self, row_label: str, col_label: str) -> float:
        return self.values[self.labels.index(row_label)][self.labels.index(col_label)]


def correlation_matrix(columns: Sequence[tuple[str, Sequence[float]]]) -> CorrelationMatrix:
    """All-pairs Spearman over two or more equal-length, distinctly named
    columns of finite values.

    Raises SampleSizeError below two rows, then ConstantInputError naming
    the first constant column. Each column is ranked once.
    """
    labels = tuple(name for name, _ in columns)
    if len(labels) < 2:
        raise ValueError("need at least two columns")
    if len(set(labels)) != len(labels):
        raise ValueError("column labels must be unique")
    vectors = [tuple(float(v) for v in vector) for _, vector in columns]
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValueError("columns must have equal lengths")
    if length < 2:
        raise SampleSizeError(f"need at least 2 complete rows, got {length}")
    if not all(math.isfinite(v) for vector in vectors for v in vector):
        raise ValueError("columns must be finite")
    for label, vector in zip(labels, vectors):
        if min(vector) == max(vector):
            raise ConstantInputError(f"metric {label!r} is constant")

    centered = [_centered(average_ranks(vector)) for vector in vectors]
    size = len(vectors)
    cells = [[1.0] * size for _ in range(size)]
    for i, (dx, var_x) in enumerate(centered):
        for j in range(i + 1, size):
            dy, var_y = centered[j]
            rho = math.fsum(x * y for x, y in zip(dx, dy)) / math.sqrt(var_x * var_y)
            cells[i][j] = cells[j][i] = max(-1.0, min(1.0, rho))
    return CorrelationMatrix(labels, tuple(tuple(row) for row in cells))
