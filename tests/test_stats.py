"""Rank correlation against an independently coded oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from libcat.errors import ConstantInputError, SampleSizeError
from libcat.stats import (
    CorrelationMatrix,
    average_ranks,
    correlation_matrix,
    spearman,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSpearmanInputs:
    def test_requires_two_rows(self):
        with pytest.raises(SampleSizeError):
            spearman([1.0], [2.0])
        with pytest.raises(SampleSizeError):
            spearman([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [float("nan"), 3.0])
        with pytest.raises(ValueError):
            spearman([float("inf"), 2.0], [1.0, 3.0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1])


class TestAverageRanks:
    def test_distinct_values(self):
        assert average_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_share_fractional_rank(self):
        assert average_ranks([1, 2, 2, 4]) == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
    def test_matches_counting_oracle(self, values):
        assert average_ranks(values) == oracles.average_ranks(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_ranks_sum_is_invariant(self, values):
        n = len(values)
        assert math.isclose(sum(average_ranks(values)), n * (n + 1) / 2)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 40, 90, 160]) == 1.0
        assert spearman([1, 2, 3, 4], [160, 90, 40, 10]) == -1.0

    def test_tied_example(self):
        xs, ys = [1, 2, 2, 4], [10, 20, 30, 40]
        got = spearman(xs, ys)
        assert abs(got - oracles.spearman(xs, ys)) < 1e-12
        assert abs(got - 0.9486832980505138) < 1e-12

    def test_constant_inputs_raise(self):
        with pytest.raises(ConstantInputError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantInputError):
            spearman([1, 2, 3], [7, 7, 7])

    def test_small_samples_raise(self):
        with pytest.raises(SampleSizeError):
            spearman([1], [2])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=25
        )
    )
    def test_matches_oracle_on_small_counts(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if min(xs) == max(xs) or min(ys) == max(ys):
            with pytest.raises(ConstantInputError):
                spearman(xs, ys)
            return
        assert abs(spearman(xs, ys) - oracles.spearman(xs, ys)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(finite_floats, finite_floats), min_size=2, max_size=25
        )
    )
    def test_symmetry_and_bounds(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if min(xs) == max(xs) or min(ys) == max(ys):
            return
        rho = spearman(xs, ys)
        assert -1.0 <= rho <= 1.0
        flipped = spearman(ys, xs)
        assert abs(rho - flipped) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            min_size=3,
            max_size=25,
        ),
        st.sampled_from(["scale", "exp", "rank"]),
    )
    def test_invariant_under_monotone_transforms(self, pairs, transform):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if min(xs) == max(xs) or min(ys) == max(ys):
            return
        if transform == "scale":
            g = lambda v: 3.0 * v + 7.0
        elif transform == "exp":
            g = lambda v: math.exp(v / 10.0)
        else:
            ranks = oracles.average_ranks(xs)
            lookup = dict(zip(xs, ranks))
            g = lambda v: lookup[v]
        assert abs(spearman(xs, ys) - spearman([g(x) for x in xs], ys)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=2, max_size=25),
        st.lists(st.integers(1, 2**70), min_size=31, max_size=31),
        st.sampled_from([0, 2**53, 10**400]),
    )
    def test_any_strictly_increasing_map_keeps_rho_exactly(self, pairs, steps, base):
        """Mapping a column by a strictly increasing map, into ints past
        float precision (2**53 + 1) or past float range (10**400) too,
        leaves every coefficient exactly as it was."""
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if min(xs) == max(xs) or min(ys) == max(ys):
            return
        offsets = list(itertools.accumulate(steps))
        mapped = [base + offsets[x] for x in xs]
        assert spearman(mapped, ys) == spearman(xs, ys)
        assert spearman(ys, mapped) == spearman(ys, xs)

    def test_antisymmetry_under_negation(self):
        rng = random.Random(12)
        pairs = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(30)]
        pairs[0] = (0, 0)
        pairs[1] = (1, 1)
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        assert abs(spearman(xs, ys) + spearman([-x for x in xs], ys)) < 1e-12


class TestCorrelationMatrix:
    def test_diagonal_and_symmetry(self):
        matrix = correlation_matrix(
            [
                ("a", [1, 2, 3, 4]),
                ("b", [2, 1, 4, 3]),
                ("c", [4, 3, 2, 1]),
            ]
        )
        assert matrix.cell("a", "a") == 1.0
        assert matrix.cell("a", "c") == -1.0
        for i in matrix.labels:
            for j in matrix.labels:
                assert matrix.cell(i, j) == matrix.cell(j, i)

    def test_identical_columns_correlate_perfectly(self):
        matrix = correlation_matrix([("a", [1, 5, 3]), ("b", [1, 5, 3])])
        assert matrix.cell("a", "b") == 1.0

    def test_constant_column_raises_naming_the_first(self):
        with pytest.raises(ConstantInputError, match="^metric 'flat' is constant$"):
            correlation_matrix(
                [("a", [1, 2, 3]), ("flat", [7, 7, 7]), ("c", [3, 1, 2]), ("also", [0, 0, 0])]
            )

    def test_row_count_is_checked_before_constant_columns(self):
        with pytest.raises(SampleSizeError, match="got 1"):
            correlation_matrix([("a", [1]), ("flat", [7])])

    def test_values_are_plain_floats(self):
        matrix = correlation_matrix([("x", [1, 2]), ("y", [2, 1])])
        assert matrix == CorrelationMatrix(("x", "y"), ((1.0, -1.0), (-1.0, 1.0)))
        assert all(type(v) is float for row in matrix.values for v in row)

    def test_validation(self):
        with pytest.raises(ValueError):
            correlation_matrix([("only", [1, 2, 3])])
        with pytest.raises(ValueError):
            correlation_matrix([("a", [1, 2]), ("a", [2, 1])])
        with pytest.raises(ValueError):
            correlation_matrix([("a", [1, 2]), ("b", [1, 2, 3])])
        with pytest.raises(SampleSizeError):
            correlation_matrix([("a", [1]), ("b", [2])])
        with pytest.raises(ValueError, match="finite"):
            correlation_matrix([("a", [1, 2, float("nan")]), ("b", [1, 2, 3])])
        with pytest.raises(ValueError, match="finite"):
            correlation_matrix([("a", [1, 2, 3]), ("b", [1, float("inf"), 3])])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(3, 6), st.integers(3, 12))
    def test_matches_pairwise_oracle(self, seed, n_cols, n_rows):
        rng = random.Random(seed)
        columns = [
            (f"m{i}", [rng.randint(0, 5) for _ in range(n_rows)])
            for i in range(n_cols)
        ]
        if any(min(xs) == max(xs) for _, xs in columns):
            with pytest.raises(ConstantInputError):
                correlation_matrix(columns)
            return
        matrix = correlation_matrix(columns)
        for i, (_, xs) in enumerate(columns):
            for j, (_, ys) in enumerate(columns):
                assert abs(matrix.values[i][j] - oracles.spearman(xs, ys)) < 1e-12
