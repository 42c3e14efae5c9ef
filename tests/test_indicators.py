"""The indicator family: point values, aggregates, profiles, reports."""

import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from libcat import identifiers, indicators
from libcat.errors import (
    AuthorNotFoundError,
    NoClassError,
    UndefinedRateError,
    UnknownTargetError,
)
from libcat.identifiers import cluster_works
from libcat.indicators import (
    CompositionRow,
    author_profile,
    author_profiles,
    book_indicators,
    catalog_inclusions,
    cir,
    cnls,
    composition_report,
    coverage_report,
    diffusion_rate,
    libcitations,
    metric_columns,
    rank_in_class,
    rcir,
    unit_report,
)
from libcat.model import (
    LIBRARY_KINDS,
    AggregateUnit,
    BookRecord,
    CatalogSnapshot,
    Holding,
    Isbn,
    LibraryFilter,
    LibraryOrg,
    apply_filter,
)
from libcat.stats import correlation_matrix


def counts_snapshot(counts, lc_class="QA76"):
    """records r0..rN with the given libcitation counts, all in one class."""
    pool = max(counts, default=0)
    libraries = [datasets.simple_library(i) for i in range(pool)]
    records = []
    holdings = []
    for index, count in enumerate(counts):
        record_id = f"r{index}"
        records.append(BookRecord(record_id, f"Book {index}", lc_class=lc_class))
        holdings.extend(Holding(record_id, f"l{i:05d}") for i in range(count))
    return CatalogSnapshot(records, libraries, holdings)


def whole_unit(snapshot, unit_id="u"):
    return AggregateUnit(
        unit_id, unit_id, frozenset(r.record_id for r in snapshot.records)
    )


class TestLibcitations:
    def test_unheld_record_scores_zero(self):
        snap = counts_snapshot([0, 3])
        assert libcitations("r0", snap) == 0
        assert libcitations("r1", snap) == 3

    def test_cluster_counts_distinct_union(self):
        records = [
            BookRecord("r1", "Same work", contributors=(("A",),)),
            BookRecord("r2", "Same work", contributors=(("A",),)),
        ]
        libraries = [datasets.simple_library(i) for i in range(3)]
        holdings = [
            Holding("r1", "l00000"),
            Holding("r1", "l00001"),
            Holding("r2", "l00001"),
            Holding("r2", "l00002"),
        ]
        snap = CatalogSnapshot(records, libraries, holdings)
        (cluster,) = cluster_works(snap)
        assert libcitations(cluster, snap) == 3

    def test_unknown_target_raises(self):
        snap = counts_snapshot([1])
        with pytest.raises(UnknownTargetError):
            libcitations("missing", snap)
        with pytest.raises(UnknownTargetError):
            libcitations(["r0", "missing"], snap)

    def test_filter_restricts_the_count(self):
        libraries = [
            LibraryOrg("l1", "A", "US", "academic"),
            LibraryOrg("l2", "B", "GB", "academic"),
        ]
        records = [BookRecord("r1", "T")]
        snap = CatalogSnapshot(
            records, libraries, [Holding("r1", "l1"), Holding("r1", "l2")]
        )
        us_only = LibraryFilter(countries=frozenset({"US"}))
        assert libcitations("r1", snap) == 2
        assert libcitations("r1", snap, us_only) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_distinct_holder_oracle(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        for record in snap.records:
            want = oracles.distinct_holders_bruteforce(snap.holdings(), record.record_id)
            assert libcitations(record, snap) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_filter_equivalence(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        library_filter = datasets.random_filter(rng)
        narrowed = apply_filter(snap, library_filter)
        for record in snap.records:
            assert libcitations(record, snap, library_filter) == libcitations(
                record, narrowed
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_relaxing_a_filter_never_lowers_the_count(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        tight = datasets.random_filter(rng)
        loose = LibraryFilter(
            countries=tight.countries,
            kinds=None,
            required_memberships=None,
            excluded_channels=tight.excluded_channels,
        )
        for record in snap.records:
            assert libcitations(record, snap, loose) >= libcitations(
                record, snap, tight
            )


class TestAggregates:
    def test_inclusions_sum_over_member_titles(self):
        snap = counts_snapshot([3, 4, 5])
        unit = AggregateUnit("u", "U", frozenset({"r0", "r1"}))
        assert catalog_inclusions(unit, snap) == 7
        assert cir(unit, snap) == 3.5

    def test_inclusions_count_per_title_not_distinct_union(self):
        # two titles held by the same library contribute two inclusions
        libraries = [datasets.simple_library(0)]
        records = [BookRecord("r0", "A"), BookRecord("r1", "B")]
        holdings = [Holding("r0", "l00000"), Holding("r1", "l00000")]
        snap = CatalogSnapshot(records, libraries, holdings)
        unit = whole_unit(snap)
        assert catalog_inclusions(unit, snap) == 2
        assert libcitations(unit.member_record_ids, snap) == 1

    def test_single_title_cir_is_its_count(self):
        snap = counts_snapshot([5])
        assert cir(whole_unit(snap), snap) == 5.0

    def test_rcir_compares_against_benchmark(self):
        snap = counts_snapshot([4, 2])
        top = AggregateUnit("top", "T", frozenset({"r0"}))
        rest = AggregateUnit("rest", "R", frozenset({"r1"}))
        assert rcir(top, rest, snap) == 2.0
        assert rcir(top, top, snap) == 1.0

    def test_rcir_undefined_for_zero_benchmark(self):
        snap = counts_snapshot([4, 0])
        top = AggregateUnit("top", "T", frozenset({"r0"}))
        zero = AggregateUnit("zero", "Z", frozenset({"r1"}))
        with pytest.raises(UndefinedRateError):
            rcir(top, zero, snap)

    def test_diffusion_bounds_at_the_extremes(self):
        records = [BookRecord(f"r{i}", f"T{i}") for i in range(3)]
        libraries = [datasets.simple_library(i) for i in range(4)]
        everywhere = [
            Holding(r.record_id, lib.library_id)
            for r in records
            for lib in libraries
        ]
        full = CatalogSnapshot(records, libraries, everywhere)
        empty = CatalogSnapshot(records, libraries, [])
        assert diffusion_rate(whole_unit(full), full) == 1.0
        assert diffusion_rate(whole_unit(empty), empty) == 0.0

    def test_diffusion_needs_catalogs(self):
        snap = counts_snapshot([1])
        strict = LibraryFilter(countries=frozenset({"ZZ"}))
        with pytest.raises(UndefinedRateError):
            diffusion_rate(whole_unit(snap), snap, strict)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_diffusion_stays_in_unit_interval(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        if snap.n_records == 0 or snap.n_libraries == 0:
            return
        rate = diffusion_rate(whole_unit(snap), snap)
        assert 0.0 <= rate <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_inclusions_are_additive_over_disjoint_units(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        ids = [r.record_id for r in snap.records]
        if len(ids) < 2:
            return
        cut = rng.randint(1, len(ids) - 1)
        left = AggregateUnit("left", "L", frozenset(ids[:cut]))
        right = AggregateUnit("right", "R", frozenset(ids[cut:]))
        both = AggregateUnit("both", "B", frozenset(ids))
        assert catalog_inclusions(left, snap) + catalog_inclusions(
            right, snap
        ) == catalog_inclusions(both, snap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([2, 3]))
    def test_rcir_ordering_survives_uniform_scaling(self, seed, k):
        # replicate every library k times; every count multiplies by k, so
        # unit-versus-unit RCIR comparisons must not change order
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng, max_records=8, max_libraries=5)
        ids = [r.record_id for r in snap.records]
        if len(ids) < 3 or snap.n_holdings == 0:
            return
        libraries = [
            LibraryOrg(
                f"{lib.library_id}x{copy}", lib.name, lib.country, lib.kind,
                lib.memberships,
            )
            for lib in snap.libraries
            for copy in range(k)
        ]
        holdings = [
            Holding(h.record_id, f"{h.library_id}x{copy}", h.channel)
            for h in snap.holdings()
            for copy in range(k)
        ]
        scaled = CatalogSnapshot(snap.records, libraries, holdings)
        cut = len(ids) // 2
        a = AggregateUnit("a", "A", frozenset(ids[:cut]))
        b = AggregateUnit("b", "B", frozenset(ids[cut:]))
        bench = whole_unit(snap, "bench")
        try:
            before = rcir(a, bench, snap) - rcir(b, bench, snap)
            after = rcir(a, bench, scaled) - rcir(b, bench, scaled)
        except UndefinedRateError:
            return
        assert (before > 0) == (after > 0)
        assert (before < 0) == (after < 0)
        assert abs(before - after) < 1e-9


class TestClassRelative:
    def test_normalized_score_against_class_mean(self):
        snap = counts_snapshot([40, 0])
        assert cnls("r0", snap) == 2.0
        assert cnls("r1", snap) == 0.0

    def test_singleton_class_scores_one(self):
        snap = counts_snapshot([7])
        assert cnls("r0", snap) == 1.0

    def test_two_book_class_splits_around_the_mean(self):
        snap = counts_snapshot([10, 30])
        assert cnls("r0", snap) == 0.5
        assert cnls("r1", snap) == 1.5

    def test_unclassified_record_has_no_score(self):
        snap = CatalogSnapshot([BookRecord("r0", "T")], [], [])
        with pytest.raises(NoClassError):
            cnls("r0", snap)
        with pytest.raises(NoClassError):
            rank_in_class("r0", snap)

    @pytest.mark.parametrize("indicator", [cnls, rank_in_class])
    def test_unknown_record_is_named(self, indicator):
        with pytest.raises(UnknownTargetError, match="^no such record in snapshot: nope$"):
            indicator("nope", counts_snapshot([3]))

    def test_all_zero_class_is_undefined(self):
        snap = counts_snapshot([0, 0])
        with pytest.raises(UndefinedRateError):
            cnls("r0", snap)

    def test_competition_ranking_with_ties(self):
        snap = counts_snapshot([9, 7, 7, 2])
        assert rank_in_class("r0", snap) == (1, 4)
        assert rank_in_class("r1", snap) == (2, 4)
        assert rank_in_class("r2", snap) == (2, 4)
        assert rank_in_class("r3", snap) == (4, 4)

    def test_singleton_class_ranks_first_of_one(self):
        snap = counts_snapshot([0])
        assert rank_in_class("r0", snap) == (1, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=30))
    def test_ranks_match_sorting_oracle(self, counts):
        snap = counts_snapshot(counts)
        expected = oracles.competition_ranks(counts)
        for index in range(len(counts)):
            rank, size = rank_in_class(f"r{index}", snap)
            assert size == len(counts)
            assert rank == expected[index]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=30))
    def test_class_mean_of_scores_is_one(self, counts):
        if sum(counts) == 0:
            return
        snap = counts_snapshot(counts)
        scores = [cnls(f"r{i}", snap) for i in range(len(counts))]
        assert abs(sum(scores) / len(scores) - 1.0) < 1e-9

    def test_classes_do_not_leak_into_each_other(self):
        records = [
            BookRecord("r0", "A", lc_class="QA76"),
            BookRecord("r1", "B", lc_class="Z669"),
        ]
        libraries = [datasets.simple_library(i) for i in range(4)]
        holdings = [Holding("r0", f"l{i:05d}") for i in range(4)] + [
            Holding("r1", "l00000")
        ]
        snap = CatalogSnapshot(records, libraries, holdings)
        assert cnls("r0", snap) == 1.0
        assert cnls("r1", snap) == 1.0
        assert rank_in_class("r0", snap) == (1, 1)


class TestAuthorProfiles:
    def test_single_record_author(self):
        records = [BookRecord("r0", "Solo study", contributors=(("Hart, Ada",),))]
        libraries = [datasets.simple_library(0)]
        snap = CatalogSnapshot(records, libraries, [Holding("r0", "l00000")])
        profile = author_profile("Hart, Ada", snap)
        assert (profile.works, profile.publications, profile.library_holdings) == (
            1,
            1,
            1,
        )

    def test_heading_matching_folds_and_spans_roles(self):
        records = [
            BookRecord("r0", "First", contributors=(("HART, ADA", "editor"),)),
            BookRecord("r1", "Second", contributors=(("hart ada", "author"),)),
        ]
        snap = CatalogSnapshot(records, [], [])
        profile = author_profile("Hart, Ada", snap)
        assert profile.works == 2
        assert profile.publications == 2

    def test_unknown_heading_raises(self):
        snap = CatalogSnapshot([BookRecord("r0", "T")], [], [])
        with pytest.raises(AuthorNotFoundError):
            author_profile("Nobody, Known", snap)
        with pytest.raises(AuthorNotFoundError):
            author_profile("...", snap)

    def test_editions_fixture_totals(self):
        snap = datasets.single_author_editions()
        profile = author_profile(datasets.EDITIONS_HEADING, snap)
        assert profile.works == 45
        assert profile.publications == 165
        assert profile.library_holdings == 2385

    def test_cluster_pulls_in_editions_not_naming_the_author(self):
        # the reprint names a different contributor but shares the OCLC
        # number; publications still counts it and its holders join the union
        records = [
            BookRecord("r0", "Joint treatise", oclc=901, contributors=(("Hart, Ada",),)),
            BookRecord("r1", "Joint treatise, reprint", oclc=901, contributors=(("Moss, Kim",),)),
        ]
        libraries = [datasets.simple_library(i) for i in range(2)]
        holdings = [Holding("r0", "l00000"), Holding("r1", "l00001")]
        snap = CatalogSnapshot(records, libraries, holdings)
        profile = author_profile("Hart, Ada", snap)
        assert profile.works == 1
        assert profile.publications == 2
        assert profile.library_holdings == 2

    def test_ranking_fixture_order_and_counts(self):
        snap = datasets.five_author_ranking()
        profiles = author_profiles(snap)
        assert [(p.heading, p.library_holdings) for p in profiles] == list(
            datasets.RANKED_AUTHORS
        )

    def test_profiles_pick_smallest_display_variant(self):
        records = [
            BookRecord("r0", "One", contributors=(("hart, ada",),)),
            BookRecord("r1", "Two", contributors=(("Hart, Ada",),)),
        ]
        snap = CatalogSnapshot(records, [], [])
        (profile,) = author_profiles(snap)
        assert profile.heading == "Hart, Ada"

    def test_filter_shrinks_holdings_but_not_works(self):
        records = [BookRecord("r0", "Solo", contributors=(("Hart, Ada",),))]
        libraries = [
            LibraryOrg("l1", "A", "US", "academic"),
            LibraryOrg("l2", "B", "GB", "academic"),
        ]
        holdings = [Holding("r0", "l1"), Holding("r0", "l2")]
        snap = CatalogSnapshot(records, libraries, holdings)
        profile = author_profile(
            "Hart, Ada", snap, LibraryFilter(countries=frozenset({"US"}))
        )
        assert profile.works == 1
        assert profile.library_holdings == 1


def tied_class_snapshot(rng, size):
    """One class of `size` records over four libraries, so counts tie heavily."""
    libraries = [datasets.simple_library(i) for i in range(4)]
    records = []
    holdings = []
    for index in range(size):
        record_id = f"r{index:04d}"
        records.append(BookRecord(record_id, f"Book {index}", lc_class="QA76"))
        for library in rng.sample(libraries, rng.randint(0, len(libraries))):
            holdings.append(
                Holding(record_id, library.library_id, rng.choice(datasets.CHANNELS))
            )
    return CatalogSnapshot(records, libraries, holdings)


VARIANT_NAMES = (
    "Hart, Ada", "HART, ADA", "Härt, Ada", "hart ada",
    "Moss, Kim", "moss, kim", "Öz, Eda", "Oz, Eda", "Lee, Bo",
)


def variant_author_snapshot(rng, n_records):
    """Records naming spelling variants of a few authors, some sharing an OCLC."""
    libraries = [
        LibraryOrg(f"l{i}", f"Library {i}", rng.choice(("US", "GB")), "academic")
        for i in range(6)
    ]
    records = []
    for index in range(n_records):
        names = rng.sample(VARIANT_NAMES, rng.randint(0, 3))
        records.append(
            BookRecord(
                f"r{index:03d}",
                f"Title {rng.randint(0, n_records)}",
                oclc=rng.randint(1, 8) if rng.random() < 0.4 else None,
                contributors=tuple((name, rng.choice(("author", "editor"))) for name in names),
            )
        )
    holdings = [
        Holding(record.record_id, library.library_id, rng.choice(datasets.CHANNELS))
        for record in records
        for library in libraries
        if rng.random() < 0.4
    ]
    return CatalogSnapshot(records, libraries, holdings)


class TestCompiledView:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(200, 600), st.booleans())
    def test_large_tied_class_matches_oracles(self, seed, size, exclude):
        snap = tied_class_snapshot(random.Random(seed), size)
        excluded = frozenset({"donation", "pda"})
        library_filter = LibraryFilter(excluded_channels=excluded) if exclude else None
        holders = {record.record_id: set() for record in snap.records}
        for holding in snap.holdings():
            if not (exclude and holding.channel in excluded):
                holders[holding.record_id].add(holding.library_id)
        counts = [len(holders[record.record_id]) for record in snap.records]
        ranks = oracles.competition_ranks(counts)
        mean = sum(counts) / len(counts)
        for record, count, rank in zip(snap.records, counts, ranks):
            assert rank_in_class(record.record_id, snap, library_filter) == (rank, size)
            if mean == 0:
                with pytest.raises(UndefinedRateError):
                    cnls(record.record_id, snap, library_filter)
            else:
                assert cnls(record.record_id, snap, library_filter) == count / mean

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_profiles_equal_one_profile_per_heading(self, seed, filtered):
        rng = random.Random(seed)
        snap = variant_author_snapshot(rng, rng.randint(1, 30))
        library_filter = datasets.random_filter(rng) if filtered else None
        profiles = author_profiles(snap, library_filter)
        headings = [p.heading for p in profiles]
        fresh = CatalogSnapshot(snap.records, snap.libraries, snap.holdings())
        assert profiles == [author_profile(h, fresh, library_filter) for h in headings]
        assert profiles == sorted(profiles, key=lambda p: (-p.library_holdings, p.heading))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_profiles_match_the_bruteforce_oracle(self, seed, filtered):
        """Every profile, and the profile of every spelling variant, equals
        the oracle's, which clusters pairwise and folds each heading the
        long way."""
        rng = random.Random(seed)
        snap = variant_author_snapshot(rng, rng.randint(1, 30))
        library_filter = datasets.random_filter(rng) if filtered else None
        expected = oracles.author_profiles_bruteforce(
            snap.records, snap.libraries, snap.holdings(), library_filter
        )
        assert author_profiles(snap, library_filter) == expected
        by_fold = {oracles.fold_heading(heading): counts for heading, *counts in expected}
        for name in {c.name for record in snap.records for c in record.contributors}:
            counts = by_fold[oracles.fold_heading(name)]
            assert author_profile(name, snap, library_filter) == (name, *counts)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_filtered_profiles_filter_the_snapshot_once(self, seed):
        rng = random.Random(seed)
        snap = variant_author_snapshot(rng, rng.randint(1, 30))
        library_filter = LibraryFilter(
            countries=frozenset({"US"}), excluded_channels=frozenset({"donation"})
        )
        passes = []
        original = indicators.apply_filter

        def counting_filter(snapshot, given_filter):
            passes.append(given_filter)
            return original(snapshot, given_filter)

        indicators.apply_filter = counting_filter
        try:
            profiles = author_profiles(snap, library_filter)
            for profile in profiles:
                author_profile(profile.heading, snap, library_filter)
            author_profiles(snap, library_filter)
        finally:
            indicators.apply_filter = original
        assert passes == [library_filter]

    def test_each_distinct_string_folds_once_per_build(self, monkeypatch):
        """Work clustering and each view's author table fold through a cache
        of their own build: each distinct string once, and a table read
        again folds nothing."""
        snap = variant_author_snapshot(random.Random(3), 40)
        folded = []
        original = identifiers.fold_text

        def counting_fold(text):
            folded.append(text)
            return original(text)

        monkeypatch.setattr(identifiers, "fold_text", counting_fold)
        monkeypatch.setattr(indicators, "fold_text", counting_fold)
        names = sorted({c.name for record in snap.records for c in record.contributors})
        titles = {record.title for record in snap.records}
        cluster_works(snap)
        assert len(folded) == len(set(folded))
        assert titles <= set(folded) <= titles | set(names)
        for library_filter in (None, LibraryFilter(countries=frozenset({"US"}))):
            folded.clear()
            author_profiles(snap, library_filter)
            author_profiles(snap, library_filter)
            assert sorted(folded) == names


class TestUnitReport:
    def test_report_is_internally_consistent(self):
        snap = counts_snapshot([3, 4, 0])
        unit = whole_unit(snap)
        report = unit_report(unit, snap, benchmark=unit)
        assert report.n_titles == 3
        assert report.ci == 7
        assert report.cir == pytest.approx(7 / 3)
        assert report.rcir == 1.0
        assert report.dr == pytest.approx(7 / 12)
        books = book_indicators(snap)
        assert [b.libcitations for b in books] == [3, 4, 0]
        assert report.ci == sum(b.libcitations for b in books)

    def test_report_without_benchmark_leaves_rcir_unset(self):
        snap = counts_snapshot([2])
        report = unit_report(whole_unit(snap), snap)
        assert report.rcir is None

    def test_per_book_blanks_where_undefined(self):
        records = [BookRecord("r0", "No class")]
        libraries = [datasets.simple_library(0)]
        snap = CatalogSnapshot(records, libraries, [Holding("r0", "l00000")])
        assert unit_report(whole_unit(snap), snap).ci == 1
        (book,) = book_indicators(snap)
        assert book.cnls is None
        assert book.rank_in_class is None


class TestPopulationReports:
    def test_composition_counts_by_country_and_kind(self):
        libraries = [
            LibraryOrg("l1", "A", "US", "academic"),
            LibraryOrg("l2", "B", "US", "academic"),
            LibraryOrg("l3", "C", "US", "public"),
            LibraryOrg("l4", "D", "GB", "other"),
        ]
        snap = CatalogSnapshot([], libraries, [])
        report = composition_report(snap)
        assert [r.country for r in report.rows] == ["GB", "US"]
        us = report.rows[1]
        assert us.counts == (2, 1, 0)  # academic, public, other
        assert us.total == 3
        assert report.totals == CompositionRow("total", (2, 1, 1))
        assert report.totals.total == 4

    def test_composition_fixture_share(self):
        report = composition_report(datasets.membership_composition())
        us = next(row for row in report.rows if row.country == "US")
        academic = LIBRARY_KINDS.index("academic")
        assert us.counts[academic] == 2505
        assert report.totals.counts[academic] == 5804
        assert oracles.percent_string(2505, 5804) == "43.16"

    def test_coverage_counts_nonzero_values(self):
        snap = counts_snapshot([2, 0, 1])
        rows = coverage_report(snap)
        by_name = {row.metric: row for row in rows}
        assert by_name["libcitations"].covered == 2
        assert by_name["libcitations"].total == 3
        assert by_name["citations"].covered == 0

    def test_coverage_fixture_share(self):
        rows = coverage_report(datasets.holdings_coverage())
        held = next(row for row in rows if row.metric == "libcitations")
        assert (held.covered, held.total) == (9781, 10_000)
        assert oracles.percent_string(held.covered, held.total) == "97.81"

    def test_coverage_undefined_over_no_records(self):
        snap = CatalogSnapshot([], [], [])
        with pytest.raises(UndefinedRateError):
            coverage_report(snap)


class TestMetricColumns:
    NAMES = ["libcitations", "citations", "cnls"]

    def check_against_oracle(self, snap, library_filter):
        holdings = oracles.kept_holdings(snap.libraries, snap.holdings(), library_filter)
        values = {
            name: oracles.metric_values_bruteforce(snap.records, holdings, name)
            for name in self.NAMES
        }
        rows = oracles.complete_rows([values[name] for name in self.NAMES])
        columns = metric_columns(self.NAMES, snap, library_filter)
        assert [name for name, _ in columns] == self.NAMES
        for i, (_, column) in enumerate(columns):
            assert column == pytest.approx([row[i] for row in rows])
        if snap.records:
            assert coverage_report(snap, library_filter) == tuple(
                indicators.CoverageRow(
                    name,
                    sum(1 for v in values[name] if v is not None and v > 0),
                    len(snap.records),
                )
                for name in indicators.COVERAGE_METRICS
            )

    @pytest.mark.parametrize(
        "build",
        [
            datasets.five_author_ranking,
            datasets.single_author_editions,
            datasets.holdings_coverage,
            lambda: datasets.classed_snapshot(random.Random(5), 6, large_classes=1)[0],
            lambda: datasets.random_snapshot(random.Random(11), max_records=60, max_libraries=15),
        ],
        ids=["five-authors", "editions", "coverage", "classed", "random"],
    )
    @pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
    def test_fixture_catalogs_match_the_oracle(self, build, filtered):
        library_filter = (
            LibraryFilter(countries=frozenset({"US"}), excluded_channels=frozenset({"donation"}))
            if filtered
            else None
        )
        self.check_against_oracle(build(), library_filter)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_random_catalogs_match_the_oracle(self, seed, filtered):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        self.check_against_oracle(snap, datasets.random_filter(rng) if filtered else None)

    def test_each_metric_is_read_once_per_view(self, monkeypatch):
        snap = counts_snapshot([3, 1, 0, 2])
        calls = []
        for name, metric in list(indicators.METRICS.items()):
            monkeypatch.setitem(
                indicators.METRICS,
                name,
                lambda view, name=name, metric=metric: calls.append(name) or metric(view),
            )
        metric_columns(self.NAMES, snap)
        coverage_report(snap)
        assert sorted(calls) == sorted(self.NAMES + list(indicators.COVERAGE_METRICS))

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            metric_columns(["libcitations", "nope"], counts_snapshot([1, 2]))


class TestMemo:
    def test_a_dropped_snapshot_leaves_no_cycle(self):
        """Every table, unfiltered and filtered, plus the work clusters, is
        memoized on the snapshot, yet reference counting alone frees it:
        with the collector off, nothing of it is left for a collection."""
        snap = datasets.random_snapshot(random.Random(11), max_records=60, max_libraries=15)
        unit = whole_unit(snap)
        heading = next(c.name for r in snap.records for c in r.contributors)
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        try:
            for library_filter in (None, LibraryFilter(countries=frozenset({"US", "GB"}))):
                book_indicators(snap, library_filter)
                author_profiles(snap, library_filter)
                author_profile(heading, snap, library_filter)
                unit_report(unit, snap, library_filter, benchmark=unit)
                metric_columns(list(indicators.METRICS), snap, library_filter)
                coverage_report(snap, library_filter)
                composition_report(snap, library_filter)
            cluster_works(snap)
            assert set(snap.memo) == {
                "work_clusters", ("indicator_view", None), ("indicator_view", library_filter)
            }
            del snap
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [o for o in gc.garbage if isinstance(o, (CatalogSnapshot, indicators._View))]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert left == []


def test_result_rows_are_tuples_that_unpack():
    """Every result row is a NamedTuple: it unpacks by position and equals
    the plain tuple of its fields; its methods and properties stay."""
    snapshot = counts_snapshot([3, 1])
    book = book_indicators(snapshot)[0]
    record_id, count, cnls_value, rank = book
    assert book == ("r0", 3, 1.5, (1, 2)) == (record_id, count, cnls_value, rank)
    unit = whole_unit(snapshot)
    report = unit_report(unit, snapshot, benchmark=unit)
    assert tuple(report) == ("u", "u", 2, 4, 2.0, 1.0, 2 / 3)
    inclusions = indicators._inclusions(unit, indicators._view(snapshot, None))
    assert (inclusions.cir(), inclusions.dr()) == (2.0, 2 / 3)
    row = composition_report(snapshot).totals
    assert row == ("total", (3, 0, 0)) and row.total == 3
    assert coverage_report(snapshot)[0] == ("libcitations", 2, 2)
    (cluster, *_) = cluster_works(snapshot)
    assert cluster == (cluster.work_key, frozenset({"r0"}))
    with pytest.raises(ValueError, match="at least one member"):
        identifiers.WorkCluster(cluster.work_key, frozenset())
    with pytest.raises(ValueError, match="at least one member"):
        cluster._replace(member_record_ids=())
    assert cluster._replace(member_record_ids=["r1"]).member_record_ids == frozenset({"r1"})
    labels, values = correlation_matrix([("a", [1, 2, 3]), ("b", [3, 2, 1])])
    assert (labels, values) == (("a", "b"), ((1.0, -1.0), (-1.0, 1.0)))
