"""Acceptance gate: the thirteen release criteria, one test per criterion.

Each test prints one "[acceptance] NN <name>: PASS|FAIL" line outside
pytest's capture, so a plain run shows the gate's status at a glance.
Tolerances and runtime bounds are asserted exactly where a criterion
states them; everything else is exact equality.
"""

import contextlib
import datetime as dt
import itertools
import json
import math
import random
import time

import pytest

import datasets
import oracles
from libcat.cli import run
from libcat.client import CatalogClient, QuotaStore, harvest
from libcat.errors import IsbnChecksumError, QuotaExceededError
from libcat.fixture import FixtureServer
from libcat.identifiers import isbn13_to_isbn10, normalize_isbn
from libcat.indicators import (
    author_profile,
    author_profiles,
    cnls,
    diffusion_rate,
    rank_in_class,
    rcir,
)
from libcat.ingest import save_dataset
from libcat.model import AggregateUnit, BookRecord, CatalogSnapshot, Holding
from libcat.stats import spearman


@contextlib.contextmanager
def criterion(capsys, number, name):
    passed = False
    try:
        yield
        passed = True
    finally:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {number:02d} {name}: {verdict}")


def test_c01_cnls_worked_example(capsys):
    """A book held 40 times in a class whose mean is 20 scores exactly 2.0."""
    with criterion(capsys, 1, "cnls worked example"):
        best = math.inf
        for _ in range(3):
            libraries = [datasets.simple_library(i) for i in range(40)]
            records = [
                BookRecord("hit", "Widely held study", lc_class="QA76"),
                BookRecord("miss", "Rarely held study", lc_class="QA76"),
            ]
            holdings = [Holding("hit", f"l{i:05d}") for i in range(40)]
            snapshot = CatalogSnapshot(records, libraries, holdings)
            started = time.perf_counter()
            value = cnls("hit", snapshot)
            best = min(best, time.perf_counter() - started)
            assert value == 2.0
        assert best < 0.001


def test_c02_author_ranking_round_trip(capsys):
    """The five-author fixture ranks by holdings with exact counts."""
    with criterion(capsys, 2, "author ranking round-trip"):
        snapshot = datasets.five_author_ranking()
        started = time.perf_counter()
        profiles = author_profiles(snapshot)
        elapsed = time.perf_counter() - started
        assert [
            (p.heading, p.library_holdings) for p in profiles
        ] == list(datasets.RANKED_AUTHORS)
        assert elapsed < 1.0


def test_c03_edition_clustering_round_trip(capsys):
    """165 editions cluster to 45 works holding 2385 distinct inclusions."""
    with criterion(capsys, 3, "edition clustering round-trip"):
        snapshot = datasets.single_author_editions()
        started = time.perf_counter()
        profile = author_profile(datasets.EDITIONS_HEADING, snapshot)
        elapsed = time.perf_counter() - started
        assert (profile.works, profile.publications, profile.library_holdings) == (
            45,
            165,
            2385,
        )
        assert elapsed < 1.0


def test_c04_diffusion_rate_arithmetic(capsys):
    """DR equals inclusions/(titles x catalogs) at both corpus scales."""
    with criterion(capsys, 4, "diffusion rate arithmetic"):
        started = time.perf_counter()
        snapshot = datasets.diffusion_study(full_scale=True)
        unit = AggregateUnit(
            "corpus", "whole corpus",
            frozenset(r.record_id for r in snapshot.records),
        )
        value = diffusion_rate(unit, snapshot)
        elapsed = time.perf_counter() - started
        assert abs(value - 417_033 / (121_147 * 42)) < 1e-6
        assert elapsed < 10.0

        small = datasets.diffusion_study()
        small_unit = AggregateUnit(
            "sample", "scaled corpus",
            frozenset(r.record_id for r in small.records),
        )
        assert abs(diffusion_rate(small_unit, small) - 417 / (121 * 42)) < 1e-6


def test_c05_mean_cnls_identity(capsys):
    """Within any class, CNLS averages to 1 by construction."""
    with criterion(capsys, 5, "mean cnls identity"):
        rng = random.Random(50)
        snapshot, labels = datasets.classed_snapshot(rng, 1000)
        by_class = oracles.records_by_class(snapshot.records)
        for label in labels:
            members = by_class[label]
            scores = [cnls(record.record_id, snapshot) for record in members]
            assert abs(math.fsum(scores) / len(scores) - 1.0) < 1e-9


def test_c06_spearman_oracle_equivalence(capsys):
    """Exhaustive n<=6 agreement over {0,1,2}, plus monotone invariance."""
    with criterion(capsys, 6, "spearman oracle equivalence"):
        alphabet = (0.0, 1.0, 2.0)
        for n in range(2, 7):
            sequences = [
                seq
                for seq in itertools.product(alphabet, repeat=n)
                if len(set(seq)) > 1
            ]
            ranks = {seq: oracles.average_ranks(seq) for seq in sequences}
            for xs in sequences:
                for ys in sequences:
                    expected = oracles.pearson(ranks[xs], ranks[ys])
                    actual = spearman(xs, ys)
                    assert abs(actual - expected) <= 1e-12

        rng = random.Random(60)
        checked = 0
        while checked < 100:
            size = rng.randint(3, 40)
            xs = [float(rng.randint(0, 9)) for _ in range(size)]
            ys = [float(rng.randint(0, 9)) for _ in range(size)]
            if min(xs) == max(xs) or min(ys) == max(ys):
                continue
            base = spearman(xs, ys)
            stretched = spearman(
                [3.0 * x + 7.0 for x in xs], [math.exp(y / 10.0) for y in ys]
            )
            assert abs(stretched - base) <= 1e-12
            checked += 1


def test_c07_rcir_self_benchmark(capsys):
    """A unit benchmarked against itself scores exactly 1.0."""
    with criterion(capsys, 7, "rcir self-benchmark"):
        rng = random.Random(7)
        produced = 0
        while produced < 100:
            snapshot = datasets.random_snapshot(
                rng, max_records=10, max_libraries=6, holding_rate=0.5
            )
            counts = oracles.holder_counts(snapshot.holdings())
            held = [
                record.record_id for record in snapshot.records if counts[record.record_id] > 0
            ]
            if not held:
                continue
            everything = [record.record_id for record in snapshot.records]
            members = set(rng.sample(everything, rng.randint(1, len(everything))))
            members.add(rng.choice(held))
            unit = AggregateUnit(f"u{produced}", "randomized", frozenset(members))
            assert rcir(unit, unit, snapshot) == 1.0
            produced += 1


def test_c08_competition_rank_oracle(capsys):
    """rank_in_class matches the sort-based oracle on 1000 random classes."""
    with criterion(capsys, 8, "competition rank oracle"):
        rng = random.Random(8)
        snapshot, labels = datasets.classed_snapshot(
            rng, 1000, large_classes=5, max_small=50
        )
        by_class = oracles.records_by_class(snapshot.records)
        holders = oracles.holder_counts(snapshot.holdings())
        for label in labels:
            members = by_class[label]
            counts = [holders[record.record_id] for record in members]
            expected = oracles.competition_ranks(counts)
            for record, want in zip(members, expected):
                rank, size = rank_in_class(record.record_id, snapshot)
                assert rank == want
                assert size == len(members)


def test_c09_isbn_conversion_suite(capsys):
    """1000 ISBN-10s round-trip exactly; corrupt check characters never pass."""
    with criterion(capsys, 9, "isbn conversion suite"):
        rng = random.Random(9)
        candidates = "0123456789X"
        for _ in range(1000):
            ten = oracles.make_isbn10(rng)
            promoted = normalize_isbn(ten).digits
            assert promoted == oracles.isbn10_to_13(ten)
            assert isbn13_to_isbn10(promoted) == ten
            for wrong in candidates:
                if wrong == ten[9]:
                    continue
                with pytest.raises(IsbnChecksumError):
                    normalize_isbn(ten[:9] + wrong)


def test_c10_client_quota_guard(capsys, tmp_path):
    """Request 50 001 of a day dies before the socket; a new day resets."""
    with criterion(capsys, 10, "client quota guard"):
        day = dt.date(2026, 8, 17)
        state_path = tmp_path / "quota.json"
        state_path.write_text(json.dumps({"day": day.isoformat(), "used": 49_999}))
        snapshot = CatalogSnapshot(
            [BookRecord("g1", "Guarded title", oclc=42)],
            [datasets.simple_library(0)],
            [Holding("g1", "l00000")],
        )
        with FixtureServer(snapshot) as server:
            quota = QuotaStore(
                limit=50_000, state_path=state_path, today=lambda: day
            )
            client = CatalogClient(server.base_url, quota=quota, retries=1)
            response = client.get_by_oclc_number(42)
            assert [loc.institution_id for loc in response.locations] == ["l00000"]
            assert server.request_count == 1
            assert quota.state().used == 50_000

            with pytest.raises(QuotaExceededError):
                client.get_by_oclc_number(42)
            assert server.request_count == 1

            next_day = day + dt.timedelta(days=1)
            rolled = QuotaStore(
                limit=50_000, state_path=state_path, today=lambda: next_day
            )
            fresh = CatalogClient(server.base_url, quota=rolled, retries=1)
            assert not fresh.get_by_oclc_number(42).is_empty
            assert server.request_count == 2
            assert rolled.state().used == 1


def test_c11_harvest_round_trip(capsys):
    """Harvesting against the replay server reconstructs its holdings."""
    with criterion(capsys, 11, "harvest round-trip"):
        rng = random.Random(11)
        for _ in range(50):
            fixture = datasets.harvestable_snapshot(rng, max_records=100)
            with FixtureServer(fixture) as server:
                client = CatalogClient(
                    server.base_url,
                    quota=QuotaStore(limit=1_000_000),
                    retries=1,
                    parallelism=4,
                )
                result = harvest(client, fixture.records)
            assert result.errors == ()
            assert result.skipped == ()
            assert not result.quota_exhausted
            assert set(result.queried) == {r.record_id for r in fixture.records}
            got = {(h.record_id, h.library_id) for h in result.delta.holdings()}
            want = {(h.record_id, h.library_id) for h in fixture.holdings()}
            assert got == want


def test_c12_report_formatting(capsys, tmp_path):
    """The composition and coverage shares render to the known 2-decimal strings."""
    with criterion(capsys, 12, "report formatting"):
        composition_path = tmp_path / "composition.jsonl"
        save_dataset(datasets.membership_composition(), composition_path)
        assert run(
            ["report", "--dataset", str(composition_path), "--output", "csv"]
        ) == 0
        out = capsys.readouterr().out
        composition_table = out.strip().split("\n\n")[0]
        us_row = next(
            line for line in composition_table.splitlines() if line.startswith("US,")
        )
        assert us_row.split(",")[2] == "43.16"

        coverage_path = tmp_path / "coverage.jsonl"
        save_dataset(datasets.holdings_coverage(), coverage_path)
        assert run(
            ["report", "--dataset", str(coverage_path), "--output", "csv"]
        ) == 0
        out = capsys.readouterr().out
        coverage_table = out.strip().split("\n\n")[1]
        row = next(
            line
            for line in coverage_table.splitlines()
            if line.startswith("libcitations,")
        )
        assert row.split(",")[3] == "97.81"


def test_c13_deterministic_output(capsys, tmp_path):
    """Repeated indicator runs over one dataset are byte-identical."""
    with criterion(capsys, 13, "deterministic output"):
        path = tmp_path / "ranking.jsonl"
        save_dataset(datasets.five_author_ranking(), path)
        for argv in (
            ["indicators", "--authors", "--dataset", str(path)],
            ["indicators", "--all-books", "--dataset", str(path)],
        ):
            outputs = []
            for _ in range(2):
                assert run(argv) == 0
                outputs.append(capsys.readouterr().out.encode("utf-8"))
            assert outputs[0] == outputs[1]
