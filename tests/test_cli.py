"""End-to-end command-line behavior, driven in process through run()."""

import json

import pytest

from libcat.cli import run
from libcat.fixture import serve_fixture
from libcat.ingest import load_dataset, save_dataset
from libcat.model import (
    BookRecord,
    Holding,
    Isbn,
    LibraryOrg,
    build_snapshot,
)

ISBN_F2 = "9780306406157"

DC_DOC = """<collection>
  <item>
    <title>Mapping Scientific Frontiers</title>
    <creator>Chen, Chaomei</creator>
  </item>
  <item>
    <title>Little Science, Big Science</title>
    <creator>Price, Derek</creator>
  </item>
  <item>
    <creator>Titleless, Tome</creator>
  </item>
</collection>
"""


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def analysis_dataset(tmp_path):
    """Four books over four libraries with known counts and citations."""
    records = [
        BookRecord(
            "b1", "Handbook of Metrics", lc_class="QA76", citations=9,
            contributors=(("Cole, Ada", "author"),),
        ),
        BookRecord(
            "b2", "Atlas of Maps", lc_class="QA76", citations=5,
            contributors=(("Cole, Ada", "author"),),
        ),
        BookRecord(
            "b3", "Pocket Guide", lc_class="Z669", citations=1,
            contributors=(("Finch, Ben", "author"),),
        ),
        BookRecord("b4", "Unclassified Notes"),
    ]
    libraries = [
        LibraryOrg("l1", "First Academic", "US", "academic", frozenset({"ARL"})),
        LibraryOrg("l2", "City Public", "US", "public"),
        LibraryOrg("l3", "Overseas Academic", "GB", "academic"),
        LibraryOrg("l4", "Depot", "DE", "other"),
    ]
    holdings = [
        Holding("b1", "l1"),
        Holding("b1", "l2"),
        Holding("b1", "l3"),
        Holding("b2", "l1"),
        Holding("b3", "l2"),
        Holding("b3", "l4", "donation"),
    ]
    path = tmp_path / "analysis.jsonl"
    save_dataset(build_snapshot(records, libraries, holdings), path)
    return str(path)


@pytest.fixture()
def fetch_world(tmp_path):
    """A dataset lacking holdings plus a replay server that knows them."""
    records = [
        BookRecord("f1", "Fetched one", oclc=501),
        BookRecord("f2", "Fetched two", isbns=(Isbn(ISBN_F2),)),
        BookRecord("f3", "Fetched three"),
    ]
    libraries = [
        LibraryOrg("la", "Server Lib A", "US", "other"),
        LibraryOrg("lb", "Server Lib B", "GB", "other"),
    ]
    holdings = [Holding("f1", "la"), Holding("f1", "lb"), Holding("f2", "la")]
    dataset = tmp_path / "fetch.jsonl"
    save_dataset(build_snapshot(records, (), ()), dataset)
    server = serve_fixture(build_snapshot(records, libraries, holdings))
    yield str(dataset), server
    server.close()


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 64

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_unknown_output_format_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--dataset", analysis_dataset,
            "--all-books", "--output", "html",
        )
        assert code == 64

    def test_bad_filter_spec_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--dataset", analysis_dataset,
            "--all-books", "--filter", "planet=earth",
        )
        assert code == 64
        assert "filter" in err

    def test_filter_is_not_an_ingest_or_fetch_flag(self, capsys, tmp_path):
        dataset = str(tmp_path / "catalog.jsonl")
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "export.xml"),
            "--format", "marcxml", "--dataset", dataset, "--filter", "country=US",
        )
        assert code == 64
        assert "--filter" in err
        code, _, _ = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset, "--filter", "country=US",
        )
        assert code == 64


class TestIngest:
    def test_dublin_core_ingest_reports_and_persists(self, capsys, tmp_path):
        source = tmp_path / "batch.xml"
        source.write_text(DC_DOC)
        dataset = tmp_path / "cat.jsonl"
        code, out, err = run_cli(
            capsys, "ingest", "--input", str(source),
            "--format", "dublincore", "--dataset", str(dataset),
        )
        assert code == 0
        assert out.strip() == "accepted=2 rejected=1"
        assert "missing title" in err
        assert load_dataset(dataset).n_records == 2

    def test_reingest_is_idempotent(self, capsys, tmp_path):
        source = tmp_path / "batch.xml"
        source.write_text(DC_DOC)
        dataset = tmp_path / "cat.jsonl"
        run_cli(capsys, "ingest", "--input", str(source), "--format", "dublincore",
                "--dataset", str(dataset))
        first = dataset.read_bytes()
        code, _, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert dataset.read_bytes() == first

    def test_nothing_accepted_exits_two_and_writes_nothing(self, capsys, tmp_path):
        source = tmp_path / "empty.xml"
        source.write_text("<collection><item><creator>A</creator></item></collection>")
        dataset = tmp_path / "cat.jsonl"
        code, out, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(dataset),
        )
        assert code == 2
        assert out.strip() == "accepted=0 rejected=1"
        assert not dataset.exists()

    def test_missing_input_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "nope.xml"),
            "--format", "marcxml", "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1
        assert "cannot read" in err

    def test_malformed_input_exits_one(self, capsys, tmp_path):
        source = tmp_path / "broken.xml"
        source.write_text("<collection><item>")
        code, _, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1

    def test_unknown_format_is_a_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "ingest", "--input", "x", "--format", "tsv",
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 64

    def test_jsonl_ingest_merges_datasets(self, capsys, tmp_path, analysis_dataset):
        dataset = tmp_path / "combined.jsonl"
        code, out, _ = run_cli(
            capsys, "ingest", "--input", analysis_dataset, "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert out.strip() == "accepted=4 rejected=0"
        assert load_dataset(dataset).n_records == 4


class TestFetch:
    def test_fetch_all_merges_holdings(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=2 skipped=1 errors=0 holdings=3 libraries=2" in out
        assert "quota_used=2/50000" in out
        assert "skipped f3: no OCLC number or ISBN" in err
        merged = load_dataset(dataset)
        assert merged.n_holdings == 3
        assert merged.libcitation_count("f1") == 2
        assert merged.get_library("la").name == "Server Lib A"

    def test_fetch_by_isbn_selects_one_record(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, _ = run_cli(
            capsys, "fetch", "--isbn", "0-306-40615-2", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=1" in out
        assert load_dataset(dataset).n_holdings == 1

    def test_fetch_by_oclc_with_no_match_is_empty_success(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, _ = run_cli(
            capsys, "fetch", "--oclc", "999", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=0" in out

    def test_quota_exhaustion_exits_three_with_partial_merge(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "1",
        )
        assert code == 3
        assert "quota exhausted" in err
        merged = load_dataset(dataset)
        assert merged.libcitation_count("f1") == 2
        assert merged.libcitation_count("f2") == 0

    def test_base_url_can_come_from_the_environment(self, capsys, fetch_world, monkeypatch):
        dataset, server = fetch_world
        monkeypatch.setenv("LCA_BASE_URL", server.base_url)
        code, out, _ = run_cli(capsys, "fetch", "--all", "--dataset", dataset)
        assert code == 0
        assert "fetched=2" in out

    def test_missing_base_url_is_a_usage_error(self, capsys, fetch_world, monkeypatch):
        dataset, _ = fetch_world
        monkeypatch.delenv("LCA_BASE_URL", raising=False)
        code, _, err = run_cli(capsys, "fetch", "--all", "--dataset", dataset)
        assert code == 64
        assert "base URL" in err

    def test_quota_state_spans_invocations(self, capsys, fetch_world, tmp_path):
        dataset, server = fetch_world
        state = tmp_path / "quota-state.json"
        run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "10",
            "--quota-state", str(state),
        )
        code, out, _ = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "10",
            "--quota-state", str(state),
        )
        assert code == 0
        assert "quota_used=4/10" in out

    def test_bad_isbn_selector_is_a_usage_error(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, _, _ = run_cli(
            capsys, "fetch", "--isbn", "garbage", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 64


class TestIndicatorsCommand:
    def test_all_books_csv_golden(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "record,title,libcitations,cnls,rank,class_size",
            "b1,Handbook of Metrics,3,1.5000,1,2",
            "b3,Pocket Guide,2,1.0000,1,1",
            "b2,Atlas of Maps,1,0.5000,2,2",
            "b4,Unclassified Notes,0,,,",
        ]

    def test_all_books_markdown_shape(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
        )
        lines = out.splitlines()
        assert lines[0] == "| record | title | libcitations | cnls | rank | class_size |"
        assert lines[1].startswith("| ---")
        assert len(lines) == 6

    def test_filter_narrows_counts(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--filter", "country=US", "--output", "csv",
        )
        assert code == 0
        by_record = {
            line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]
        }
        assert by_record == {"b1": "2", "b2": "1", "b3": "1", "b4": "0"}

    def test_channel_exclusion_filter(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--filter", "exclude-channel=donation", "--output", "csv",
        )
        by_record = {
            line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]
        }
        assert by_record["b3"] == "1"

    def test_single_author_profile(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--author", "cole ada",
            "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "author,works,publications,holdings",
            "cole ada,2,2,4",
        ]

    def test_all_author_profiles_ranked(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--authors", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "author,works,publications,holdings",
            '"Cole, Ada",2,2,4',
            '"Finch, Ben",1,1,2',
        ]

    def test_unknown_author_exits_four(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--author", "Nobody, Known",
            "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_unit_report_with_benchmark(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "pair=b1,b2", "--benchmark", "@all",
            "--dataset", analysis_dataset, "--output", "jsonl",
        )
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        # pair: ci 4 over 2 titles, benchmark cir 6/4
        assert row == {
            "unit": "pair",
            "label": "pair",
            "n_titles": "2",
            "ci": "4",
            "cir": "2.0000",
            "rcir": "1.3333",
            "dr": "0.5000",
        }

    def test_units_file_and_ordering(self, capsys, analysis_dataset, tmp_path):
        units = tmp_path / "units.jsonl"
        units.write_text(
            '{"id": "top", "label": "Top pair", "members": ["b1", "b3"]}\n'
            '{"id": "rest", "label": "The rest", "members": ["b2", "b4"]}\n'
        )
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "top", "--unit", "rest",
            "--units", str(units), "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("top,Top pair,2,5,")
        assert lines[2].startswith("rest,The rest,2,1,")

    def test_rcir_blank_without_benchmark(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "pair=b1,b2",
            "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "pair,pair,2,4,2.0000,,0.5000"

    def test_undefined_unit_exits_four(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "ghost", "--dataset", analysis_dataset,
        )
        assert code == 4
        assert "ghost" in err

    def test_unit_with_unknown_member_exits_four(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--unit", "u=b1,zz", "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_unit_with_no_members_exits_four(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--unit", "u=", "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_empty_dataset_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", str(empty),
        )
        assert code == 2

    def test_missing_dataset_exits_one(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "indicators", "--all-books",
            "--dataset", str(tmp_path / "absent.jsonl"),
        )
        assert code == 1

    def test_corrupt_dataset_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        code, _, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", str(bad),
        )
        assert code == 1


class TestCorrelateCommand:
    def test_default_metric_pair(self, capsys, analysis_dataset):
        code, out, _ = run_cli(capsys, "correlate", "--dataset", analysis_dataset)
        assert code == 0
        assert out.strip() == "0.5000"

    def test_metric_against_itself_is_one(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "correlate", "--metrics", "libcitations,libcitations",
            "--dataset", analysis_dataset,
        )
        assert code == 0
        assert out.strip() == "1.0000"

    def test_order_does_not_matter(self, capsys, analysis_dataset):
        _, first, _ = run_cli(capsys, "correlate", "--dataset", analysis_dataset)
        _, second, _ = run_cli(
            capsys, "correlate", "--metrics", "citations,libcitations",
            "--dataset", analysis_dataset,
        )
        assert first == second

    def test_matrix_output(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "correlate", "--matrix", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "metric,libcitations,citations",
            "libcitations,1.0000,0.5000",
            "citations,0.5000,1.0000",
        ]

    def test_cnls_metric_drops_unclassified_records(self, capsys, analysis_dataset):
        # US libraries only: b1, b2, b3 pair as (2, 4/3), (1, 2/3), (1, 1);
        # b4 has no class, so it has no CNLS and drops out of the sample
        code, out, _ = run_cli(
            capsys, "correlate", "--metrics", "libcitations,cnls",
            "--filter", "country=US", "--dataset", analysis_dataset,
        )
        assert code == 0
        assert out.strip() == "0.8660"

    def test_matrix_requires_distinct_metrics(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "correlate", "--matrix",
            "--metrics", "libcitations,libcitations",
            "--dataset", analysis_dataset,
        )
        assert code == 64

    def test_unknown_metric_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "correlate", "--metrics", "libcitations,velocity",
            "--dataset", analysis_dataset,
        )
        assert code == 64
        assert "velocity" in err
        assert "libcitations, citations, cnls" in err

    def test_constant_metric_exits_five(self, capsys, tmp_path):
        records = [
            BookRecord(f"c{i}", f"Title {i}", citations=i + 1) for i in range(3)
        ]
        libraries = [LibraryOrg("l1", "Lib", "US")]
        holdings = [Holding(r.record_id, "l1") for r in records]
        path = tmp_path / "flat.jsonl"
        save_dataset(build_snapshot(records, libraries, holdings), path)
        code, _, err = run_cli(capsys, "correlate", "--dataset", str(path))
        assert code == 5
        assert "constant" in err

    def test_too_few_complete_rows_exits_two(self, capsys, tmp_path):
        records = [
            BookRecord("c1", "Cited", citations=3),
            BookRecord("c2", "Uncited"),
            BookRecord("c3", "Also uncited"),
        ]
        path = tmp_path / "sparse.jsonl"
        save_dataset(build_snapshot(records, [], []), path)
        code, _, err = run_cli(capsys, "correlate", "--dataset", str(path))
        assert code == 2


class TestReportCommand:
    def test_composition_and_coverage_tables(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        first, second = out.strip().split("\n\n")
        assert first.splitlines() == [
            "country,academic,academic_pct,public,public_pct,other,other_pct,total,total_pct",
            "DE,0,0.00,0,0.00,1,100.00,1,25.00",
            "GB,1,50.00,0,0.00,0,0.00,1,25.00",
            "US,1,50.00,1,100.00,0,0.00,2,50.00",
            "total,2,100.00,1,100.00,1,100.00,4,100.00",
        ]
        assert second.splitlines() == [
            "metric,covered,total,pct",
            "libcitations,3,4,75.00",
            "citations,3,4,75.00",
        ]

    def test_kind_filter_zeroes_other_columns(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset,
            "--filter", "kind=academic", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n\n")[0].splitlines()
        assert lines[1] == "GB,1,50.00,0,,0,,1,50.00"
        assert lines[2] == "US,1,50.00,0,,0,,1,50.00"

    def test_empty_dataset_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, _ = run_cli(capsys, "report", "--dataset", str(empty))
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, analysis_dataset):
        outputs = set()
        for _ in range(2):
            for argv in (
                ["indicators", "--all-books", "--dataset", analysis_dataset],
                ["indicators", "--authors", "--dataset", analysis_dataset],
                ["report", "--dataset", analysis_dataset],
            ):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                outputs.add((tuple(argv), out))
        assert len(outputs) == 3
