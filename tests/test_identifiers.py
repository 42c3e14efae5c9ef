"""Identifier handling and work clustering."""

import random
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from libcat.errors import (
    IsbnChecksumError,
    IsbnConversionError,
    IsbnFormatError,
    WorkKeyError,
)
from libcat.identifiers import (
    WorkKey,
    cluster_works,
    fold_text,
    isbn10_check_char,
    isbn13_to_isbn10,
    normalize_isbn,
    parse_oclc,
    work_key,
)
from libcat.model import BookRecord, CatalogSnapshot, Contributor, Isbn


# Digits that pass `str.isdigit` but are not ASCII, in value order.
NON_ASCII_DIGITS = {
    "arabic-indic": "٠١٢٣٤٥٦٧٨٩",
    "fullwidth": "０１２３４５６７８９",
    "superscript": "⁰¹²³⁴⁵⁶⁷⁸⁹",
}


def in_digits(text, digits):
    """`text` with each ASCII digit replaced by the same value in `digits`."""
    return text.translate(str.maketrans("0123456789", digits))


def hyphenate(rng, digits):
    cuts = sorted(rng.sample(range(1, len(digits)), rng.randint(0, 3)))
    parts = []
    prev = 0
    for cut in cuts:
        parts.append(digits[prev:cut])
        prev = cut
    parts.append(digits[prev:])
    return "-".join(parts)


class TestIsbn:
    def test_normalize_accepts_hyphenated_isbn13(self):
        rng = random.Random(3)
        digits = oracles.make_isbn13(rng)
        isbn = normalize_isbn(hyphenate(rng, digits))
        assert isbn.digits == digits

    def test_normalize_promotes_isbn10(self):
        rng = random.Random(4)
        for _ in range(100):
            ten = oracles.make_isbn10(rng)
            isbn = normalize_isbn(ten)
            assert isbn.digits == oracles.isbn10_to_13(ten)
            assert oracles.isbn13_is_valid(isbn.digits)

    def test_normalize_handles_x_check_character(self):
        rng = random.Random(5)
        ten = next(
            candidate
            for candidate in (oracles.make_isbn10(rng) for _ in range(10_000))
            if candidate.endswith("X")
        )
        assert normalize_isbn(ten.lower()).digits == oracles.isbn10_to_13(ten)

    def test_normalize_gives_the_canonical_isbn(self):
        assert normalize_isbn("0-306-40615-2") == Isbn("9780306406157")

    def test_normalize_rejects_wrong_shape(self):
        for raw in ("", "123", "978030640615", "03064061",
                    "03064-06152X", "978O3O64O6157"):
            with pytest.raises(IsbnFormatError):
                normalize_isbn(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (9780306406157, "ISBN input must be a string, got int"),
            ("12345X7890", "ISBN-10 must be 9 digits plus digit or X: '12345X7890'"),
        ],
        ids=["not-a-string", "x-inside-isbn10"],
    )
    def test_normalize_names_what_is_wrong(self, raw, message):
        with pytest.raises(IsbnFormatError) as caught:
            normalize_isbn(raw)
        assert str(caught.value) == message

    def test_normalize_rejects_bad_check_digits(self):
        rng = random.Random(6)
        thirteen = oracles.make_isbn13(rng)
        ten = oracles.make_isbn10(rng)
        for digits, size in ((thirteen, 13), (ten, 10)):
            alphabet = "0123456789X" if size == 10 else "0123456789"
            for wrong in alphabet:
                if wrong == digits[-1]:
                    continue
                with pytest.raises(IsbnChecksumError):
                    normalize_isbn(digits[:-1] + wrong)

    def test_conversion_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            ten = oracles.make_isbn10(rng)
            assert isbn13_to_isbn10(normalize_isbn(ten)) == ten

    def test_conversion_rejects_non_978_range(self):
        rng = random.Random(8)
        other = oracles.make_isbn13(rng, prefix="979")
        assert oracles.isbn13_is_valid(other)
        with pytest.raises(IsbnConversionError):
            isbn13_to_isbn10(other)

    def test_conversion_rejects_garbage(self):
        with pytest.raises(IsbnConversionError):
            isbn13_to_isbn10("not-an-isbn")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_normalize_is_idempotent(self, seed):
        rng = random.Random(seed)
        raw = (
            oracles.make_isbn10(rng)
            if rng.random() < 0.5
            else oracles.make_isbn13(rng)
        )
        once = normalize_isbn(hyphenate(rng, raw))
        again = normalize_isbn(str(once))
        assert again == once

    def test_check_char_matches_validation_oracle(self):
        rng = random.Random(9)
        for _ in range(300):
            body = "".join(rng.choice("0123456789") for _ in range(9))
            assert oracles.isbn10_is_valid(body + isbn10_check_char(body))

    @pytest.mark.parametrize("digits", NON_ASCII_DIGITS.values(), ids=NON_ASCII_DIGITS)
    def test_only_ascii_digits_are_isbn_digits(self, digits):
        """An ISBN with any digit written in another script, or as a
        superscript, is refused, never read as some other ISBN."""
        for ascii_form in ("9780306406157", "0306406152", "030640615X"):
            foreign = in_digits(ascii_form, digits)
            for position in range(len(ascii_form) - 1):
                raw = ascii_form[:position] + foreign[position] + ascii_form[position + 1:]
                with pytest.raises(IsbnFormatError):
                    normalize_isbn(raw)
                assert not oracles.isbn13_is_valid(raw)
                assert not oracles.isbn10_is_valid(raw)
        foreign = in_digits("9780306406157", digits)
        with pytest.raises(IsbnFormatError):
            normalize_isbn(foreign)
        with pytest.raises(ValueError, match="expected 9 digits"):
            isbn10_check_char(foreign[:9])
        with pytest.raises(IsbnConversionError):
            isbn13_to_isbn10(foreign)


class TestOclc:
    @pytest.mark.parametrize("digits", NON_ASCII_DIGITS.values(), ids=NON_ASCII_DIGITS)
    def test_non_ascii_digits_are_not_a_number(self, digits):
        assert parse_oclc(in_digits("31156", digits)) is None
        assert parse_oclc(in_digits("(OCoLC)31156", digits)) is None
        assert parse_oclc(in_digits("(OCoLC)ocm31156", digits)) is None

    def test_prefixed_forms(self):
        assert parse_oclc("(OCoLC)44959645") == 44959645
        assert parse_oclc("(OCoLC)ocm00044959") == 44959
        assert parse_oclc(" (OCoLC)123 ") == 123

    def test_bare_digits(self):
        assert parse_oclc("31156") == 31156

    def test_non_numbers_are_none(self):
        for raw in ("(DLC)12345", "ocm0012", "12a45", "", "(OCoLC)"):
            assert parse_oclc(raw) is None


class TestWorkKey:
    def test_folds_case_punctuation_diacritics(self):
        a = BookRecord("r1", "Citation Analysis: An Overview!", contributors=(("Smith, Ann",),))
        b = BookRecord("r2", "citation analysis an overview", contributors=(("SMITH, ANN", "author"),))
        c = BookRecord("r3", "Čitation Análysis, an óverview", contributors=(("smith ann",),))
        assert work_key(a) == work_key(b)
        assert work_key(c) == work_key(a)
        assert fold_text("Café") == fold_text("cafe")

    def test_contributor_distinguishes_same_title(self):
        a = BookRecord("r1", "Collected Papers", contributors=(("Smith, Ann",),))
        b = BookRecord("r2", "Collected Papers", contributors=(("Jones, Bob",),))
        assert work_key(a) != work_key(b)

    def test_year_and_format_do_not_enter_key(self):
        a = BookRecord("r1", "Title", year=1999, format="print")
        b = BookRecord("r2", "Title", year=2011, format="ebook")
        assert work_key(a) == work_key(b)

    def test_primary_contributor_prefers_author_role(self):
        rec = BookRecord(
            "r1",
            "Title",
            contributors=(("Editor, Ed", "editor"), ("Author, Amy", "author")),
        )
        assert work_key(rec).primary_contributor == fold_text("Author, Amy")

    def test_first_contributor_when_no_author_role(self):
        rec = BookRecord("r1", "Title", contributors=(("Editor, Ed", "editor"),))
        assert work_key(rec).primary_contributor == fold_text("Editor, Ed")
        assert work_key(BookRecord("r1", "Title")).primary_contributor == ""

    def test_unkeyable_title_raises(self):
        with pytest.raises(WorkKeyError):
            work_key(BookRecord("r1", "!!! ---"))

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    def test_fold_text_equals_the_full_fold_on_any_text(self, text):
        """The ASCII shortcut changes nothing: fold_text equals the
        decompose, strip-marks, casefold, collapse path on every text."""
        decomposed = unicodedata.normalize("NFKD", text)
        stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
        assert fold_text(text) == re.sub("[^0-9a-z]+", " ", stripped.casefold()).strip()


class TestClustering:
    def test_singletons_without_shared_evidence(self):
        records = [
            BookRecord("r1", "Alpha", contributors=(("A",),)),
            BookRecord("r2", "Beta", contributors=(("B",),)),
        ]
        snap = CatalogSnapshot(records, [], [])
        clusters = cluster_works(snap)
        assert [sorted(c.member_record_ids) for c in clusters] == [["r1"], ["r2"]]

    def test_transitive_closure_across_evidence_kinds(self):
        rng = random.Random(10)
        shared = datasets.make_isbn(rng)
        records = [
            BookRecord("r1", "First form", isbns=(shared,)),
            BookRecord("r2", "Second form", isbns=(shared,), oclc=77),
            BookRecord("r3", "Third form", oclc=77),
            BookRecord("r4", "Third form"),
        ]
        snap = CatalogSnapshot(records, [], [])
        clusters = cluster_works(snap)
        assert len(clusters) == 1
        assert clusters[0].member_record_ids == frozenset({"r1", "r2", "r3", "r4"})

    def test_cluster_label_comes_from_smallest_member(self):
        records = [
            BookRecord("r2", "Shared evidence title", contributors=(("A",),)),
            BookRecord("r1", "???", isbns=(Isbn("9780306406157"),)),
            BookRecord("r3", "Shared evidence title", contributors=(("A",),),
                       isbns=(Isbn("9780306406157"),)),
        ]
        snap = CatalogSnapshot(records, [], [])
        (cluster,) = cluster_works(snap)
        # r1 is the smallest member but its title folds away, so the label
        # degrades to the empty key rather than borrowing another member's
        assert cluster.work_key == WorkKey("", "")

    def test_unkeyable_records_still_cluster_by_identifier(self):
        records = [
            BookRecord("r1", "...", oclc=5),
            BookRecord("r2", "---", oclc=5),
            BookRecord("r3", "!!!"),
        ]
        snap = CatalogSnapshot(records, [], [])
        clusters = cluster_works(snap)
        assert [sorted(c.member_record_ids) for c in clusters] == [["r1", "r2"], ["r3"]]

    def test_result_is_cached_on_the_snapshot(self):
        snap = CatalogSnapshot([BookRecord("r1", "T")], [], [])
        assert cluster_works(snap) is cluster_works(snap)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng, max_records=20)
        clusters = cluster_works(snap)
        seen = [rid for c in clusters for rid in c.member_record_ids]
        assert sorted(seen) == sorted(r.record_id for r in snap.records)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_order_independence(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng, max_records=15)
        records = list(snap.records)
        rng.shuffle(records)
        reordered = CatalogSnapshot(records, snap.libraries, snap.holdings())
        as_sets = lambda clusters: sorted(
            sorted(c.member_record_ids) for c in clusters
        )
        assert as_sets(cluster_works(snap)) == as_sets(cluster_works(reordered))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_clusters_ascend_by_smallest_member_labelled_by_its_key(self, seed):
        """Whatever order the records arrive in, the clusters come in
        ascending order of their smallest member id, and each carries that
        member's work key (the empty key when its title folds away)."""
        rng = random.Random(seed)
        records = list(datasets.random_snapshot(rng, max_records=50, max_libraries=2).records)
        for record in rng.sample(records, len(records) // 5):
            records.append(BookRecord(f"{record.record_id}x", "?!", oclc=record.oclc))
        rng.shuffle(records)
        clusters = cluster_works(CatalogSnapshot(records, [], []))
        smallest = [min(c.member_record_ids) for c in clusters]
        expected = oracles.cluster_records_bruteforce(records)
        assert smallest == sorted(min(group) for group in expected)
        by_id = {record.record_id: record for record in records}
        for cluster, record_id in zip(clusters, smallest):
            try:
                label = work_key(by_id[record_id])
            except WorkKeyError:
                label = WorkKey("", "")
            assert cluster.work_key == label

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_pairwise_oracle(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng, max_records=50, max_libraries=4)
        expected = oracles.cluster_records_bruteforce(snap.records)
        actual = sorted(
            sorted(c.member_record_ids) for c in cluster_works(snap)
        )
        assert actual == sorted(sorted(group) for group in expected)
