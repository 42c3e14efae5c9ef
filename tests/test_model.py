"""Domain model: value validation, the entity contract, snapshot
integrity, population filters."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from libcat.errors import IntegrityError
from libcat.model import (
    AggregateUnit,
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Holding,
    Isbn,
    LibraryFilter,
    LibraryOrg,
    apply_filter,
    isbn13_check_digit,
)


def make_snapshot(holding_pairs, channels=None, countries=None, kinds=None):
    record_ids = sorted({r for r, _ in holding_pairs}) or ["r0"]
    library_ids = sorted({l for _, l in holding_pairs}) or ["l0"]
    records = [BookRecord(r, f"Title {r}") for r in record_ids]
    libraries = [
        LibraryOrg(
            l,
            f"Library {l}",
            (countries or {}).get(l, "US"),
            (kinds or {}).get(l, "academic"),
        )
        for l in library_ids
    ]
    holdings = [
        Holding(r, l, (channels or {}).get((r, l), "unspecified"))
        for r, l in holding_pairs
    ]
    return CatalogSnapshot(records, libraries, holdings)


class TestValues:
    def test_isbn_accepts_valid_digits(self):
        isbn = Isbn("9780306406157")
        assert str(isbn) == "9780306406157"

    def test_isbn_rejects_bad_check_digit(self):
        with pytest.raises(ValueError):
            Isbn("9780306406158")

    def test_isbn_rejects_wrong_length_and_non_digits(self):
        with pytest.raises(ValueError):
            Isbn("978030640615")
        with pytest.raises(ValueError):
            Isbn("97803064061X7")

    @pytest.mark.parametrize(
        "digits",
        ["٩٧٨٠٣٠٦٤٠٦١٥٧",
         "٩٧٨٠٣٠٦٤٠٦١٥7",
         "９７８０３０６４０６１５７",
         "97803064061²7"],
        ids=["arabic-indic", "arabic-indic-ascii-check", "fullwidth", "superscript"],
    )
    def test_isbn_digits_are_ascii(self, digits):
        with pytest.raises(ValueError, match="^canonical ISBN must be 13 digits"):
            Isbn(digits)
        with pytest.raises(ValueError, match="^expected 12 digits$"):
            isbn13_check_digit(digits[:12])

    def test_isbn_equality_uses_the_digits(self):
        a = Isbn("9780306406157")
        b = Isbn("9780306406157")
        assert a == b
        assert hash(a) == hash(b)
        assert a < Isbn("9780306406164")

    def test_check_digit_helper_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            digits = oracles.make_isbn13(rng)
            assert isbn13_check_digit(digits[:12]) == digits[-1]

    @given(st.text("0123456789", min_size=12, max_size=12))
    def test_check_digit_is_the_weighted_modulus_10_formula(self, body):
        weighted = sum(int(d) * (3 if i % 2 else 1) for i, d in enumerate(body))
        assert isbn13_check_digit(body) == str((10 - weighted % 10) % 10)
        assert oracles.isbn13_is_valid(body + isbn13_check_digit(body))

    @given(st.text("0123456789", min_size=12, max_size=12))
    def test_check_digit_is_the_one_digit_the_oracle_accepts(self, body):
        accepted = [d for d in "0123456789" if oracles.isbn13_is_valid(body + d)]
        assert accepted == [isbn13_check_digit(body)]

    @given(
        st.text("0123456789", max_size=20).filter(lambda s: len(s) != 12)
        | st.text(min_size=12, max_size=12).filter(lambda s: not (s.isascii() and s.isdigit()))
    )
    def test_check_digit_rejects_a_body_that_is_not_12_digits(self, body):
        with pytest.raises(ValueError):
            isbn13_check_digit(body)

    def test_contributor_role_vocabulary(self):
        assert Contributor("Doe, Jane").role == "author"
        with pytest.raises(ValueError):
            Contributor("Doe, Jane", "translator")
        with pytest.raises(ValueError):
            Contributor("   ")

    def test_record_requires_title(self):
        with pytest.raises(ValueError):
            BookRecord("r1", "   ")

    def test_record_rejects_nonpositive_oclc(self):
        with pytest.raises(ValueError):
            BookRecord("r1", "T", oclc=0)
        with pytest.raises(ValueError):
            BookRecord("r1", "T", oclc=-4)

    def test_record_rejects_negative_citations(self):
        with pytest.raises(ValueError):
            BookRecord("r1", "T", citations=-1)
        assert BookRecord("r1", "T", citations=0).citations == 0

    def test_record_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            BookRecord("r1", "T", format="vinyl")

    def test_record_dedupes_and_sorts_isbns(self):
        rng = random.Random(11)
        a, b = sorted(oracles.make_isbn13(rng) for _ in range(2))
        rec = BookRecord("r1", "T", isbns=(Isbn(b), Isbn(a), b))
        assert [i.digits for i in rec.isbns] == [a, b]

    def test_record_coerces_contributor_pairs(self):
        rec = BookRecord("r1", "T", contributors=(("Doe, Jane", "editor"),))
        assert rec.contributors == (Contributor("Doe, Jane", "editor"),)

    def test_library_uppercases_country(self):
        assert LibraryOrg("l1", "Lib", " us ").country == "US"
        with pytest.raises(ValueError):
            LibraryOrg("l1", "Lib", "US", kind="museum")

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda text: BookRecord(text, "T"), "BookRecord record_id"),
            (lambda text: BookRecord("r1", text), "BookRecord title"),
            (lambda text: BookRecord("r1", "T", language=text), "BookRecord language"),
            (lambda text: BookRecord("r1", "T", lc_class=text), "BookRecord lc_class"),
            (lambda text: Contributor(text), "Contributor name"),
            (lambda text: LibraryOrg(text, "Lib", "US"), "LibraryOrg library_id"),
            (lambda text: LibraryOrg("l1", text, "US"), "LibraryOrg name"),
            (lambda text: LibraryOrg("l1", "Lib", text), "LibraryOrg country"),
            (lambda text: LibraryOrg("l1", "Lib", "US", memberships={"ARL", text}),
             "LibraryOrg memberships"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    @pytest.mark.parametrize("text", ["\ud800", "X\udfffy", "\u00e9\udc80", "\ud83d\ude00"])
    def test_text_with_a_lone_surrogate_is_refused(self, build, field, text):
        with pytest.raises(ValueError, match=f"^{field} holds a lone surrogate: "):
            build(text)

    def test_text_of_any_other_code_point_is_kept(self):
        text = "\U0001f600 \u00e9\uffff\x00"
        record = BookRecord(text, text, contributors=(Contributor(text),), language=text)
        assert (record.record_id, record.title, record.contributors[0].name) == (text,) * 3
        assert LibraryOrg(text, text, text, memberships={text}).memberships == {text}

    def test_holding_channel_vocabulary(self):
        rec, lib = BookRecord("r1", "T"), LibraryOrg("l1", "Lib", "US")
        with pytest.raises(ValueError):
            CatalogSnapshot([rec], [lib], [Holding("r1", "l1", channel="gift")])

    def test_unit_requires_members(self):
        with pytest.raises(ValueError):
            AggregateUnit("u1", "U", frozenset())
        unit = AggregateUnit("u1", "U", ["r1", "r1", "r2"])
        assert unit.member_record_ids == frozenset({"r1", "r2"})


# One of each checked entity, as the arguments its constructor takes.
ENTITY_ARGS = {
    Isbn: ("9780306406157",),
    Contributor: ("Cole, Ada", "editor"),
    BookRecord: ("r1", "Title", 101, ("9780306406157",), (("Cole, Ada", "author"),), 2001,
                 "en", "QA76", "print", 3),
    LibraryOrg: ("l1", "Lib", "US", "academic", frozenset({"ARL"})),
    LibraryFilter: (frozenset({"US"}), frozenset({"academic"}), frozenset({"ARL"}),
                    frozenset({"donation"})),
    AggregateUnit: ("u1", "Unit", frozenset({"r1", "r2"})),
}
KINDS = list(ENTITY_ARGS)


def entity(kind):
    return kind(*ENTITY_ARGS[kind])


def field_values(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


class TestEntityContract:
    """The checked entities share one base: equal fields make equal,
    equally hashed entities; no attribute can be assigned; the repr names
    every field; `_replace` and copies rebuild through the checks."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_equal_entities_are_equal_and_hash_equal(self, kind):
        first, second = entity(kind), entity(kind)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_an_entity_equals_only_its_own_kind_with_its_fields(self, kind):
        value = entity(kind)
        assert value != field_values(value)
        assert value != object()
        name = kind._fields[-1]
        changed = {
            "digits": "9780131103627", "role": "author", "citations": 4,
            "memberships": frozenset(), "excluded_channels": None,
            "member_record_ids": frozenset({"r3"}),
        }[name]
        assert value._replace(**{name: changed}) != value

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_no_attribute_can_be_assigned_or_deleted(self, kind):
        value = entity(kind)
        before = field_values(value)
        for name in kind._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert field_values(value) == before

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_repr_names_every_field(self, kind):
        value = entity(kind)
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in kind._fields)
        assert repr(value) == f"{kind.__name__}({fields})"

    def test_repr_reads_as_the_constructor_call(self):
        assert repr(Contributor("Ada")) == "Contributor(name='Ada', role='author')"
        assert repr(BookRecord("r1", "A", isbns=["9780306406157"])) == (
            "BookRecord(record_id='r1', title='A', oclc=None,"
            " isbns=(Isbn(digits='9780306406157'),), contributors=(), year=None,"
            " language=None, lc_class=None, format='unknown', citations=None)"
        )

    def test_isbn_sorts_by_its_digits(self):
        low, mid, high = Isbn("9780131103627"), Isbn("9780306406157"), Isbn("9791234567896")
        assert sorted([high, low, mid]) == [low, mid, high]
        assert low < mid <= mid < high and high > mid >= mid > low
        assert not mid < mid and not mid > mid
        with pytest.raises(TypeError):
            low < "9780306406157"  # noqa: B015

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_replace_with_no_change_is_an_equal_entity(self, kind):
        value = entity(kind)
        assert value._replace() == value and value._replace() is not value

    def test_replace_runs_the_checks(self):
        record = entity(BookRecord)
        with pytest.raises(ValueError, match="record r1: title must be non-empty"):
            record._replace(title="")
        with pytest.raises(TypeError, match="BookRecord year must be int"):
            record._replace(year="soon")
        with pytest.raises(ValueError, match="unknown library kinds"):
            entity(LibraryFilter)._replace(kinds=["museum"])
        retitled = record._replace(title="Other", lc_class=" QA ")
        assert (retitled.title, retitled.lc_class) == ("Other", "QA")
        assert field_values(retitled)[2:7] == field_values(record)[2:7]
        assert entity(LibraryOrg)._replace(country=" gb ").country == "GB"

    def test_replace_refuses_an_unknown_field(self):
        with pytest.raises(TypeError):
            entity(BookRecord)._replace(subtitle="B")

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_copies_and_pickles_are_equal(self, kind):
        value = entity(kind)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is kind


class TestSnapshot:
    def test_empty_snapshot(self):
        snap = CatalogSnapshot([], [], [])
        assert snap.n_records == 0
        assert snap.n_libraries == 0
        assert snap.n_holdings == 0

    def test_duplicate_record_id_rejected(self):
        recs = [BookRecord("r1", "A"), BookRecord("r1", "B")]
        with pytest.raises(IntegrityError):
            CatalogSnapshot(recs, [], [])

    def test_duplicate_library_id_rejected(self):
        libs = [LibraryOrg("l1", "A", "US"), LibraryOrg("l1", "B", "GB")]
        with pytest.raises(IntegrityError):
            CatalogSnapshot([], libs, [])

    def test_dangling_holding_rejected(self):
        rec = BookRecord("r1", "T")
        lib = LibraryOrg("l1", "Lib", "US")
        with pytest.raises(IntegrityError):
            CatalogSnapshot([rec], [lib], [Holding("r2", "l1")])
        with pytest.raises(IntegrityError):
            CatalogSnapshot([rec], [lib], [Holding("r1", "l2")])

    def test_duplicate_holdings_collapse_keeping_first(self):
        rec = BookRecord("r1", "T")
        lib = LibraryOrg("l1", "Lib", "US")
        snap = CatalogSnapshot(
            [rec],
            [lib],
            [Holding("r1", "l1", "donation"), Holding("r1", "l1", "pda")],
        )
        assert snap.n_holdings == 1
        assert next(snap.holdings()).channel == "donation"

    def test_holdings_may_be_given_as_triples(self):
        snap = make_snapshot([("r1", "l1"), ("r1", "l2"), ("r2", "l1")], {("r2", "l1"): "pda"})
        triples = [tuple(h) for h in reversed(list(snap.holdings()))]
        assert CatalogSnapshot(snap.records, snap.libraries, triples) == snap
        with pytest.raises(ValueError, match="unknown acquisition channel: 'gift'"):
            CatalogSnapshot(snap.records, snap.libraries, [("r1", "l1", "gift")])
        with pytest.raises(IntegrityError, match="unknown record: r9"):
            CatalogSnapshot(snap.records, snap.libraries, [("r9", "l1", "pda")])

    @pytest.mark.parametrize(
        "holding, error, message",
        [
            ((["r1"], "l1", "pda"), TypeError, "Holding record_id must be str, not ['r1']"),
            (("", "l1", "pda"), ValueError, "holding needs both record_id and library_id"),
            ((5, "l1", "pda"), TypeError, "Holding record_id must be str, not 5"),
            (("r1", "l1", "gift"), ValueError, "unknown acquisition channel: 'gift'"),
            (("r1", "l1", ["pda"]), TypeError, "Holding channel must be str, not ['pda']"),
        ],
    )
    def test_a_malformed_holding_fails_by_the_holding_rule(self, holding, error, message):
        rec, lib = BookRecord("r1", "T"), LibraryOrg("l1", "Lib", "US")
        with pytest.raises(error) as caught:
            CatalogSnapshot([rec], [lib], [holding])
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_holder_lookup_and_counts(self):
        snap = make_snapshot([("r1", "l1"), ("r1", "l2"), ("r2", "l1")])
        assert {h.library_id for h in snap.holdings() if h.record_id == "r1"} == {"l1", "l2"}
        assert oracles.distinct_holders_bruteforce(snap.holdings(), "r2") == 1
        assert oracles.distinct_holders_bruteforce(snap.holdings(), "r9") == 0
        assert snap.get_record("r1").title == "Title r1"
        assert snap.get_library("l2").name == "Library l2"
        assert snap.get_record("r9") is None
        assert snap.get_library("l9") is None

    def test_equality_is_structural(self):
        pairs = [("r1", "l1"), ("r2", "l1")]
        a = make_snapshot(pairs)
        b = make_snapshot(pairs)
        assert a == b
        d = make_snapshot([("r1", "l1")])
        assert a != d

    def test_entities_are_sorted_by_id(self):
        snap = make_snapshot([("r2", "l2"), ("r1", "l1")])
        assert [r.record_id for r in snap.records] == ["r1", "r2"]
        assert [l.library_id for l in snap.libraries] == ["l1", "l2"]
        assert [(h.record_id, h.library_id) for h in snap.holdings()] == [
            ("r1", "l1"),
            ("r2", "l2"),
        ]


class TestFilter:
    def test_empty_filter_returns_same_object(self):
        snap = make_snapshot([("r1", "l1")])
        assert apply_filter(snap, None) is snap
        assert apply_filter(snap, LibraryFilter()) is snap

    def test_filter_vocabulary_is_validated(self):
        with pytest.raises(ValueError):
            LibraryFilter(kinds=frozenset({"museum"}))
        with pytest.raises(ValueError):
            LibraryFilter(excluded_channels=frozenset({"gift"}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("countries", "US"),
            ("kinds", "academic"),
            ("required_memberships", "ARL"),
            ("excluded_channels", "pda"),
        ],
    )
    def test_filter_refuses_a_bare_string(self, field, value):
        with pytest.raises(TypeError, match=f"LibraryFilter {field} must be a collection of str"):
            LibraryFilter(**{field: value})
        assert getattr(LibraryFilter(**{field: [value]}), field) == frozenset({value})

    def test_kinds_and_channels_fold_case_but_memberships_do_not(self):
        library_filter = LibraryFilter(
            kinds=frozenset({"Academic", "PUBLIC"}),
            required_memberships=frozenset({"Arl"}),
            excluded_channels=frozenset({"Donation"}),
        )
        assert library_filter.kinds == {"academic", "public"}
        assert library_filter.required_memberships == {"Arl"}
        assert library_filter.excluded_channels == {"donation"}

    def test_country_filter_drops_libraries_and_their_holdings(self):
        snap = make_snapshot(
            [("r1", "l1"), ("r1", "l2")], countries={"l1": "US", "l2": "GB"}
        )
        narrowed = apply_filter(snap, LibraryFilter(countries=frozenset({"us"})))
        assert [l.library_id for l in narrowed.libraries] == ["l1"]
        assert oracles.distinct_holders_bruteforce(narrowed.holdings(), "r1") == 1
        assert narrowed.n_records == snap.n_records

    def test_kind_filter(self):
        snap = make_snapshot(
            [("r1", "l1"), ("r1", "l2")], kinds={"l1": "academic", "l2": "public"}
        )
        narrowed = apply_filter(snap, LibraryFilter(kinds=frozenset({"public"})))
        assert [l.library_id for l in narrowed.libraries] == ["l2"]

    def test_membership_filter_requires_all_listed_memberships(self):
        libs = [
            LibraryOrg("l1", "A", "US", "academic", frozenset({"ARL", "GLOBAL"})),
            LibraryOrg("l2", "B", "US", "academic", frozenset({"GLOBAL"})),
            LibraryOrg("l3", "C", "US", "academic"),
        ]
        snap = CatalogSnapshot([], libs, [])
        narrowed = apply_filter(
            snap, LibraryFilter(required_memberships=frozenset({"ARL"}))
        )
        assert [l.library_id for l in narrowed.libraries] == ["l1"]

    def test_channel_exclusion_drops_holdings_not_libraries(self):
        pairs = [(f"r{i}", "l1") for i in range(100)]
        channels = {(f"r{i}", "l1"): "donation" for i in range(4)}
        snap = make_snapshot(pairs, channels=channels)
        narrowed = apply_filter(
            snap, LibraryFilter(excluded_channels=frozenset({"donation"}))
        )
        assert narrowed.n_holdings == 96
        assert narrowed.n_libraries == 1

    def test_unheld_records_survive_filtering(self):
        snap = make_snapshot(
            [("r1", "l1"), ("r2", "l2")], countries={"l1": "US", "l2": "GB"}
        )
        narrowed = apply_filter(snap, LibraryFilter(countries=frozenset({"US"})))
        assert narrowed.get_record("r2") is not None
        assert oracles.distinct_holders_bruteforce(narrowed.holdings(), "r2") == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_filter_is_idempotent(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        library_filter = datasets.random_filter(rng)
        once = apply_filter(snap, library_filter)
        twice = apply_filter(once, library_filter)
        assert once == twice

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_filters_commute(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        f1 = datasets.random_filter(rng)
        f2 = datasets.random_filter(rng)
        assert apply_filter(apply_filter(snap, f1), f2) == apply_filter(
            apply_filter(snap, f2), f1
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_filtered_population_is_a_subset(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        library_filter = datasets.random_filter(rng)
        narrowed = apply_filter(snap, library_filter)
        assert set(narrowed.libraries) <= set(snap.libraries)
        assert set(narrowed.holdings()) <= set(snap.holdings())
        assert narrowed.records == snap.records

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_filter_equals_building_from_the_admitted_entities(self, seed):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        library_filter = datasets.random_filter(rng)
        libraries = [lib for lib in snap.libraries if library_filter.admits_library(lib)]
        kept = {lib.library_id for lib in libraries}
        holdings = [
            h
            for h in snap.holdings()
            if h.library_id in kept and library_filter.admits_channel(h.channel)
        ]
        narrowed = apply_filter(snap, library_filter)
        assert narrowed == CatalogSnapshot(snap.records, libraries, holdings)
        assert list(narrowed.holdings()) == holdings
        for lib in snap.libraries:
            want = lib if lib.library_id in kept else None
            assert narrowed.get_library(lib.library_id) == want
