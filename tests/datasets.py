"""Dataset builders shared across the test suite.

Fixtures here encode known totals (stated next to each builder) so tests
can assert exact counts. Randomized builders take a seeded Random so
failures replay.
"""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import example
from hypothesis import strategies as st

import oracles
from libcat.model import (
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Holding,
    Isbn,
    LibraryFilter,
    LibraryOrg,
)

COUNTRIES = ("US", "GB", "DE", "NL", "ES")
KINDS = ("academic", "public", "other")
CHANNELS = (
    "librarian_order",
    "approval_plan",
    "pda",
    "donation",
    "package",
    "unspecified",
)
LANGUAGES = ("en", "de", "fr", "nl", "es")


def make_isbn(rng: random.Random) -> Isbn:
    return Isbn(oracles.make_isbn13(rng))


def simple_library(i: int, country: str = "US", kind: str = "academic") -> LibraryOrg:
    return LibraryOrg(f"l{i:05d}", f"Library {i}", country, kind)


# --- ranked authors ----------------------------------------------------------
# Five authors, one single-edition work each, with holdings
# 6749 > 5867 > 3718 > 3386 > 2385 out of a shared pool of 6749 libraries.

RANKED_AUTHORS = (
    ("Cronin, Blaise", 6749),
    ("Chen, Chaomei", 5867),
    ("Egghe, Leo", 3718),
    ("Garfield, Eugene", 3386),
    ("Moed, Henk F.", 2385),
)


def five_author_ranking() -> CatalogSnapshot:
    libraries = [simple_library(i) for i in range(6749)]
    records = []
    holdings = []
    for index, (name, count) in enumerate(RANKED_AUTHORS):
        record_id = f"a{index}"
        records.append(
            BookRecord(
                record_id,
                f"Collected studies in information science, volume {index + 1}",
                contributors=(Contributor(name, "author"),),
                year=2000 + index,
                citations=10 * (index + 1),
            )
        )
        holdings.extend(Holding(record_id, f"l{i:05d}") for i in range(count))
    return CatalogSnapshot(records, libraries, holdings)


# --- one author's editions ----------------------------------------------------
# One heading over 45 works in 165 editions: 15 works of 4 editions linked
# by a shared title, 15 of 4 linked by chained ISBNs, 15 of 3 linked by a
# shared OCLC number. Every work is held by exactly 53 distinct libraries,
# so the profile must read works=45, publications=165, holdings=2385.

EDITIONS_HEADING = "Fischer, Martin"


def single_author_editions() -> CatalogSnapshot:
    rng = random.Random(20260817)
    libraries = [simple_library(i) for i in range(200)]
    records = []
    holdings = []
    roles = ("author", "author", "editor", "other", "creator")
    serial = 0

    def add_record(work: int, edition: int, title: str, **kwargs) -> str:
        nonlocal serial
        record_id = f"e{serial:03d}"
        serial += 1
        records.append(
            BookRecord(
                record_id,
                title,
                contributors=(Contributor(EDITIONS_HEADING, roles[edition % len(roles)]),),
                year=1990 + edition,
                language=LANGUAGES[(work + edition) % len(LANGUAGES)],
                lc_class="PN171.F56" if work % 2 == 0 else "001.42",
                format="ebook" if edition % 3 == 2 else "print",
                **kwargs,
            )
        )
        return record_id

    work_members: list[list[str]] = []
    for work in range(15):
        title = f"Annotated survey of field {work}"
        work_members.append([add_record(work, e, title) for e in range(4)])
    for work in range(15, 30):
        chain = [make_isbn(rng) for _ in range(3)]
        members = []
        for edition in range(4):
            shared = []
            if edition > 0:
                shared.append(chain[edition - 1])
            if edition < 3:
                shared.append(chain[edition])
            members.append(
                add_record(
                    work, edition,
                    f"Reference handbook {work}, edition {edition + 1}",
                    isbns=tuple(shared),
                )
            )
        work_members.append(members)
    for work in range(30, 45):
        members = [
            add_record(
                work, edition,
                f"Conference proceedings {work}, printing {edition + 1}",
                oclc=7_000_000 + work,
            )
            for edition in range(3)
        ]
        work_members.append(members)

    for work, members in enumerate(work_members):
        for j in range(53):
            library_id = f"l{(work * 7 + j) % 200:05d}"
            holdings.append(Holding(members[j % len(members)], library_id))
            # an overlapping copy on another edition; the distinct-library
            # union must not double count it
            if j % 11 == 0 and len(members) > 1:
                holdings.append(Holding(members[(j + 1) % len(members)], library_id))
    return CatalogSnapshot(records, libraries, holdings)


# --- diffusion study -----------------------------------------------------------
# 42 catalogs; at full scale 121 147 titles included 417 033 times
# (53 592 titles in 4 catalogs, 67 555 in 3), at small scale 121 titles
# included 417 times (54 by 4, 67 by 3).

def diffusion_study(full_scale: bool = False) -> CatalogSnapshot:
    if full_scale:
        quads, triples = 53_592, 67_555
    else:
        quads, triples = 54, 67
    libraries = [simple_library(i) for i in range(42)]
    records = []
    holdings = []
    for i in range(quads + triples):
        record_id = f"t{i:06d}"
        records.append(BookRecord(record_id, f"Monograph study {i}"))
        spread = 4 if i < quads else 3
        holdings.extend(
            Holding(record_id, f"l{(i + j) % 42:05d}") for j in range(spread)
        )
    return CatalogSnapshot(records, libraries, holdings)


# --- population composition -----------------------------------------------------
# 5804 academic libraries of which 2505 are in the US (a 43.16% share),
# plus public and other libraries so every column is populated.

def membership_composition() -> CatalogSnapshot:
    libraries = [simple_library(i, "US", "academic") for i in range(2505)]
    offset = 2505
    for country, count in (("GB", 1200), ("DE", 1099), ("NL", 600), ("ES", 400)):
        libraries.extend(
            simple_library(offset + i, country, "academic") for i in range(count)
        )
        offset += count
    for country, count in (("US", 300), ("GB", 150)):
        libraries.extend(
            simple_library(offset + i, country, "public") for i in range(count)
        )
        offset += count
    libraries.extend(simple_library(offset + i, "US", "other") for i in range(50))
    record = BookRecord("r0", "Placeholder study")
    return CatalogSnapshot([record], libraries, [Holding("r0", "l00000")])


# --- metric coverage -------------------------------------------------------------
# 10 000 records of which 9781 are held somewhere (97.81%); none carry
# citation counts.

def holdings_coverage() -> CatalogSnapshot:
    libraries = [simple_library(i) for i in range(50)]
    records = []
    holdings = []
    for i in range(10_000):
        record_id = f"c{i:05d}"
        records.append(BookRecord(record_id, f"Catalogued title {i}"))
        if i < 9781:
            holdings.append(Holding(record_id, f"l{i % 50:05d}"))
    return CatalogSnapshot(records, libraries, holdings)


# --- randomized builders ----------------------------------------------------------

def random_snapshot(
    rng: random.Random,
    max_records: int = 12,
    max_libraries: int = 8,
    holding_rate: float = 0.3,
) -> CatalogSnapshot:
    libraries = [
        LibraryOrg(
            f"l{i}",
            f"Library {i}",
            rng.choice(COUNTRIES),
            rng.choice(KINDS),
            frozenset(
                rng.sample(("ARL", "GLOBAL", "CONSORT"), rng.randint(0, 2))
            ),
        )
        for i in range(rng.randint(0, max_libraries))
    ]
    records = []
    for i in range(rng.randint(0, max_records)):
        isbns = tuple(make_isbn(rng) for _ in range(rng.randint(0, 2)))
        contributors = ()
        if rng.random() < 0.8:
            contributors = (Contributor(f"Author {rng.randint(0, 5)}", "author"),)
        records.append(
            BookRecord(
                f"r{i}",
                f"Shared corpus title {rng.randint(0, max_records)}",
                oclc=rng.randint(1, 25) if rng.random() < 0.4 else None,
                isbns=isbns,
                contributors=contributors,
                year=rng.choice((None, 1999, 2005, 2011)),
                language=rng.choice((None,) + LANGUAGES),
                lc_class=rng.choice((None, "QA76", "Z669.8", "PN171")),
                format=rng.choice(("print", "ebook", "unknown")),
                citations=rng.choice((None, 0, 1, 5, 9)),
            )
        )
    holdings = [
        Holding(record.record_id, library.library_id, rng.choice(CHANNELS))
        for record in records
        for library in libraries
        if rng.random() < holding_rate
    ]
    return CatalogSnapshot(records, libraries, holdings)


def random_filter(rng: random.Random) -> LibraryFilter:
    return LibraryFilter(
        countries=(
            frozenset(rng.sample(COUNTRIES, rng.randint(1, 3)))
            if rng.random() < 0.6
            else None
        ),
        kinds=(
            frozenset(rng.sample(KINDS, rng.randint(1, 2)))
            if rng.random() < 0.5
            else None
        ),
        required_memberships=(
            frozenset({rng.choice(("ARL", "GLOBAL"))}) if rng.random() < 0.4 else None
        ),
        excluded_channels=(
            frozenset(rng.sample(CHANNELS, rng.randint(1, 2)))
            if rng.random() < 0.5
            else None
        ),
    )


def harvestable_snapshot(rng: random.Random, max_records: int = 100) -> CatalogSnapshot:
    """Snapshot whose records carry unique identifiers, for harvest round-trips.

    Lookups by a shared identifier would merge holder sets across records,
    so uniqueness keeps per-record holdings comparable; channels stay
    "unspecified" because the locations API does not report acquisition
    channels.
    """
    libraries = [
        LibraryOrg(f"inst{i:03d}", f"Institution {i}", rng.choice(COUNTRIES), "other")
        for i in range(rng.randint(1, 20))
    ]
    records = []
    for i in range(rng.randint(1, max_records)):
        style = rng.randrange(3)
        oclc = 5_000_000 + i if style == 0 else None
        isbns = (make_isbn(rng),) if style == 1 else ()
        if style == 2:
            oclc = 5_000_000 + i
            isbns = (make_isbn(rng),)
        records.append(
            BookRecord(f"h{i:03d}", f"Holdings probe {i}", oclc=oclc, isbns=isbns)
        )
    holdings = [
        Holding(record.record_id, library.library_id)
        for record in records
        for library in libraries
        if rng.random() < 0.25
    ]
    return CatalogSnapshot(records, libraries, holdings)


def classed_snapshot(
    rng: random.Random,
    n_classes: int,
    large_classes: int = 0,
    max_small: int = 50,
    max_count: int = 6,
) -> tuple[CatalogSnapshot, list[str]]:
    """Records spread over classification classes with known holder counts.

    Returns the snapshot and the class labels. Every class has at least
    one held record, keeping its mean libcitations positive.
    """
    pool = [simple_library(i) for i in range(max_count)]
    records = []
    holdings = []
    labels = []
    serial = 0
    for c in range(n_classes):
        label = f"CL{c:04d}"
        labels.append(label)
        size = 1000 if c < large_classes else rng.randint(1, max_small)
        for j in range(size):
            record_id = f"k{serial:06d}"
            serial += 1
            records.append(
                BookRecord(record_id, f"Class member {serial}", lc_class=label)
            )
            count = rng.randint(1, max_count) if j == 0 else rng.randint(0, max_count)
            holdings.extend(
                Holding(record_id, pool[m].library_id) for m in range(count)
            )
    return CatalogSnapshot(records, pool, holdings), labels


# --- ill-typed JSON values ------------------------------------------------

# Values every field is checked against before any random draw: NaN,
# bools, huge ints, the empty string, strings where a list belongs,
# nesting, a lone surrogate.
EDGE_VALUES = [
    float("nan"), float("inf"), True, False, None, 0, -1, 2**64, -(2**80), 1.5,
    "", " ", "ARL", "978", "\ud800", [], {}, [[]], [1, "a"], ["x"], [None],
    {"a": [1]}, [[1] * 13], ["1" * 13],
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def edge_examples(test):
    """Run the hypothesis test `test` on every EDGE_VALUES entry first."""
    for value in EDGE_VALUES:
        test = example(value=value)(test)
    return test


# --- catalogs of any text -------------------------------------------------

# Non-blank text of any code point but a lone surrogate, which no entity
# holds.
ANY_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(str.strip)


@st.composite
def text_catalogs(draw) -> CatalogSnapshot:
    """A small catalog whose text fields draw from ANY_TEXT and whose
    counts may pass float precision; authors repeat across records."""
    names = draw(st.lists(ANY_TEXT, min_size=1, max_size=3))
    optional_text = st.none() | ANY_TEXT
    roles = st.sampled_from(("author", "editor", "other"))
    records = [
        BookRecord(
            record_id,
            draw(ANY_TEXT),
            oclc=draw(st.none() | st.integers(1, 2**70)),
            isbns=tuple(
                make_isbn(random.Random(seed))
                for seed in draw(st.lists(st.integers(0, 9), max_size=2))
            ),
            contributors=tuple(
                Contributor(name, role)
                for name, role in draw(st.lists(st.tuples(st.sampled_from(names), roles), max_size=3))
            ),
            year=draw(st.none() | st.integers(-3000, 3000)),
            language=draw(optional_text),
            lc_class=draw(st.none() | st.sampled_from(names)),
            format=draw(st.sampled_from(("print", "ebook", "unknown"))),
            citations=draw(st.none() | st.integers(0, 2**70)),
        )
        for record_id in draw(st.lists(ANY_TEXT, max_size=6, unique=True))
    ]
    libraries = [
        LibraryOrg(
            library_id,
            draw(ANY_TEXT),
            draw(st.sampled_from(COUNTRIES) | ANY_TEXT),
            draw(st.sampled_from(KINDS)),
            frozenset(draw(st.lists(ANY_TEXT, max_size=2))),
        )
        for library_id in draw(st.lists(ANY_TEXT, max_size=4, unique=True))
    ]
    holdings = [
        Holding(record.record_id, library.library_id, draw(st.sampled_from(CHANNELS)))
        for record in records
        for library in libraries
        if draw(st.booleans())
    ]
    return CatalogSnapshot(records, libraries, holdings)
