"""Seeded input generators for the benchmark workloads, with their truth.

Everything here is plain Python on plain data: no libcat import, so the
expected outputs the checks compare against are derived from how the
data was generated, never from the code under test. Every count that
sets the amount of work (records, editions, authors' productivity,
holder counts, class sizes, request mix) is a fixed function of the
scale; the seed only decides which record, author or library gets which
share. Runs with different seeds therefore do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

CHANNELS = ("librarian_order", "approval_plan", "pda", "donation", "package", "unspecified")
CHANNEL_WEIGHTS = (35, 20, 10, 15, 15, 5)
COUNTRY_SHARES = (("US", 35), ("GB", 15), ("DE", 12), ("FR", 10), ("CA", 8), ("AU", 8), ("JP", 7),
                  ("NL", 5))
KIND_SHARES = (("academic", 50), ("public", 35), ("other", 15))

# The population every filtered command uses, and its meaning in plain terms.
FILTER_SPEC = "country=US;kind=academic;exclude-channel=donation"


def admits_library(library: dict) -> bool:
    return library["country"] == "US" and library["kind"] == "academic"


def admits_channel(channel: str) -> bool:
    return channel != "donation"


_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "vo", "de", "pa", "shi", "ru", "ga", "be",
              "zo", "fi")
_WORDS = (
    "Atlas", "Border", "Canon", "Delta", "Echo", "Fable", "Garden", "Harbor",
    "Index", "Journey", "Kingdom", "Ledger", "Meadow", "Network", "Orbit", "Passage",
    "Quarry", "River", "Signal", "Tower", "Union", "Valley", "Window", "Yard",
    "Zenith", "Archive", "Bridge", "Circle", "Doctrine", "Empire", "Frontier", "Grammar",
)
# Folded forms differ from the plain ones only by the diacritic, so both
# spellings name one author after case and diacritic folding.
_DIACRITIC = {"o": "ö", "u": "ü", "a": "á", "e": "é", "i": "í"}


def _spread(total: int, shares) -> list:
    """Expand (value, weight) shares into exactly `total` values."""
    weight_sum = sum(w for _, w in shares)
    out: list = []
    for value, weight in shares:
        out.extend([value] * (total * weight // weight_sum))
    while len(out) < total:
        out.append(shares[len(out) % len(shares)][0])
    return out


def _zipf_counts(total: int, n: int, exponent: float) -> list[int]:
    """Split `total` into `n` parts proportional to 1/k**exponent, each >= 1."""
    weights = [1.0 / (k ** exponent) for k in range(1, n + 1)]
    scale = (total - n) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    k = 0
    while sum(counts) < total:
        counts[k % n] += 1
        k += 1
    return counts


def _holder_counts(n: int, target: int, cap: int, unheld: float) -> list[int]:
    """Pareto-like holder counts by rank with an exact, seed-free total."""
    n_unheld = int(n * unheld)
    ranks = range(1, n - n_unheld + 1)
    lo, hi = 0.0, float(target)
    for _ in range(60):
        k = (lo + hi) / 2
        total = sum(min(cap, max(1, int(k / r ** 0.8))) for r in ranks)
        lo, hi = (k, hi) if total < target else (lo, k)
    return [min(cap, max(1, int(hi / r ** 0.8))) for r in ranks] + [0] * n_unheld


def _isbn13(body9: int) -> str:
    first12 = "978" + f"{body9:09d}"
    total = sum(int(c) * (1 if i % 2 == 0 else 3) for i, c in enumerate(first12))
    return first12 + str((10 - total % 10) % 10)


def _isbn10(isbn13: str) -> str:
    body = isbn13[3:12]
    remainder = sum((i + 1) * int(c) for i, c in enumerate(body)) % 11
    return body + ("X" if remainder == 10 else str(remainder))


class _Ids:
    """Unique OCLC numbers and ISBN bodies drawn from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self._oclc = rng.randrange(10_000, 900_000)
        self._isbn = rng.randrange(10_000_000, 400_000_000)

    def oclc(self) -> int:
        self._oclc += 7
        return self._oclc

    def isbn(self) -> str:
        self._isbn += 13
        return _isbn13(self._isbn)


def _title(index: int) -> str:
    n = len(_WORDS)
    a, b, c = index % n, (index // n) % n, (index // (n * n)) % n
    return f"{_WORDS[a]} and {_WORDS[b]} of the {_WORDS[c]} {index // (n ** 3) + 1}"


def _author_name(index: int) -> str:
    n = len(_SYLLABLES)
    a, b, c = index % n, (index // n) % n, (index // (n * n)) % n
    surname = (_SYLLABLES[c] + _SYLLABLES[b] + _SYLLABLES[a]).capitalize()
    return f"{surname}, {chr(ord('A') + index % 26)}."


def _with_diacritic(name: str) -> Optional[str]:
    for plain, marked in _DIACRITIC.items():
        if plain in name:
            return name.replace(plain, marked, 1)
    return None


def write_jsonl(path, objects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def _libraries(rng: random.Random, n: int) -> list[dict]:
    countries = _spread(n, COUNTRY_SHARES)
    kinds = _spread(n, KIND_SHARES)
    rng.shuffle(countries)
    rng.shuffle(kinds)
    out = []
    for i in range(n):
        memberships = []
        if kinds[i] == "academic" and rng.random() < 0.4:
            memberships.append("ARL")
        if rng.random() < 0.5:
            memberships.append("OCLC")
        lib = {"t": "L", "id": f"L{i:05d}", "name": f"Library {i}", "country": countries[i],
               "kind": kinds[i]}
        if memberships:
            lib["memberships"] = memberships
        out.append(lib)
    return out


# --- analyze_skewed ------------------------------------------------------------

@dataclass
class Catalog:
    """A generated dataset plus the structure it was generated from."""

    records: list[dict]
    libraries: list[dict]
    holdings: list[tuple[str, str, str]]
    works: list[list[str]] = field(default_factory=list)
    work_authors: list[list[str]] = field(default_factory=list)
    scale: dict = field(default_factory=dict)

    def write(self, path) -> None:
        holdings = ({"t": "H", "record": record, "library": library, "channel": channel}
                    for record, library, channel in self.holdings)
        write_jsonl(path, [*self.records, *self.libraries, *holdings])


ANALYZE_SCALES = {
    "full": dict(works=5000, authors=60, libraries=400, holdings=40_000, classes=200, units=6),
    "tiny": dict(works=60, authors=8, libraries=12, holdings=300, classes=5, units=3),
}


def analyze_catalog(seed: int, scale: str) -> Catalog:
    """One giant LC class, Zipf authors, 1-3 editions per work, Pareto holders."""
    p = ANALYZE_SCALES[scale]
    rng = random.Random(seed * 7919 + 1)
    ids = _Ids(rng)
    n_works = p["works"]

    editions = _spread(n_works, ((1, 55), (2, 30), (3, 15)))
    rng.shuffle(editions)
    n_records = sum(editions)

    # Zipf productivity: author k writes about 1/k of the top author's works.
    names = [_author_name(i) for i in rng.sample(range(len(_SYLLABLES) ** 3), p["authors"])]
    productivity = _zipf_counts(n_works, p["authors"], 1.0)
    primary = [a for a, count in enumerate(productivity) for _ in range(count)]
    rng.shuffle(primary)
    # A tenth of the authors also appear with a diacritic on some works;
    # folding must merge both spellings into one heading.
    variants = {a: _with_diacritic(names[a])
                for a in rng.sample(range(p["authors"]), p["authors"] // 10)}

    # Classes: works go to the giant class until it holds half the records.
    order = list(range(n_works))
    rng.shuffle(order)
    work_class: list[Optional[str]] = [None] * n_works
    giant_records = 0
    for w in order:
        if giant_records + editions[w] <= n_records // 2:
            work_class[w] = "QA76"
            giant_records += editions[w]
        elif rng.random() < 0.98:
            work_class[w] = f"K{rng.randrange(p['classes']):03d}"

    title_ids = rng.sample(range(len(_WORDS) ** 3), n_works)
    edited = _spread(n_works, ((True, 3), (False, 7)))
    rng.shuffle(edited)
    records: list[dict] = []
    works: list[list[str]] = []
    work_authors: list[list[str]] = []
    for w in range(n_works):
        author = primary[w]
        contributors = [[names[author], "author"]]
        if variants.get(author) and w % 2:
            contributors = [[variants[author], "author"]]
        if edited[w]:
            editor = (author + 1 + rng.randrange(p["authors"] - 1)) % p["authors"]
            contributors.append([names[editor], "editor"])
        base = _title(title_ids[w])
        first_oclc = ids.oclc() if rng.random() < 0.8 else None
        first_isbn = ids.isbn() if rng.random() < 0.7 else None
        members = []
        for e in range(editions[w]):
            title, oclc, isbns = base, first_oclc, [first_isbn] if first_isbn else []
            if e > 0:
                link = ("oclc", "isbn", "key")[(w + e) % 3]
                if link == "oclc" and first_oclc is not None:
                    title, isbns = f"{base}: edition {e + 1}", [ids.isbn()]
                elif link == "isbn" and first_isbn is not None:
                    title, oclc = f"{base}: edition {e + 1}", ids.oclc()
                    isbns = [first_isbn, ids.isbn()]
                else:
                    title, oclc, isbns = base.upper() + ".", ids.oclc(), [ids.isbn()]
            record_id = f"b{len(records):06d}"
            record = {"t": "R", "id": record_id, "title": title}
            if oclc is not None:
                record["oclc"] = oclc
            if isbns:
                record["isbns"] = sorted(isbns)
            record["contributors"] = contributors
            record["year"] = 1950 + rng.randrange(70)
            if work_class[w] is not None:
                record["lc"] = work_class[w]
            record["format"] = "ebook" if rng.random() < 0.2 else "print"
            records.append(record)
            members.append(record_id)
        works.append(members)
        work_authors.append([c[0] for c in contributors])

    libraries = _libraries(rng, p["libraries"])
    library_ids = [lib["id"] for lib in libraries]
    counts = _holder_counts(n_records, p["holdings"], p["libraries"], unheld=0.04)
    rng.shuffle(counts)
    holdings = []
    for record, count in zip(records, counts):
        channels = rng.choices(CHANNELS, CHANNEL_WEIGHTS, k=count)
        for library_id, channel in zip(sorted(rng.sample(library_ids, count)), channels):
            holdings.append((record["id"], library_id, channel))
        if rng.random() < 0.9:
            record["citations"] = count // 2 + rng.randrange(6)

    scale_info = dict(
        records=n_records, works=n_works, libraries=len(libraries), holdings=len(holdings),
        authors=p["authors"], giant_class_records=giant_records, classes=p["classes"] + 1,
    )
    return Catalog(records, libraries, holdings, works, work_authors, scale_info)


def analyze_units(catalog: Catalog, seed: int, n_units: int) -> list[dict]:
    """Units file: the most prolific authors' oeuvres and a random sample."""
    rng = random.Random(seed * 7919 + 2)
    by_author: dict[str, list[str]] = {}
    for members, authors in zip(catalog.works, catalog.work_authors):
        by_author.setdefault(authors[0], []).extend(members)
    prolific = sorted(by_author, key=lambda a: (-len(by_author[a]), a))[: n_units - 1]
    units = [{"id": f"u{i}", "label": f"oeuvre of {a}", "members": sorted(by_author[a])}
             for i, a in enumerate(prolific)]
    sample = sorted(rng.sample([r["id"] for r in catalog.records], len(catalog.records) // 20))
    units.append({"id": f"u{len(units)}", "label": "random sample", "members": sample})
    return units


# --- ingest_write ----------------------------------------------------------------

INGEST_SCALES = {
    "full": dict(marc=10_000, dublin_core=6_000, overlap=2_000, missing_title=0.01, duplicate=0.01,
                 bad_isbn=0.02),
    "tiny": dict(marc=60, dublin_core=40, overlap=15, missing_title=0.05, duplicate=0.05,
                 bad_isbn=0.05),
}


@dataclass
class IngestInputs:
    marc_xml: str
    dublin_core_xml: str
    marc_accepted: int
    marc_rejected: int
    dc_accepted: int
    dc_rejected: int
    merged_records: int
    scale: dict


def _book(rng: random.Random, ids: _Ids, title_index: int) -> dict:
    n_isbns = rng.choice((0, 1, 1, 2))
    return {
        "title": _title(title_index),
        # MARC parsing trims trailing periods from names, so none are generated.
        "authors": [_author_name(rng.randrange(4096)).rstrip(".")],
        "others": [_author_name(rng.randrange(4096)).rstrip(".")] if rng.random() < 0.3 else [],
        "isbns": [ids.isbn() for _ in range(n_isbns)],
        "oclc": ids.oclc() if rng.random() < 0.85 else None,
        "year": 1950 + rng.randrange(70),
        "lc": f"K{rng.randrange(300):03d}",
        "bad_isbn": False,
    }


def _datafield(tag: str, *subfields: tuple[str, str]) -> str:
    inner = "".join(f'<subfield code="{code}">{text}</subfield>' for code, text in subfields)
    return f'<datafield tag="{tag}" ind1=" " ind2=" ">{inner}</datafield>'


def _marc(book: dict, rng: random.Random) -> str:
    parts = ["<record>", "<leader>00000nam a2200000 a 4500</leader>"]
    if book["oclc"] is not None and rng.random() < 0.5:
        parts.append(f'<controlfield tag="001">(OCoLC){book["oclc"]}</controlfield>')
    fixed = f"850101s{book['year']}    xxu           000 0 eng d"
    parts.append(f'<controlfield tag="008">{fixed}</controlfield>')
    for isbn in book["isbns"]:
        shown = _isbn10(isbn) if rng.random() < 0.3 else isbn
        parts.append(_datafield("020", ("a", f"{shown} (pbk.)")))
    if book["bad_isbn"]:
        parts.append(_datafield("020", ("a", "9780306406150")))
    if book["oclc"] is not None:
        parts.append(_datafield("035", ("a", f"(OCoLC)ocm{book['oclc']:08d}")))
    parts.append(_datafield("050", ("a", book["lc"])))
    parts.extend(_datafield("100", ("a", f"{name},")) for name in book["authors"])
    if book["title"]:
        parts.append(_datafield("245", ("a", f"{book['title']} /"), ("c", "by someone.")))
    parts.extend(_datafield("700", ("a", f"{name}.")) for name in book["others"])
    parts.append("</record>")
    return "".join(parts)


def _dublin_core(book: dict, with_language: bool) -> str:
    parts = ["<oai_dc:dc>"]
    if book["title"]:
        parts.append(f"<dc:title>{book['title']}</dc:title>")
    parts.extend(f"<dc:creator>{name}</dc:creator>" for name in book["authors"])
    parts.extend(f"<dc:contributor>{name}</dc:contributor>" for name in book["others"])
    parts.extend(f"<dc:identifier>ISBN {isbn}</dc:identifier>" for isbn in book["isbns"])
    if book["bad_isbn"]:
        parts.append("<dc:identifier>ISBN 9780306406150</dc:identifier>")
    if book["oclc"] is not None:
        parts.append(f"<dc:identifier>(OCoLC){book['oclc']}</dc:identifier>")
    parts.append(f"<dc:date>{book['year']}</dc:date>")
    if with_language:
        parts.append("<dc:language>en</dc:language>")
    parts.append(f"<dc:subject>{book['lc']}</dc:subject>")
    parts.append("</oai_dc:dc>")
    return "".join(parts)


def ingest_inputs(seed: int, scale: str) -> IngestInputs:
    """A MARC-XML export and a partly overlapping Dublin Core export.

    Both carry records with no title and verbatim duplicates (rejected)
    and records with an ISBN whose check digit is wrong (accepted, the
    ISBN dropped). Overlapping records carry identical fields in both
    formats, so the merge keeps one copy of each.
    """
    p = INGEST_SCALES[scale]
    rng = random.Random(seed * 7919 + 3)
    ids = _Ids(rng)
    n_marc, n_dc, n_overlap = p["marc"], p["dublin_core"], p["overlap"]
    title_ids = rng.sample(range(len(_WORDS) ** 3), n_marc + n_dc - n_overlap)
    books = [_book(rng, ids, t) for t in title_ids]
    for book in rng.sample(books, int(len(books) * p["bad_isbn"])):
        book["bad_isbn"] = True

    marc_books = books[:n_marc]
    dc_books = books[n_marc - n_overlap:]
    overlap = {id(b) for b in books[n_marc - n_overlap:n_marc]}

    def export(own: list[dict], render) -> tuple[list[str], int, int]:
        items = [render(b) for b in own]
        n_missing = int(len(own) * p["missing_title"])
        n_dup = int(len(own) * p["duplicate"])
        for _ in range(n_missing):
            untitled = dict(_book(rng, ids, 0), title="")
            items.insert(rng.randrange(len(items) + 1), render(untitled))
        for index in rng.sample(range(len(own)), n_dup):
            items.append(render(own[index]))
        return items, len(own), n_missing + n_dup

    marc_items, marc_ok, marc_bad = export(marc_books, lambda b: _marc(b, rng))
    # MARC carries no language, so overlapping records omit it in Dublin Core too.
    dc_items, dc_ok, dc_bad = export(
        dc_books, lambda b: _dublin_core(b, with_language=id(b) not in overlap))
    marc_xml = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<collection xmlns="http://www.loc.gov/MARC21/slim">'
                + "\n".join(marc_items) + "</collection>\n")
    dc_xml = ('<?xml version="1.0" encoding="UTF-8"?>\n'
              '<records xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" '
              'xmlns:dc="http://purl.org/dc/elements/1.1/">' + "\n".join(dc_items) + "</records>\n")
    scale_info = dict(marc_records=len(marc_items), dublin_core_records=len(dc_items),
                      overlap=n_overlap)
    return IngestInputs(marc_xml, dc_xml, marc_ok, marc_bad, dc_ok, dc_bad,
                        marc_ok + dc_ok - n_overlap, scale_info)


# --- harvest_replay --------------------------------------------------------------

HARVEST_SCALES = {
    "full": dict(records=1200, libraries=300, holdings=12_000),
    "tiny": dict(records=40, libraries=10, holdings=120),
}
# Lookup plan mix, in percent of the dataset's records: looked up by OCLC
# number, by ISBN, skipped for lack of an identifier, and unknown to the
# server (half by OCLC, half by ISBN), which answers those with 404.
REQUEST_MIX = (("oclc", 55), ("isbn", 25), ("none", 8), ("unknown", 12))


@dataclass
class HarvestInputs:
    server: Catalog
    dataset_records: list[dict]
    expected: dict
    scale: dict


def harvest_inputs(seed: int, scale: str) -> HarvestInputs:
    """Dataset records to harvest and the catalog the replay server serves.

    A few server records share an OCLC number with another (editions), so
    one lookup returns the union of their holders.
    """
    p = HARVEST_SCALES[scale]
    rng = random.Random(seed * 7919 + 4)
    ids = _Ids(rng)
    kinds = _spread(p["records"], REQUEST_MIX)
    rng.shuffle(kinds)
    title_ids = rng.sample(range(len(_WORDS) ** 3), p["records"])
    dataset: list[dict] = []
    served: list[dict] = []
    last_oclc = None
    for i, kind in enumerate(kinds):
        record = {"t": "R", "id": f"h{i:06d}", "title": _title(title_ids[i]),
                  "contributors": [[_author_name(rng.randrange(4096)), "author"]],
                  "format": "print"}
        if kind == "oclc" or (kind == "unknown" and i % 2 == 0):
            shares_edition = kind == "oclc" and last_oclc and rng.random() < 0.05
            record["oclc"] = last_oclc if shares_edition else ids.oclc()
            if kind == "oclc":
                last_oclc = record["oclc"]
        if kind == "isbn" or (kind == "unknown" and i % 2 == 1):
            record["isbns"] = [ids.isbn()]
        dataset.append(record)
        if kind in ("oclc", "isbn"):
            served.append(record)

    libraries = _libraries(rng, p["libraries"])
    library_ids = [lib["id"] for lib in libraries]
    counts = _holder_counts(len(served), p["holdings"], p["libraries"], unheld=0.05)
    rng.shuffle(counts)
    holdings = []
    holders: dict[str, set[str]] = {}
    for record, count in zip(served, counts):
        chosen = sorted(rng.sample(library_ids, count))
        holders[record["id"]] = set(chosen)
        holdings.extend((record["id"], library_id, rng.choice(CHANNELS)) for library_id in chosen)

    by_oclc: dict[int, set[str]] = {}
    by_isbn: dict[str, set[str]] = {}
    for record in served:
        if "oclc" in record:
            by_oclc.setdefault(record["oclc"], set()).update(holders[record["id"]])
        for isbn in record.get("isbns", ()):
            by_isbn.setdefault(isbn, set()).update(holders[record["id"]])
    fetched = skipped = not_found = n_holdings = 0
    found_libraries: set[str] = set()
    for record in dataset:
        if "oclc" in record:
            found = by_oclc.get(record["oclc"])
        elif "isbns" in record:
            found = by_isbn.get(record["isbns"][0])
        else:
            skipped += 1
            continue
        fetched += 1
        if found is None:
            not_found += 1
            continue
        n_holdings += len(found)
        found_libraries |= found
    expected = dict(fetched=fetched, skipped=skipped, errors=0, not_found=not_found,
                    holdings=n_holdings, libraries=len(found_libraries), requests=fetched)
    server = Catalog(served, libraries, holdings)
    scale_info = dict(records=len(dataset), served_records=len(served), libraries=len(libraries),
                      holdings=len(holdings), lookups=fetched)
    return HarvestInputs(server, dataset, expected, scale_info)
