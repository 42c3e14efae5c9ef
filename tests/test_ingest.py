"""Record parsing and dataset persistence."""

import copy
import errno
import hashlib
import io
import itertools
import json
import marshal
import os
import random
import stat
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from libcat import ingest
from libcat.errors import DatasetError, IntegrityError, ParseError
from libcat.ingest import (
    load_dataset,
    merge_snapshots,
    parse_dublin_core,
    parse_marc_xml,
    save_dataset,
)
from libcat.model import (
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Holding,
    LibraryOrg,
)

DC_DOC = """<?xml version="1.0"?>
<collection xmlns:dc="http://purl.org/dc/elements/1.1/">
  <item>
    <dc:title>Mapping Scientific Frontiers</dc:title>
    <dc:creator>Chen, Chaomei</dc:creator>
    <dc:contributor>Boerner, Katy</dc:contributor>
    <dc:identifier>ISBN: 1-85233-494-0</dc:identifier>
    <dc:identifier>(OCoLC)49672254</dc:identifier>
    <dc:date>c2003.</dc:date>
    <dc:language>en</dc:language>
    <dc:subject>Q175</dc:subject>
    <dc:subject>Discoveries in science</dc:subject>
  </item>
  <item>
    <dc:title>Little Science, Big Science</dc:title>
    <dc:identifier>0231085621</dc:identifier>
    <dc:identifier>OCLC 00296191</dc:identifier>
  </item>
  <item>
    <dc:creator>Nobody, No Title</dc:creator>
  </item>
</collection>
"""

MARC_DOC = """<?xml version="1.0"?>
<collection xmlns="http://www.loc.gov/MARC21/slim">
  <record>
    <controlfield tag="001">ocm12345</controlfield>
    <controlfield tag="008">950413s1995    nyua          001 0 eng  </controlfield>
    <datafield tag="020" ind1=" " ind2=" ">
      <subfield code="a">0471925365 (cloth)</subfield>
    </datafield>
    <datafield tag="035" ind1=" " ind2=" ">
      <subfield code="a">(OCoLC)31290663</subfield>
    </datafield>
    <datafield tag="050" ind1="0" ind2="0">
      <subfield code="a">Z669.8</subfield>
    </datafield>
    <datafield tag="100" ind1="1" ind2=" ">
      <subfield code="a">Egghe, Leo,</subfield>
    </datafield>
    <datafield tag="245" ind1="1" ind2="0">
      <subfield code="a">Introduction to informetrics /</subfield>
    </datafield>
    <datafield tag="700" ind1="1" ind2=" ">
      <subfield code="a">Rousseau, Ronald.</subfield>
    </datafield>
  </record>
  <record>
    <datafield tag="100" ind1="1" ind2=" ">
      <subfield code="a">Titleless, Tome</subfield>
    </datafield>
  </record>
</collection>
"""


class TestDublinCore:
    def test_the_parse_report_is_a_mutable_value(self):
        _, report = parse_dublin_core(DC_DOC)
        assert report == ingest.ParseReport(2, [("record 3", "missing title")])
        assert report != ingest.ParseReport(2) and ingest.ParseReport().rejected == 0
        assert repr(report) == "ParseReport(accepted=2, rejections=[('record 3', 'missing title')])"
        report.accepted += 1
        assert report.accepted == 3

    def test_field_mapping(self):
        records, report = parse_dublin_core(DC_DOC)
        assert report.accepted == 2
        assert report.rejected == 1
        assert report.rejections == [("record 3", "missing title")]

        first = records[0]
        assert first.title == "Mapping Scientific Frontiers"
        assert [(c.name, c.role) for c in first.contributors] == [
            ("Chen, Chaomei", "author"),
            ("Boerner, Katy", "other"),
        ]
        assert [i.digits for i in first.isbns] == ["9781852334949"]
        assert first.oclc == 49672254
        assert first.year == 2003
        assert first.language == "en"
        assert first.lc_class == "Q175"

    def test_bare_isbn_shaped_identifier_and_oclc_prefix(self):
        records, _ = parse_dublin_core(DC_DOC)
        second = records[1]
        assert [i.digits for i in second.isbns] == ["9780231085625"]
        assert second.oclc == 296191

    def test_single_record_root(self):
        doc = "<record><title>Solo</title><creator>A</creator></record>"
        records, report = parse_dublin_core(doc)
        assert report.accepted == 1
        assert records[0].title == "Solo"

    def test_invalid_isbn_identifier_is_skipped_not_fatal(self):
        doc = (
            "<coll><item><title>T</title>"
            "<identifier>ISBN 0-306-40615-3</identifier></item></coll>"
        )
        records, report = parse_dublin_core(doc)
        assert report.accepted == 1
        assert records[0].isbns == ()

    def test_malformed_xml_raises(self):
        with pytest.raises(ParseError):
            parse_dublin_core("<collection><item></collection>")

    def test_duplicate_records_rejected(self):
        doc = (
            "<coll>"
            "<item><title>Same</title><creator>A</creator></item>"
            "<item><title>Same</title><creator>A</creator></item>"
            "</coll>"
        )
        records, report = parse_dublin_core(doc)
        assert len(records) == 1
        assert report.accepted == 1
        assert report.rejected == 1
        assert "duplicate of record 1" in report.rejections[0][1]


class TestMarc:
    def test_field_mapping(self):
        records, report = parse_marc_xml(MARC_DOC)
        assert report.accepted == 1
        assert report.rejected == 1

        rec = records[0]
        assert rec.title == "Introduction to informetrics"
        assert [(c.name, c.role) for c in rec.contributors] == [
            ("Egghe, Leo", "author"),
            ("Rousseau, Ronald", "other"),
        ]
        assert [i.digits for i in rec.isbns] == ["9780471925361"]
        assert rec.oclc == 31290663
        assert rec.year == 1995
        assert rec.lc_class == "Z669.8"

    def test_bare_control_number_is_not_an_oclc_number(self):
        doc = (
            '<record><controlfield tag="001">12345</controlfield>'
            '<datafield tag="245"><subfield code="a">T</subfield></datafield>'
            "</record>"
        )
        records, _ = parse_marc_xml(doc)
        assert records[0].oclc is None

    def test_isbd_trailing_punctuation_trimmed(self):
        doc = (
            '<record><datafield tag="245">'
            '<subfield code="a">The handbook of science :</subfield>'
            "</datafield></record>"
        )
        records, _ = parse_marc_xml(doc)
        assert records[0].title == "The handbook of science"

    def test_malformed_xml_raises(self):
        with pytest.raises(ParseError):
            parse_marc_xml(b"\x00\x01 not xml")

    def test_invalid_isbn_is_skipped_and_the_record_kept(self):
        doc = (
            '<record><datafield tag="245"><subfield code="a">T</subfield></datafield>'
            '<datafield tag="020"><subfield code="a">0471925366 (bad check digit)</subfield>'
            '</datafield><datafield tag="020"><subfield code="a">0306406152</subfield>'
            '</datafield><datafield tag="020"><subfield code="a">ISBN?</subfield></datafield>'
            "</record>"
        )
        (record,), report = parse_marc_xml(doc)
        assert (report.accepted, report.rejected) == (1, 0)
        assert [i.digits for i in record.isbns] == ["9780306406157"]

    def test_punctuation_only_contributor_is_dropped(self):
        doc = (
            '<record><datafield tag="245"><subfield code="a">T</subfield></datafield>'
            '<datafield tag="100"><subfield code="a">,,</subfield></datafield>'
            "</record>"
        )
        records, report = parse_marc_xml(doc)
        assert report.accepted == 1
        assert records[0].contributors == ()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 10**9))
    def test_report_reconciles(self, count, seed):
        rng = random.Random(seed)
        items = []
        expected_rejected = 0
        for i in range(count):
            if rng.random() < 0.25:
                items.append("<record><leader>00000nam</leader></record>")
                expected_rejected += 1
            else:
                items.append(
                    '<record><datafield tag="245">'
                    f'<subfield code="a">Unique title {i}</subfield>'
                    "</datafield></record>"
                )
        doc = "<collection>" + "".join(items) + "</collection>"
        records, report = parse_marc_xml(doc)
        assert report.accepted + report.rejected == count
        assert report.accepted == len(records)
        assert report.rejected == expected_rejected


class TestParserRobustness:
    @settings(max_examples=120, deadline=None)
    @given(st.binary(max_size=2048))
    def test_arbitrary_bytes_never_crash(self, blob):
        for parser in (parse_dublin_core, parse_marc_xml):
            try:
                records, report = parser(blob)
            except ParseError:
                continue
            assert report.accepted == len(records)

    @settings(max_examples=120, deadline=None)
    @given(st.text(max_size=2048))
    def test_arbitrary_text_never_crashes(self, text):
        for parser in (parse_dublin_core, parse_marc_xml):
            try:
                records, report = parser(text)
            except ParseError:
                continue
            assert report.accepted == len(records)

    def test_superscript_digits_are_noise_not_a_crash(self):
        """A superscript passes `str.isdigit` and fails `int()`: an OCLC
        number, ISBN or MARC 008 year written with one is skipped."""
        dc = (
            "<record><title>T</title><identifier>OCLC \u00b2</identifier>"
            "<identifier>ISBN 03064061\u00b252</identifier></record>"
        )
        marc = (
            '<record><datafield tag="245"><subfield code="a">T</subfield></datafield>'
            '<controlfield tag="008">950413s\u00b2\u00b2\u00b2\u00b2</controlfield>'
            "</record>"
        )
        (dc_record,), _ = parse_dublin_core(dc)
        assert dc_record.oclc is None and dc_record.isbns == ()
        (marc_record,), _ = parse_marc_xml(marc)
        assert marc_record.year is None

    def test_megabyte_of_junk(self):
        rng = random.Random(0)
        blob = bytes(rng.randrange(256) for _ in range(1 << 20))
        for parser in (parse_dublin_core, parse_marc_xml):
            with pytest.raises(ParseError):
                parser(blob)

    def test_megabyte_of_wellformed_noise(self):
        body = "<x>noise</x>" * 90_000
        doc = "<collection>" + body + "</collection>"
        assert len(doc) > (1 << 20)
        records, report = parse_dublin_core(doc)
        assert records == []
        assert report.accepted == 0


# Generated XML for the streaming parsers: names both formats read, in
# and out of a namespace and in either case, with text that holds 2-, 3-
# and 4-byte UTF-8 characters, so small chunks split them.
XML_NAMES = ["record", "Record", "m:record", "item", "title", "dc:title", "TITLE", "creator",
             "dc:identifier", "date", "leader", "x"]
XML_TEXTS = ["", " ", "Gödel, Kurt,", "漢字の本 /", "Smile \U0001F600", "(OCoLC)31290663",
             "ISBN 0-306-40615-2", "950413s1995", "a &amp; b", "x &lt; y :", "Title"]
XML_TEXT = st.sampled_from(XML_TEXTS)
XML_LEAF = st.one_of(
    st.builds("<{0}>{1}</{0}>".format, st.sampled_from(XML_NAMES), XML_TEXT),
    st.builds('<datafield tag="{}"><subfield code="{}">{}</subfield></datafield>'.format,
              st.sampled_from(["245", "100", "700", "020", "035", "050"]),
              st.sampled_from("ab"), XML_TEXT),
    st.builds('<controlfield tag="{}">{}</controlfield>'.format,
              st.sampled_from(["001", "008"]), XML_TEXT),
)
XML_NODE = st.recursive(
    XML_LEAF,
    lambda children: st.builds(
        lambda name, text, kids: f"<{name}>{text}{''.join(kids)}</{name}>",
        st.sampled_from(XML_NAMES), XML_TEXT, st.lists(children, max_size=4),
    ),
    max_leaves=24,
)
XML_NAMESPACES = ('xmlns:m="http://www.loc.gov/MARC21/slim" '
                  'xmlns:dc="http://purl.org/dc/elements/1.1/"')


@st.composite
def xml_documents(draw) -> str:
    """A document whose root is a collection or itself a record, holding
    nodes in which records may nest, and perhaps a title child of the
    root before, between or after them."""
    root = draw(st.sampled_from(["collection", "record", "m:record", "item"]))
    children = draw(st.lists(XML_NODE, max_size=6))
    title_at = draw(st.none() | st.integers(0, len(children)))
    if title_at is not None:
        children.insert(title_at, f"<dc:title>{draw(XML_TEXT)}</dc:title>")
    default = draw(st.sampled_from(["", ' xmlns="http://www.loc.gov/MARC21/slim"']))
    return f"<{root} {XML_NAMESPACES}{default}>{''.join(children)}</{root}>"


class _Unseekable(io.BytesIO):
    def seekable(self) -> bool:
        return False


class _Chunked:
    """A reader over `stream` that gives at most `chunk` bytes or
    characters a read, however many the parser asks for."""

    def __init__(self, stream, chunk: int) -> None:
        self._stream, self._chunk = stream, chunk

    def read(self, size: int = -1):
        return self._stream.read(self._chunk if size < 0 else min(size, self._chunk))


STREAM_PARSERS = [
    (parse_marc_xml, oracles.marc_record_nodes, ingest._read_marc),
    (parse_dublin_core, oracles.dc_record_nodes, ingest._read_dc),
]


def assert_streams_like_the_whole_tree(document, chunk):
    """Each parser, given `document` (str or bytes), its bytes, and its
    bytes as an open file that can and cannot seek, each read `chunk`
    at a time, returns what the whole-tree oracle returns for the same
    text or bytes, or raises ParseError with the message that parse
    raised."""
    blob = document.encode("utf-8", "surrogatepass") if isinstance(document, str) else document
    stream = ingest._stream
    for parser, select, read in STREAM_PARSERS:
        forms = [(document, document), (blob, blob), (io.BytesIO(blob), blob),
                 (_Unseekable(blob), blob)]
        for form, whole in forms:
            with mock.patch.object(ingest, "_stream", lambda doc: _Chunked(stream(doc), chunk)):
                try:
                    records, report = parser(form)
                except ParseError as exc:
                    got = str(exc)
                else:
                    assert report.accepted == len(records)
                    got = (records, report.rejections)
            assert got == oracles.parse_whole_tree(whole, select, read)


class TestStreamingParse:
    """Both parsers read a document in chunks, yet select, number, read and
    reject records as a parse of the whole tree does (tests/oracles.py)."""

    @settings(max_examples=150, deadline=None)
    @given(document=xml_documents(), chunk=st.integers(1, 48))
    def test_equals_the_whole_tree_parse(self, document, chunk):
        assert_streams_like_the_whole_tree(document, chunk)

    @settings(max_examples=150, deadline=None)
    @given(document=xml_documents(), cut=st.floats(0, 1), chunk=st.integers(1, 48))
    def test_a_document_cut_short_fails_as_the_whole_tree_parse(self, document, cut, chunk):
        blob = document.encode("utf-8")
        assert_streams_like_the_whole_tree(blob[: int(cut * len(blob))], chunk)

    @pytest.mark.parametrize(
        "document",
        [
            "<record><title>T</title>\ud800</record>",
            "<collection><item><</item>" + "x" * 40 + "\udfff</collection>",
            "<collection><record><datafield tag='245'><subfield code='a'>T</subfield>"
            "</datafield><record><controlfield tag='001'>(OCoLC)7</controlfield></record>"
            "</record><record/></collection>",
            "<collection><item><title>Kept</title></item><title>Root</title><item/></collection>",
            "",
            "<?xml version='1.0' encoding='latin-1'?><record><title>\u00e9</title></record>",
            "<?xml version='1.0' encoding='utf-32'?><record><title>T</title></record>",
            "<?xml version='1.0' encoding='x-no-such-codec'?><record><title>T</title></record>",
        ],
        ids=["lone-surrogate", "surrogate-after-a-fault", "nested-records", "root-title",
             "empty", "declared-encoding", "multi-byte-encoding", "unknown-encoding"],
    )
    @pytest.mark.parametrize("chunk", [1, 5, 1 << 16])
    def test_edge_documents(self, document, chunk):
        assert_streams_like_the_whole_tree(document, chunk)

    @staticmethod
    def _transient_bytes(parser, document: bytes) -> int:
        """Peak traced memory of one parse, less what its result holds."""
        tracemalloc.start()
        try:
            result = parser(document)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result[1].accepted == len(result[0])
        return peak - held

    @pytest.mark.parametrize("parser", [parse_marc_xml, parse_dublin_core])
    def test_memory_does_not_grow_with_the_document(self, parser):
        """A whole-tree parse holds several bytes per byte of XML until the
        last record is read; streamed, what a parse holds beyond its result
        is one record and one chunk, whatever the document's length."""
        if parser is parse_marc_xml:
            record = ('<record><controlfield tag="001">(OCoLC){0}</controlfield>'
                      '<datafield tag="100"><subfield code="a">Author {1},</subfield></datafield>'
                      '<datafield tag="245"><subfield code="a">Title {0} /</subfield>'
                      '<subfield code="c">by someone</subfield></datafield></record>')
        else:
            record = ("<item><title>Title {0}</title><creator>Author {1}</creator>"
                      "<identifier>(OCoLC){0}</identifier><date>1999</date></item>")

        def document(n: int) -> bytes:
            body = "".join(record.format(i, i % 97) for i in range(1, n + 1))
            return f"<collection>{body}</collection>".encode()

        small, large = document(2000), document(8000)
        growth = self._transient_bytes(parser, large) - self._transient_bytes(parser, small)
        assert growth < 1 << 20


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = random.Random(42)
        snap = datasets.random_snapshot(rng, max_records=15)
        path = tmp_path / "data.jsonl"
        save_dataset(snap, path)
        assert load_dataset(path) == snap

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_round_trip_property(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        snap = datasets.random_snapshot(rng)
        path = tmp_path_factory.mktemp("ds") / "data.jsonl"
        save_dataset(snap, path)
        loaded = load_dataset(path)
        assert loaded == snap
        assert [r.record_id for r in loaded.records] == [
            r.record_id for r in snap.records
        ]

    def test_save_is_deterministic(self, tmp_path):
        rng = random.Random(43)
        snap = datasets.random_snapshot(rng, max_records=10)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(snap, a)
        save_dataset(snap, b)
        assert a.read_bytes() == b.read_bytes()

    def test_absent_optionals_are_omitted(self, tmp_path):
        snap = CatalogSnapshot([BookRecord("r1", "T")], [], [])
        path = tmp_path / "data.jsonl"
        save_dataset(snap, path)
        (line,) = path.read_text().splitlines()
        obj = json.loads(line)
        assert obj == {"t": "R", "id": "r1", "title": "T", "format": "unknown"}
        assert "null" not in line

    def test_unicode_survives_unescaped(self, tmp_path):
        snap = CatalogSnapshot([BookRecord("r1", "Öl und Wasser")], [], [])
        path = tmp_path / "data.jsonl"
        save_dataset(snap, path)
        assert "Öl und Wasser" in path.read_text(encoding="utf-8")
        assert load_dataset(path).records[0].title == "Öl und Wasser"

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('{"t":"R","id":"r1","title":"\\ud800"}',
             "BookRecord title holds a lone surrogate: '\\ud800'"),
            ('{"t":"R","id":"r1","title":"\\udc80\\ud800"}',
             "BookRecord title holds a lone surrogate: '\\udc80\\ud800'"),
            ('{"t":"R","id":"r1","title":"T","contributors":[["A\\udfff","author"]]}',
             "Contributor name holds a lone surrogate: 'A\\udfff'"),
            ('{"t":"L","id":"l1","name":"Lib","country":"US","memberships":["\\ud83d"]}',
             "LibraryOrg memberships holds a lone surrogate: '\\ud83d'"),
        ],
        ids=["title", "low-then-high", "contributor", "membership"],
    )
    def test_a_lone_surrogate_escape_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "data.jsonl"
        path.write_text(RECORD_LINE + "\n" + line + "\n")
        with pytest.raises(DatasetError) as caught:
            load_dataset(path)
        assert str(caught.value) == "line 2: " + message

    def test_a_surrogate_pair_escape_loads_as_one_character(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"t":"R","id":"r1","title":"\\ud83d\\ude00"}\n')
        snapshot = load_dataset(path)
        assert snapshot.records[0].title == "\U0001f600"
        save_dataset(snapshot, path)
        assert path.read_text(encoding="utf-8") == (
            '{"t":"R","id":"r1","title":"\U0001f600","format":"unknown"}\n'
        )
        assert load_dataset(path) == snapshot

    def test_text_with_a_lone_surrogate_is_never_written(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            ingest._write_atomic(str(path), '{"a":"\ud800"}')
        assert list(tmp_path.iterdir()) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"t":"R","id":"r1","title":"T","format":"print"}\n\n\n')
        assert load_dataset(path).n_records == 1

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"t":"R","id":"r1","title":"T","format":"print"}\n{oops\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_unknown_tag_names_the_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"t":"Z","id":"x"}\n')
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('{"t":"R","id":"r1","title":"T","format":"vinyl"}',
             "record r1: unknown format 'vinyl'"),
            ('{"t":"R","id":"r1","title":"T","citations":NaN}',
             "BookRecord citations must be int, not nan"),
            ('{"t":"R","id":"r1","title":"T","citations":1.5}',
             "BookRecord citations must be int, not 1.5"),
            ('{"t":"R","id":"r1","title":"T","oclc":true}',
             "BookRecord oclc must be int, not True"),
            ('{"t":"R","id":"r1","title":"T","year":"soon"}',
             "BookRecord year must be int, not 'soon'"),
            ('{"t":"R","id":"r1","title":"T","lc":5}',
             "BookRecord lc_class must be str, not 5"),
            ('{"t":"R","id":"r1","title":7}',
             "BookRecord title must be str, not 7"),
            ('{"t":"R","id":5,"title":"T"}',
             "BookRecord record_id must be str, not 5"),
            ('{"t":"R","id":"r1","title":"T","contributors":[[5,"author"]]}',
             "Contributor name must be str, not 5"),
            ('{"t":"L","id":"l1","name":"Lib","country":5}',
             "LibraryOrg country must be str, not 5"),
            ('{"t":"L","id":"l1","name":null,"country":"US"}',
             "LibraryOrg name must be str, not None"),
            ('{"t":"H","record":["r1"],"library":"l1"}',
             "Holding record_id must be str, not ['r1']"),
            ('{"t":"H","record":"r1","library":7}',
             "Holding library_id must be str, not 7"),
            ('{"t":"H","record":"r1","library":"l1","channel":null}',
             "Holding channel must be str, not None"),
            ('{"t":"L","id":"l1","name":"Lib","country":"US","memberships":[1,"a"]}',
             "LibraryOrg memberships must be a collection of str, not [1, 'a']"),
            ('{"t":"L","id":"l1","name":"Lib","country":"US","memberships":"ARL"}',
             "LibraryOrg memberships must be a collection of str, not 'ARL'"),
            ('{"t":"R","id":"r1","title":"T","isbns":{"9780306406157":0}}',
             "isbns must be an array, not dict"),
            ('{"t":"R","id":"r1","title":"T","contributors":[{"Smith":1,"author":2}]}',
             "each contributor must be a [name, role] array"),
            ('{"t":"R","id":"r1","title":"T","contributors":{"ab":1}}',
             "contributors must be an array, not dict"),
            ('{"t":"R","id":"r1","title":"T","contributors":["ab"]}',
             "each contributor must be a [name, role] array"),
            ('{"t":"R","id":5,"title":7,"year":"x"}',
             "BookRecord record_id must be str, not 5"),
            ('{"t":"R","id":"r1","title":"T","year":"x","lc":5}',
             "BookRecord lc_class must be str, not 5"),
            ('{"t":"R","id":"r1","title":"T","contributors":[["A","boss"]]}',
             "unknown contributor role: 'boss'"),
            ('{"t":"H","record":"","library":"l1"}',
             "holding needs both record_id and library_id"),
            ('{"t":"H","record":"r1","library":"l1","channel":"gift"}',
             "unknown acquisition channel: 'gift'"),
            ('{"t":"H","record":"r1","library":"l1","channel":["x"]}',
             "Holding channel must be str, not ['x']"),
        ],
        ids=[
            "format-vinyl", "citations-nan", "citations-float", "oclc-bool", "year-text",
            "lc-int", "title-int", "id-int", "contributor-int", "country-int",
            "name-null", "holding-record-list", "holding-library-int", "holding-channel-null",
            "memberships-int-item", "memberships-str", "isbns-object",
            "contributor-object", "contributors-object", "contributor-str",
            "first-of-three-faults", "str-field-before-int-field", "contributor-role",
            "holding-record-empty", "holding-channel-unknown", "holding-channel-list",
        ],
    )
    def test_constructor_errors_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DatasetError) as caught:
            load_dataset(path)
        assert str(caught.value) == "line 1: " + message

    @pytest.mark.parametrize(
        "value",
        ["1" * 5000, "[" * 100_000 + "]" * 100_000],
        ids=["int-past-digit-limit", "nested-too-deep"],
    )
    def test_undecodable_json_names_the_line(self, tmp_path, value):
        path = tmp_path / "data.jsonl"
        path.write_text(RECORD_LINE + "\n" + '{"t":"R","id":"r1","title":"T","year":' + value + "}\n")
        with pytest.raises(DatasetError, match="^line 2: not decodable JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("before", [1, 5000], ids=["first-read", "later-read"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, before):
        path = tmp_path / "data.jsonl"
        lines = [RECORD_LINE.replace('"r2"', f'"a{n}"').encode() for n in range(before)]
        path.write_bytes(b"\n".join(lines) + b'\n\n{"t":"R","id":"x","title":"\xff"}\n')
        with pytest.raises(DatasetError, match=f"^line {before + 2}: byte 0xff is not UTF-8$"):
            load_dataset(path)

    def test_bad_line_before_a_non_utf8_byte_is_reported_first(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(RECORD_LINE.encode() + b"\n{oops\n" + b"\xff\n")
        with pytest.raises(DatasetError, match="^line 2: not valid JSON"):
            load_dataset(path)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        plain.write_bytes(RECORD_LINE.encode() + b"\n")
        marked.write_bytes(b"\xef\xbb\xbf" + RECORD_LINE.encode() + b"\n")
        assert load_dataset(marked) == load_dataset(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + RECORD_LINE.encode() + b"\n{oops\n")
        with pytest.raises(DatasetError, match="^line 2: not valid JSON"):
            load_dataset(marked)

    def test_records_naming_one_author_share_one_contributor(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(
            json.dumps({"t": "R", "id": f"r{n}", "title": f"T{n}",
                        "contributors": [["Doe, Jane", "author"]]}) + "\n"
            for n in range(50)
        ))
        built = []

        def counting_contributor(name, role="author"):
            built.append((name, role))
            return Contributor(name, role)

        monkeypatch.setattr(ingest, "Contributor", counting_contributor)
        first = load_dataset(path)
        assert built == [("Doe, Jane", "author")]
        second = load_dataset(path)
        assert len(built) == 2
        # both snapshots are alive, so equal ids mean one shared object
        firsts = {id(record.contributors[0]) for record in first.records}
        seconds = {id(record.contributors[0]) for record in second.records}
        assert len(firsts) == len(seconds) == 1 and firsts.isdisjoint(seconds)
        assert first == second

    def test_referential_integrity_checked_on_load(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"t":"H","record":"r1","library":"l1","channel":"pda"}\n')
        with pytest.raises(IntegrityError):
            load_dataset(path)

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "data.jsonl"
        first = CatalogSnapshot([BookRecord("r1", "Old")], [], [])
        second = CatalogSnapshot([BookRecord("r2", "New")], [], [])
        save_dataset(first, path)
        save_dataset(second, path)
        assert load_dataset(path) == second
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.snap"]

    def test_failed_rename_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        old = CatalogSnapshot([BookRecord("r1", "Old")], [], [])
        save_dataset(old, path)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_dataset(CatalogSnapshot([BookRecord("r2", "New")], [], []), path)
        monkeypatch.undo()
        assert load_dataset(path) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.snap"]

    def test_save_syncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "data.jsonl"
        steps = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            steps.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            steps.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_dataset(CatalogSnapshot([BookRecord("r1", "T")], [], []), path)
        written, directory = path.stat().st_ino, tmp_path.stat().st_ino
        assert steps == [("fsync", written), ("replace", written), ("fsync", directory)]

    def test_failed_sync_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        old = CatalogSnapshot([BookRecord("r1", "Old")], [], [])
        save_dataset(old, path)

        def refuse(fd):
            raise OSError(errno.EIO, "sync refused")

        monkeypatch.setattr(os, "fsync", refuse)
        with pytest.raises(OSError, match="sync refused"):
            save_dataset(CatalogSnapshot([BookRecord("r2", "New")], [], []), path)
        monkeypatch.undo()
        assert load_dataset(path) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.snap"]

    def test_save_passes_over_a_temp_name_already_taken(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        monkeypatch.setattr(ingest, "_temp_ids", itertools.count(7))
        taken = tmp_path / f".data.jsonl.{os.getpid()}-7"
        taken.write_text("another writer's")
        snapshot = CatalogSnapshot([BookRecord("r1", "T")], [], [])
        save_dataset(snapshot, path)
        assert load_dataset(path) == snapshot
        assert taken.read_text() == "another writer's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            taken.name, "data.jsonl", "data.jsonl.snap"
        ]

    def test_save_gives_the_mode_a_plain_open_gives(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r1", "T")], [], []), path)
        plain = tmp_path / "plain"
        plain.write_text("")
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


class TestMerge:
    def test_union_with_base_precedence(self):
        base = CatalogSnapshot(
            [BookRecord("r1", "Base title")],
            [LibraryOrg("l1", "Base lib", "US")],
            [Holding("r1", "l1", "pda")],
        )
        delta = CatalogSnapshot(
            [BookRecord("r1", "Delta title"), BookRecord("r2", "Only delta")],
            [LibraryOrg("l1", "Delta lib", "GB"), LibraryOrg("l2", "L2", "DE")],
            [Holding("r1", "l1", "donation"), Holding("r2", "l2")],
        )
        merged = merge_snapshots(base, delta)
        assert merged.get_record("r1").title == "Base title"
        assert merged.get_record("r2").title == "Only delta"
        assert merged.get_library("l1").country == "US"
        assert merged.n_holdings == 2
        assert next(merged.holdings()).channel == "pda"

    def test_merge_with_empty_is_identity(self):
        rng = random.Random(44)
        snap = datasets.random_snapshot(rng)
        empty = CatalogSnapshot([], [], [])
        assert merge_snapshots(snap, empty) == snap
        assert merge_snapshots(empty, snap) == snap


RECORD_LINE = '{"t":"R","id":"r2","title":"T","format":"print"}'


def expected_load_error(text, canonical_path):
    """The DatasetError message load_dataset owes `text`, or None if it loads.

    Built on the json.loads oracle: the loader checks each decoded line's
    shape before it decodes the next, so a non-object line stops it first.
    When every line decodes, `text` owes what the same values owe written
    one `json.dumps` per line under the same numbers (to `canonical_path`),
    so a value the model rejects fails alike in either encoding.
    """
    decoded, bad = oracles.decode_json_lines(text)
    for number, value in decoded:
        if not (isinstance(value, dict) and "t" in value):
            return f"line {number}: expected an object with a 't' tag"
    if bad is not None:
        return f"line {bad[0]}: not valid JSON ({bad[1]})"
    lines = [""] * max(number for number, _ in decoded)
    for number, value in decoded:
        lines[number - 1] = json.dumps(value)
    canonical_path.write_text("".join(line + "\n" for line in lines))
    try:
        load_dataset(canonical_path)
    except DatasetError as exc:
        return str(exc)
    return None


def assert_loader_matches_oracle(path, odd_line):
    text = (
        '{"t":"R","id":"r1","title":"First","format":"print"}\n'
        f"{odd_line}\n"
        '{"t":"R","id":"r3","title":"Third","format":"print"}\n'
    )
    path.write_bytes(text.encode("utf-8"))
    expected = expected_load_error(text, path.with_name("canonical.jsonl"))
    try:
        snapshot = load_dataset(path)
    except DatasetError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    titles = {
        value["id"]: value["title"]
        for _, value in oracles.decode_json_lines(text)[0]
    }
    assert {r.record_id: r.title for r in snapshot.records} == titles


ODD_FRAGMENTS = [
    "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\ufeff",
    "\r", "\x00", "x", "{", "{}", "[1]", "]", "}", '"', "\\", ",", '"t":', "NaN",
    "-Infinity", "1e999", "null",
]


class TestDecoderEquivalence:
    """load_dataset accepts, rejects and names lines as per-line json.loads does."""

    @pytest.mark.parametrize(
        "odd_line",
        [
            RECORD_LINE + RECORD_LINE,  # two objects on one line
            RECORD_LINE + " trailing",
            "\ufeff" + RECORD_LINE,  # a leading byte-order mark
            "[1]",
            '"a bare string"',
            "NaN",
            '{"t":"R","id":"r2","title":"\\ud800","format":"print"}',  # lone surrogate
            "\x0b" + RECORD_LINE + "\x0b",  # whitespace JSON does not allow
            "\x1c\x85" + RECORD_LINE + "\u2028\xa0",
            "{oops",
            RECORD_LINE,
        ],
    )
    def test_odd_line(self, tmp_path, odd_line):
        assert_loader_matches_oracle(tmp_path / "data.jsonl", odd_line)

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(st.sampled_from(ODD_FRAGMENTS), max_size=3).map("".join),
        title=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
        ascii_only=st.booleans(),
        cut=st.integers(0, 80),
        suffix=st.lists(st.sampled_from(ODD_FRAGMENTS), max_size=3).map("".join),
    )
    def test_odd_line_property(
        self, tmp_path_factory, prefix, title, ascii_only, cut, suffix
    ):
        """A record line, perhaps truncated, between odd fragments."""
        record = json.dumps(
            {"t": "R", "id": "r2", "title": title + "!", "format": "print"},
            ensure_ascii=ascii_only,
        )
        if cut:
            record = record[: len(record) - cut]
        path = tmp_path_factory.mktemp("ds") / "data.jsonl"
        assert_loader_matches_oracle(path, prefix + record + suffix)


# One valid line per tag; the holding names the record and the library.
VALID_LINES = {
    "R": {
        "t": "R", "id": "r1", "oclc": 7, "isbns": ["9780306406157"], "title": "T",
        "contributors": [["Ann Author", "author"]], "year": 1999, "lang": "en",
        "lc": "QA76", "format": "print", "citations": 3,
    },
    "L": {
        "t": "L", "id": "l1", "name": "Lib", "country": "US", "kind": "academic",
        "memberships": ["ARL"],
    },
    "H": {"t": "H", "record": "r1", "library": "l1", "channel": "pda"},
}
# A field is (tag, key, None), or (tag, key, index) for one half of the
# contributor pair.
LINE_FIELDS = [(tag, key, None) for tag, line in VALID_LINES.items() for key in line] + [
    ("R", "contributors", 0),
    ("R", "contributors", 1),
]


class TestIllTypedFields:
    @pytest.mark.parametrize(
        "field", LINE_FIELDS, ids=lambda f: "-".join(str(p) for p in f if p is not None)
    )
    @settings(max_examples=40, deadline=None)
    @given(value=datasets.JSON_VALUES)
    @datasets.edge_examples
    def test_one_replaced_field_loads_or_names_its_line(self, tmp_path_factory, field, value):
        """Either the line is rejected by number, or what loads saves and
        reloads equal; a renamed reference may only break integrity."""
        tag, key, index = field
        lines = copy.deepcopy(VALID_LINES)
        if index is None:
            lines[tag][key] = value
        else:
            lines[tag][key][0][index] = value
        path = tmp_path_factory.mktemp("ds") / "data.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines.values()))
        number = list(lines).index(tag) + 1
        try:
            loaded = load_dataset(path)
        except DatasetError as exc:
            assert str(exc).startswith(f"line {number}: ")
            return
        except IntegrityError:
            assert isinstance(value, str) and key in ("id", "record", "library")
            return
        save_dataset(loaded, path)
        assert load_dataset(path) == loaded


def counted_load(path):
    """(snapshot, lines decoded, snapshots built through __init__) of one
    load_dataset call: a hit decodes and builds none."""
    with mock.patch.object(ingest, "_decode_line", wraps=ingest._decode_line) as decode, \
            mock.patch.object(CatalogSnapshot, "__init__", autospec=True,
                              side_effect=CatalogSnapshot.__init__) as build:
        snapshot = load_dataset(path)
    return snapshot, decode.call_count, build.call_count


def assert_hit_equals_json_load(path):
    """The first load of `path` decodes it and writes its sidecar; the
    second rebuilds an equal snapshot from the sidecar alone."""
    sidecar = path.with_name(path.name + ".snap")
    sidecar.unlink(missing_ok=True)
    miss, _, built = counted_load(path)
    assert built == 1 and sidecar.is_file()
    hit, decoded, built = counted_load(path)
    assert (decoded, built) == (0, 0)
    assert hit == miss and hit.memo == {}
    assert list(hit.holdings()) == list(miss.holdings())
    assert all(hit.get_record(r.record_id) is r for r in hit.records)
    assert all(hit.get_library(lib.library_id) is lib for lib in hit.libraries)
    return miss


SNAPSHOT_BUILDERS = [
    datasets.five_author_ranking,
    datasets.single_author_editions,
    datasets.diffusion_study,
    datasets.membership_composition,
    datasets.holdings_coverage,
    lambda: datasets.classed_snapshot(random.Random(5), 6, large_classes=1)[0],
    lambda: datasets.random_snapshot(random.Random(11), max_records=60, max_libraries=15),
    lambda: CatalogSnapshot((), (), ()),
]


class TestSnapshotSidecar:
    """`<dataset>.snap`: a hit rebuilds the snapshot the JSON path gives,
    and a sidecar that is missing, stale, broken or foreign is a silent
    miss that takes the JSON path."""

    @pytest.mark.parametrize("build", SNAPSHOT_BUILDERS)
    def test_a_hit_equals_the_json_load(self, tmp_path, build):
        path = tmp_path / "data.jsonl"
        save_dataset(build(), path)
        assert assert_hit_equals_json_load(path) == build()

    def test_a_hit_rebuilds_entities_that_keep_their_contract(self, tmp_path):
        """Entities rebuilt from the sidecar without their constructor are
        equal, hash equal and print alike to the JSON load's, and refuse
        assignment as those do."""
        path = tmp_path / "data.jsonl"
        save_dataset(datasets.five_author_ranking(), path)
        miss = assert_hit_equals_json_load(path)
        hit = load_dataset(path)
        pairs = [
            *zip(hit.records, miss.records),
            *zip(hit.libraries, miss.libraries),
            *((c, d) for r, s in zip(hit.records, miss.records)
              for c, d in zip(r.contributors + r.isbns, s.contributors + s.isbns)),
        ]
        assert len(pairs) > len(hit.records) + len(hit.libraries)
        for rebuilt, decoded in pairs:
            assert type(rebuilt) is type(decoded)
            assert rebuilt == decoded and hash(rebuilt) == hash(decoded)
            assert repr(rebuilt) == repr(decoded)
            with pytest.raises(AttributeError):
                setattr(rebuilt, type(rebuilt)._fields[0], None)
        record = hit.records[0]
        with pytest.raises(ValueError, match="title must be non-empty"):
            record._replace(title="")

    @settings(max_examples=60, deadline=None)
    @given(snapshot=datasets.text_catalogs())
    def test_a_hit_equals_the_json_load_on_any_text(self, tmp_path_factory, snapshot):
        path = tmp_path_factory.mktemp("ds") / "data.jsonl"
        save_dataset(snapshot, path)
        assert assert_hit_equals_json_load(path) == snapshot

    @staticmethod
    def broken(path, how):
        """Break `path`'s sidecar, or the layout key it was written under."""
        sidecar = path.with_name(path.name + ".snap")
        data = bytearray(sidecar.read_bytes())
        header = len(ingest._SNAP_MAGIC) + 3 * ingest._DIGEST_SIZE
        if how == "payload-byte":
            data[-1] ^= 0x01
        elif how.startswith("truncated"):
            data = data[: {"truncated-empty": 0, "truncated-magic": 5,
                           "truncated-header": header - 1, "truncated-payload": len(data) - 1}[how]]
        elif how == "foreign":
            data = bytearray(b"libcat snapshot sidecar?" + data[len(ingest._SNAP_MAGIC):])
        else:  # a payload that passes its digest but is no snapshot
            payload = {"unmarshal-error": b"\xff\x00", "not-columns": marshal.dumps((1, 2))}[how]
            data = data[: header - ingest._DIGEST_SIZE] + hashlib.sha256(payload).digest()
            data += payload
        sidecar.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "how",
        ["payload-byte", "truncated-empty", "truncated-magic", "truncated-header",
         "truncated-payload", "foreign", "unmarshal-error", "not-columns"],
    )
    def test_a_broken_sidecar_is_a_miss(self, tmp_path, how):
        path = tmp_path / "data.jsonl"
        snapshot = datasets.diffusion_study()
        save_dataset(snapshot, path)
        load_dataset(path)
        self.broken(path, how)
        loaded, decoded, _ = counted_load(path)
        assert decoded and loaded == snapshot

    def test_a_flipped_dataset_byte_is_a_miss(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r1", "Alpha")], (), ()), path)
        load_dataset(path)
        data = bytearray(path.read_bytes())
        data[data.index(b"Alpha")] ^= 0x02  # "Alpha" becomes "Clpha"
        path.write_bytes(bytes(data))
        loaded, decoded, _ = counted_load(path)
        assert decoded and [r.title for r in loaded.records] == ["Clpha"]
        assert_hit_equals_json_load(path)

    def test_a_changed_layout_key_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        snapshot = datasets.diffusion_study()
        save_dataset(snapshot, path)
        load_dataset(path)
        monkeypatch.setattr(ingest, "_layout_key", lambda: b"\x00" * ingest._DIGEST_SIZE)
        loaded, decoded, _ = counted_load(path)
        assert decoded and loaded == snapshot
        # the miss rewrote the sidecar under the new key
        assert counted_load(path)[1:] == (0, 0)

    def test_the_sidecar_holds_the_digest_of_the_bytes_decoded(self, tmp_path, monkeypatch):
        """A dataset rewritten between the hash and the decode gets a
        sidecar of what was decoded, under those bytes' digest."""
        path = tmp_path / "data.jsonl"
        old, new = (CatalogSnapshot([BookRecord("r1", title)], (), ()) for title in ("Old", "New"))
        save_dataset(new, path)
        new_bytes = path.read_bytes()
        save_dataset(old, path)
        sha256 = ingest._sha256

        def rewrite_after_hashing(raw):
            digest = sha256(raw)
            with open(path, "r+b") as fh:  # the same file, so the decode reads it
                fh.write(new_bytes)
            return digest

        monkeypatch.setattr(ingest, "_sha256", rewrite_after_hashing)
        assert load_dataset(path) == new
        monkeypatch.undo()
        assert counted_load(path) == (new, 0, 0)
        save_dataset(old, path)
        loaded, decoded, _ = counted_load(path)
        assert decoded and loaded == old

    @pytest.mark.parametrize("kind", ["file", "directory", "fifo"])
    def test_a_file_that_is_no_sidecar_is_left_as_it_is(self, tmp_path, kind):
        path = tmp_path / "data.jsonl"
        sidecar = tmp_path / "data.jsonl.snap"
        snapshot = datasets.single_author_editions()
        save_dataset(snapshot, path)
        if kind == "file":
            sidecar.write_bytes(b"the user's own notes\n")
        elif kind == "directory":
            sidecar.mkdir()
        else:
            os.mkfifo(sidecar)
        for _ in range(2):
            loaded, decoded, _ = counted_load(path)
            assert decoded and loaded == snapshot
        if kind == "file":
            assert sidecar.read_bytes() == b"the user's own notes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.jsonl.snap"]

    def test_a_dataset_that_is_no_regular_file_is_decoded(self, tmp_path):
        snapshot = datasets.single_author_editions()
        saved = tmp_path / "saved.jsonl"
        save_dataset(snapshot, saved)
        fifo = tmp_path / "data.jsonl"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(saved.read_bytes(),))
        writer.start()
        try:
            loaded, decoded, _ = counted_load(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert decoded and loaded == snapshot
        assert not (tmp_path / "data.jsonl.snap").exists()

    def test_a_failed_sidecar_write_is_silent(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        snapshot = datasets.diffusion_study()
        save_dataset(snapshot, path)

        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(ingest, "_write_atomic", refuse)
        assert load_dataset(path) == snapshot
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_a_bad_line_reads_as_before_after_a_valid_load(self, tmp_path):
        path, fresh = tmp_path / "data.jsonl", tmp_path / "fresh.jsonl"
        save_dataset(datasets.single_author_editions(), path)
        load_dataset(path)
        bad = path.read_text(encoding="utf-8") + '{"t":"H","record":"r1"}\n'
        for target in (path, fresh):
            target.write_text(bad, encoding="utf-8")
        messages = []
        for target in (path, fresh):
            with pytest.raises(DatasetError) as failure:
                load_dataset(target)
            messages.append(str(failure.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"line {bad.count(chr(10))}: ")
        assert not fresh.with_name("fresh.jsonl.snap").exists()
