"""In-process HTTP server replaying a snapshot for hermetic client tests.

The server answers the same four lookup paths as the real locations API,
resolving identifiers against a fixed CatalogSnapshot. Well-formed but
unknown identifiers get 404, malformed ones 400, and every handled
request, errors included, increments a counter so quota tests can assert
exactly how many requests crossed the wire. `?format=xml` switches the
body to the XML variant the client must also understand.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from xml.sax.saxutils import escape

from .errors import IsbnError
from .identifiers import normalize_isbn
from .model import BookRecord, CatalogSnapshot

_ISSN_SHAPE = re.compile(r"^\d{4}-?\d{3}[\dXx]$")


def _record_fragment(record: BookRecord) -> dict:
    fragment: dict = {"title": record.title}
    if record.oclc is not None:
        fragment["oclc"] = record.oclc
    if record.isbns:
        fragment["isbns"] = [i.digits for i in record.isbns]
    return fragment


def _xml_body(fragment: dict | None, locations: list[dict]) -> bytes:
    parts = ["<locationResponse>"]
    if fragment is not None:
        parts.append("<record>")
        parts.append(f"<title>{escape(fragment['title'])}</title>")
        if "oclc" in fragment:
            parts.append(f"<oclc>{fragment['oclc']}</oclc>")
        for digits in fragment.get("isbns", ()):
            parts.append(f"<isbn>{digits}</isbn>")
        parts.append("</record>")
    parts.append("<locations>")
    for loc in locations:
        parts.append(
            "<location>"
            f"<name>{escape(loc['name'])}</name>"
            f"<country>{escape(loc['country'])}</country>"
            f"<institutionId>{escape(loc['institution_id'])}</institutionId>"
            "</location>"
        )
    parts.append("</locations></locationResponse>")
    return "".join(parts).encode("utf-8")


class FixtureServer:
    """Running replay server; use as a context manager or call close()."""

    def __init__(self, snapshot: CatalogSnapshot, host: str = "127.0.0.1", port: int = 0):
        self._snapshot = snapshot
        self._by_oclc: dict[int, list[str]] = {}
        self._by_isbn: dict[str, list[str]] = {}
        for record in snapshot.records:
            if record.oclc is not None:
                self._by_oclc.setdefault(record.oclc, []).append(record.record_id)
            for isbn in record.isbns:
                self._by_isbn.setdefault(isbn.digits, []).append(record.record_id)
        self._count_lock = threading.Lock()
        self._request_count = 0
        self._server = ThreadingHTTPServer((host, port), self._handler_class())
        # a short poll keeps close() from waiting out the default half second
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        with self._count_lock:
            return self._request_count

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "FixtureServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- resolution ---------------------------------------------------------

    def _resolve(self, segments: list[str]) -> "tuple[int, dict | None, list[dict]]":
        """Map path segments under /content/libraries to (status, record, locations)."""
        if len(segments) == 1:
            value = segments[0]
            if not value.isdigit() or int(value) <= 0:
                return 400, None, []
            return self._match(self._by_oclc.get(int(value), []))
        if len(segments) == 2:
            scheme, value = segments
            if not value:
                return 400, None, []
            if scheme == "isbn":
                try:
                    digits = normalize_isbn(value).digits
                except IsbnError:
                    return 400, None, []
                return self._match(self._by_isbn.get(digits, []))
            if scheme == "issn":
                if not _ISSN_SHAPE.match(value):
                    return 400, None, []
                return self._match([])
            if scheme == "sn":
                record_ids: list[str] = []
                try:
                    record_ids = self._by_isbn.get(normalize_isbn(value).digits, [])
                except IsbnError:
                    if value.isdigit() and int(value) > 0:
                        record_ids = self._by_oclc.get(int(value), [])
                return self._match(record_ids)
        return 404, None, []

    def _match(self, record_ids: list[str]) -> "tuple[int, dict | None, list[dict]]":
        if not record_ids:
            return 404, None, []
        ordered = sorted(record_ids)
        fragment = _record_fragment(self._snapshot.get_record(ordered[0]))
        holder_ids: set[str] = set()
        for rid in ordered:
            holder_ids.update(self._snapshot.holders_of(rid))
        locations = []
        for library_id in sorted(holder_ids):
            library = self._snapshot.get_library(library_id)
            locations.append(
                {
                    "name": library.name,
                    "country": library.country,
                    "institution_id": library.library_id,
                }
            )
        return 200, fragment, locations

    # -- plumbing -------------------------------------------------------------

    def _handler_class(self):
        fixture = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                pass

            def do_GET(self) -> None:
                with fixture._count_lock:
                    fixture._request_count += 1
                split = urllib.parse.urlsplit(self.path)
                query = urllib.parse.parse_qs(split.query)
                want_xml = query.get("format", [""])[0] == "xml"
                segments = [
                    urllib.parse.unquote(p) for p in split.path.strip("/").split("/")
                ]
                if len(segments) > 2 and segments[0] == "content" and segments[1] == "libraries":
                    status, fragment, locations = fixture._resolve(segments[2:])
                else:
                    status, fragment, locations = 404, None, []

                if status != 200:
                    reason = {400: "malformed identifier", 404: "not found"}[status]
                    body = json.dumps({"error": reason}).encode("utf-8")
                    self._send(status, "application/json", body)
                    return
                if want_xml:
                    self._send(200, "application/xml", _xml_body(fragment, locations))
                    return
                body = json.dumps(
                    {"record": fragment, "locations": locations},
                    ensure_ascii=False,
                ).encode("utf-8")
                self._send(200, "application/json", body)

            def _send(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return Handler


def serve_fixture(
    snapshot: CatalogSnapshot, host: str = "127.0.0.1", port: int = 0
) -> FixtureServer:
    """Start a replay server bound to host:port (0 picks a free port)."""
    return FixtureServer(snapshot, host, port)
