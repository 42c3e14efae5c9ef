"""In-process HTTP server replaying a snapshot for hermetic client tests.

The server answers the two lookup paths the client uses,

    /content/libraries/{OCLC_Number}
    /content/libraries/isbn/{ISBN}

resolving identifiers against a fixed CatalogSnapshot. Well-formed but
unknown identifiers get 404, malformed ones 400 and any other path 404.
Every handled request, errors included, increments a counter so quota
tests can assert exactly how many requests crossed the wire. A client
that hangs up before its answer is written is dropped quietly.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import IsbnError
from .identifiers import normalize_isbn
from .model import BookRecord, CatalogSnapshot


def _record_fragment(record: BookRecord) -> dict:
    fragment: dict = {"title": record.title}
    if record.oclc is not None:
        fragment["oclc"] = record.oclc
    if record.isbns:
        fragment["isbns"] = [i.digits for i in record.isbns]
    return fragment


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        """Drop a connection the client closed or reset; report the rest."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class FixtureServer:
    """Running replay server; use as a context manager or call close()."""

    def __init__(self, snapshot: CatalogSnapshot):
        self._snapshot = snapshot
        self._by_oclc: dict[int, list[str]] = {}
        self._by_isbn: dict[str, list[str]] = {}
        # record id -> indexes into snapshot.libraries, which sort as the ids do
        self._holders: dict[str, list[int]] = {}
        for record in snapshot.records:
            if record.oclc is not None:
                self._by_oclc.setdefault(record.oclc, []).append(record.record_id)
            for isbn in record.isbns:
                self._by_isbn.setdefault(isbn.digits, []).append(record.record_id)
        for ri, li in zip(snapshot.holding_records, snapshot.holding_libraries):
            self._holders.setdefault(snapshot.records[ri].record_id, []).append(li)
        self._count_lock = threading.Lock()
        self._request_count = 0
        self._server = _Server(("127.0.0.1", 0), self._handler_class())
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
            if not (value.isascii() and value.isdigit()) or int(value) <= 0:
                return 400, None, []
            return self._match(self._by_oclc.get(int(value), []))
        if len(segments) == 2 and segments[0] == "isbn":
            try:
                digits = normalize_isbn(segments[1]).digits
            except IsbnError:
                return 400, None, []
            return self._match(self._by_isbn.get(digits, []))
        return 404, None, []

    def _match(self, record_ids: list[str]) -> "tuple[int, dict | None, list[dict]]":
        if not record_ids:
            return 404, None, []
        ordered = sorted(record_ids)
        fragment = _record_fragment(self._snapshot.get_record(ordered[0]))
        holders = set().union(*(self._holders.get(rid, ()) for rid in ordered))
        locations = []
        for index in sorted(holders):
            library = self._snapshot.libraries[index]
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
                path = urllib.parse.urlsplit(self.path).path
                segments = [urllib.parse.unquote(p) for p in path.strip("/").split("/")]
                if len(segments) > 2 and segments[0] == "content" and segments[1] == "libraries":
                    status, fragment, locations = fixture._resolve(segments[2:])
                else:
                    status, fragment, locations = 404, None, []

                if status == 200:
                    payload = {"record": fragment, "locations": locations}
                else:
                    payload = {"error": {400: "malformed identifier", 404: "not found"}[status]}
                body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return Handler
