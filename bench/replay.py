"""The replay server the harvest workload fetches from.

`FixtureServer` answers from memory in microseconds; a real locations
API answers in milliseconds. This subclass sleeps a fixed delay before
each request to model that round trip, so harvest parallelism behaves
as it would against a remote service. It also counts 404 answers and,
when a tracer is active, records each request as a `fixture` span.
"""

from __future__ import annotations

import threading
import time

from libcat.fixture import FixtureServer

REQUEST_DELAY_S = 0.005


class ReplayServer(FixtureServer):
    def __init__(self, snapshot) -> None:
        self.tracer = None  # a tracing.Tracer, set for traced runs
        self.not_found = 0
        self._status_lock = threading.Lock()
        super().__init__(snapshot)

    def _handler_class(self):
        server = self

        class DelayedHandler(super()._handler_class()):
            # Keep-alive, as a remote API would: the client's two workers
            # hold two connections instead of opening one per request.
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_GET(self) -> None:
                time.sleep(REQUEST_DELAY_S)
                frame = server.tracer.begin("fixture.request", "fixture") if server.tracer else None
                try:
                    super().do_GET()
                finally:
                    if frame is not None:
                        server.tracer.end(frame)

            def send_response(self, code, message=None) -> None:
                if code == 404:
                    with server._status_lock:
                        server.not_found += 1
                super().send_response(code, message)

        return DelayedHandler
