"""Layer spans recorded from outside libcat, by wrapping its bindings.

`Tracer.install()` replaces every public function of each libcat module,
and a few methods, with a wrapper that records a span (name, layer,
start, end, parent) in memory. Each binding a caller uses is replaced,
so `libcat.cli.apply_filter` and `libcat.indicators.apply_filter` are
both traced. `uninstall()` restores the originals. Nothing under
`src/` changes.

Hot leaf functions (called once per contributor, ISBN or table cell)
are counted and timed in aggregate instead of one span per call: a
span each would cost more memory and time than the work it measures.
Their time is charged to their own layer and taken out of the self time
of the span they ran in.

A span's self time is its duration minus the part its child spans and
hot calls cover. A span started in a pool or server thread takes as
parent the span the main thread is in, so `harvest` does not count its
lookups as its own. Per-layer sums add up self time across threads, so
a layer busy in two threads at once can exceed the wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("cli", "ingest", "model", "identifiers", "indicators", "stats", "render", "client",
          "fixture")

LIGHT = frozenset({
    "identifiers.fold_text", "identifiers.work_key", "identifiers.normalize_isbn",
    "identifiers.looks_like_isbn", "identifiers.parse_oclc", "identifiers.isbn10_check_char",
    "model.isbn13_check_digit", "render.format_rate", "render.format_percent",
})

# Functions whose metric is their layer's own time: the span minus the
# spans and hot calls of other layers nested in it.
_OWN_TIME = ("ingest.load_dataset", "indicators.author_profiles")

METHODS = (
    ("model", "CatalogSnapshot", "__init__", "model.snapshot_build"),
    ("client", "CatalogClient", "get_by_oclc_number", "client.get_by_oclc_number"),
    ("client", "CatalogClient", "get_by_isbn", "client.get_by_isbn"),
    ("client", "QuotaStore", "consume", "client.quota_consume"),
)


class _Frame:
    __slots__ = ("name", "layer", "start", "end", "parent", "light")

    def __init__(self, name: str, layer: str, start: float, parent: "Optional[_Frame]") -> None:
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = self.light = 0.0


class Tracer:
    """In-memory span and counter store; inactive until `install()`."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[_Frame] = []
        self.calls: Counter = Counter()
        self.light_seconds: Counter = Counter()
        self.light_top: Counter = Counter()  # outermost light time per layer
        self.counts: Counter = Counter()
        self._distinct: dict[int, object] = {}

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread() else []
            )
        return stack

    def _parent(self, stack: list[_Frame]) -> Optional[_Frame]:
        if stack:
            return stack[-1]
        # A pool or server thread works on behalf of whatever the main
        # thread is inside at the moment (harvest waiting on futures).
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def begin(self, name: str, layer: str) -> Optional[_Frame]:
        if not self.active:
            return None
        stack = self._stack()
        frame = _Frame(name, layer, time.perf_counter(), self._parent(stack))
        stack.append(frame)
        self.calls[name] += 1
        return frame

    def end(self, frame: Optional[_Frame]) -> None:
        if frame is None:
            return
        frame.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(frame)

    def _span_wrapper(self, fn: Callable, name: str, layer: str,
                      after: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None and frame is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def _light_wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or getattr(local, "in_light", False):
                if self.active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)
            local.in_light = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.in_light = False
                self.calls[name] += 1
                self.light_seconds[name] += elapsed
                self.light_top[layer] += elapsed
                stack = self._stack()
                if stack:
                    stack[-1].light += elapsed
        return wrapper

    def count_distinct(self, key: str, obj: object, size: int) -> None:
        """Count `size` once per distinct object (cached results come back identical)."""
        if id(obj) not in self._distinct:
            self._distinct[id(obj)] = obj
            self.counts[key] += size

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        import libcat
        from libcat import (cli, client, fixture, identifiers, indicators, ingest, model, render,
                            stats)

        modules = dict(cli=cli, ingest=ingest, model=model, identifiers=identifiers,
                       indicators=indicators, stats=stats, render=render, client=client,
                       fixture=fixture)
        replacements: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = (self._light_wrapper(obj, name, layer) if name in LIGHT
                           else self._span_wrapper(obj, name, layer, _AFTER.get(name)))
                replacements[id(obj)] = (obj, wrapped)
        for module in (libcat, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, class_name, method, name in METHODS:
            cls = getattr(modules[layer], class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._span_wrapper(original, name, layer, _AFTER.get(name)))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [f.end - f.start for f in self.spans if f.name == name]

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and per-function times for the recorded spans."""
        children: dict[int, list[_Frame]] = defaultdict(list)
        for frame in self.spans:
            if frame.parent is not None:
                children[id(frame.parent)].append(frame)

        strict: dict[int, float] = {}
        for frame in self.spans:
            intervals = sorted((max(c.start, frame.start), min(c.end, frame.end))
                               for c in children[id(frame)])
            covered, reach = 0.0, frame.start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            strict[id(frame)] = max(0.0, frame.end - frame.start - covered - frame.light)

        def layer_self(frame: _Frame) -> float:
            """Self time of the frame plus its same-layer descendants."""
            same_layer = (c for c in children[id(frame)] if c.layer == frame.layer)
            return strict[id(frame)] + sum(layer_self(c) for c in same_layer)

        out: dict[str, float] = {f"{layer}.self_s": self.light_top[layer] for layer in LAYERS}
        inclusive: Counter = Counter()  # outermost spans of each name only
        own: Counter = Counter()
        for frame in self.spans:
            out[f"{frame.layer}.self_s"] += strict[id(frame)]
            ancestor = frame.parent
            while ancestor is not None and ancestor.name != frame.name:
                ancestor = ancestor.parent
            if ancestor is None:
                inclusive[frame.name] += frame.end - frame.start
                if frame.name in _OWN_TIME:
                    own[frame.name] += layer_self(frame)
        lookups = sorted(self.durations("client.get_by_oclc_number")
                         + self.durations("client.get_by_isbn"))
        requests = self.calls["client.quota_consume"]
        out.update({
            "ingest.load_dataset_s": own["ingest.load_dataset"],
            "ingest.load_dataset.lines": self.counts["ingest.load_dataset.lines"],
            "ingest.save_dataset_s": inclusive["ingest.save_dataset"],
            "ingest.save_dataset.bytes": self.counts["ingest.save_dataset.bytes"],
            "ingest.parse_marc_xml_s": inclusive["ingest.parse_marc_xml"],
            "ingest.parse_dublin_core_s": inclusive["ingest.parse_dublin_core"],
            "ingest.merge_snapshots_s": inclusive["ingest.merge_snapshots"],
            "ingest.accepted": self.counts["ingest.accepted"],
            "ingest.rejected": self.counts["ingest.rejected"],
            "model.snapshot_build_s": inclusive["model.snapshot_build"],
            "model.snapshot_builds": self.calls["model.snapshot_build"],
            "model.apply_filter_s": inclusive["model.apply_filter"],
            "model.apply_filter.calls": self.calls["model.apply_filter"],
            "identifiers.cluster_works_s": inclusive["identifiers.cluster_works"],
            "identifiers.clusters": self.counts["identifiers.clusters"],
            "identifiers.fold_text_s": self.light_seconds["identifiers.fold_text"],
            "identifiers.fold_text.calls": self.calls["identifiers.fold_text"],
            "indicators.author_profiles_s": own["indicators.author_profiles"],
            "indicators.author_profile.calls": self.calls["indicators.author_profile"],
            "indicators.cnls_s": inclusive["indicators.cnls"],
            "indicators.cnls.calls": self.calls["indicators.cnls"],
            "indicators.rank_in_class_s": inclusive["indicators.rank_in_class"],
            "indicators.rank_in_class.calls": self.calls["indicators.rank_in_class"],
            "indicators.unit_report_s": inclusive["indicators.unit_report"],
            "indicators.report_s": (inclusive["indicators.composition_report"]
                                    + inclusive["indicators.coverage_report"]),
            "stats.spearman_s": inclusive["stats.spearman"],
            "stats.correlation_matrix_s": inclusive["stats.correlation_matrix"],
            "render.render_table_s": inclusive["render.render_table"],
            "render.rows": self.counts["render.rows"],
            "client.harvest_s": inclusive["client.harvest"],
            "client.lookup_p50_ms": 1000 * _quantile(lookups, 0.5),
            "client.lookup_p90_ms": 1000 * _quantile(lookups, 0.9),
            "client.quota_consume_s": inclusive["client.quota_consume"],
            "client.quota_consume.calls": requests,
            "client.lookups": len(lookups),
            "client.not_found": self.counts["client.not_found"],
            "client.skipped": self.counts["client.skipped"],
            "client.errors": self.counts["client.errors"],
            "client.useful_ratio": self.counts["client.useful"] / requests if requests else 0.0,
        })
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines: name, layer, start, end, parent index."""
        index = {id(f): i for i, f in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, f in enumerate(self.spans):
                parent = index.get(id(f.parent)) if f.parent is not None else None
                fh.write(json.dumps({"i": i, "name": f.name, "layer": f.layer, "start": f.start,
                                     "end": f.end, "parent": parent}) + "\n")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _after_load(tracer: Tracer, args, kwargs, snapshot) -> None:
    lines = snapshot.n_records + snapshot.n_libraries + snapshot.n_holdings
    tracer.counts["ingest.load_dataset.lines"] += lines


def _after_save(tracer: Tracer, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.counts["ingest.save_dataset.bytes"] += os.path.getsize(path)


def _after_parse(tracer: Tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.counts["ingest.accepted"] += report.accepted
    tracer.counts["ingest.rejected"] += report.rejected


def _after_clusters(tracer: Tracer, args, kwargs, clusters) -> None:
    tracer.count_distinct("identifiers.clusters", clusters, len(clusters))


def _after_render(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["render.rows"] += len(kwargs["rows"] if "rows" in kwargs else args[1])


def _after_lookup(tracer: Tracer, args, kwargs, response) -> None:
    tracer.counts["client.not_found"] += response.is_empty
    tracer.counts["client.useful"] += bool(response.locations)


def _after_harvest(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["client.skipped"] += len(result.skipped)
    tracer.counts["client.errors"] += len(result.errors)


_AFTER = {
    "ingest.load_dataset": _after_load,
    "ingest.save_dataset": _after_save,
    "ingest.parse_marc_xml": _after_parse,
    "ingest.parse_dublin_core": _after_parse,
    "identifiers.cluster_works": _after_clusters,
    "render.render_table": _after_render,
    "client.get_by_oclc_number": _after_lookup,
    "client.get_by_isbn": _after_lookup,
    "client.harvest": _after_harvest,
}
