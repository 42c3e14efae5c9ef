"""Library catalog analysis: holdings-based indicators for books.

The package ingests bibliographic records, harvests which libraries hold
them from a union-catalog locations API (or an in-process fixture
server), and computes the holdings indicator family: libcitations,
catalog inclusions, inclusion rates, diffusion, class-normalized scores,
in-class ranks, author profiles, and rank correlations against citation
counts. See the `lca` command for the batch interface.
"""

from importlib import import_module as _import_module

from .errors import (
    AuthorNotFoundError,
    ConstantInputError,
    DatasetError,
    IntegrityError,
    IsbnChecksumError,
    IsbnConversionError,
    IsbnError,
    IsbnFormatError,
    LibcatError,
    NoClassError,
    ParseError,
    QuotaExceededError,
    QuotaStateError,
    SampleSizeError,
    StatsError,
    TransportError,
    UndefinedRateError,
    UnknownTargetError,
    WorkKeyError,
)
from .identifiers import (
    WorkCluster,
    WorkKey,
    cluster_works,
    fold_text,
    isbn13_to_isbn10,
    normalize_isbn,
    work_key,
)
from .indicators import (
    AuthorProfile,
    BookIndicators,
    CompositionReport,
    CompositionRow,
    CoverageRow,
    IndicatorReport,
    METRICS,
    author_profile,
    author_profiles,
    book_indicators,
    catalog_inclusions,
    cir,
    cnls,
    composition_report,
    coverage_report,
    diffusion_rate,
    libcitations,
    metric_columns,
    rank_in_class,
    rcir,
    unit_report,
)
from .ingest import (
    ParseReport,
    load_dataset,
    merge_snapshots,
    parse_dublin_core,
    parse_marc_xml,
    save_dataset,
)
from .model import (
    AggregateUnit,
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Holding,
    Isbn,
    LibraryFilter,
    LibraryOrg,
    apply_filter,
)

# Names that load their module on first use, so a command imports only
# the layers it runs: the network layer (http.client, http.server, thread
# pools) for `fetch` alone, the rank statistics for `correlate` alone.
# They are listed in __all__ and dir() all the same.
_LAZY = {
    "CorrelationMatrix": "stats",
    "correlation_matrix": "stats",
    "spearman": "stats",
    "CatalogClient": "client",
    "HarvestResult": "client",
    "Location": "client",
    "LocationResponse": "client",
    "MatchedRecord": "client",
    "QuotaState": "client",
    "QuotaStore": "client",
    "harvest": "client",
    "FixtureServer": "fixture",
}

__version__ = "0.1.0"

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | set(_LAZY) | set(_LAZY.values())
)


def __getattr__(name: str):
    if name in _LAZY.values():  # a deferred module itself, `libcat.stats` say
        return _import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
