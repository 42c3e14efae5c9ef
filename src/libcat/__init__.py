"""Library catalog analysis: holdings-based indicators for books.

The package ingests bibliographic records, harvests which libraries hold
them from a union-catalog locations API (or an in-process fixture
server), and computes the holdings indicator family: libcitations,
catalog inclusions, inclusion rates, diffusion, class-normalized scores,
in-class ranks, author profiles, and rank correlations against citation
counts. See the `lca` command for the batch interface.
"""

from .client import (
    CatalogClient,
    HarvestResult,
    Location,
    LocationResponse,
    MatchedRecord,
    QuotaState,
    QuotaStore,
    harvest,
)
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
from .fixture import FixtureServer, serve_fixture
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
    build_snapshot,
)
from .stats import CorrelationMatrix, PairedSample, correlation_matrix, spearman

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
