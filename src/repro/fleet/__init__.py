"""Fleet aggregation: multi-run profile store, cross-run merge, differentials.

This package scales the single-run profiler into a fleet tool: a
content-addressed :class:`ProfileStore` catalogs many runs' sealed profiles
and indexes each as a :class:`RunSummary` of per-name Welford rows; a
:class:`FleetAggregator` answers fleet-wide queries from those rows (a run
the index cannot serve rebuilds its summary from its bytes) or
materializes the fleet CCT when structure is needed; and a
:class:`DifferentialProfile` aligns two runs — or two run populations — on
calling contexts to rank regressions.  The analyzer's ``RegressionAnalysis``
and the experiment runner's ``store_path``/``baseline`` options build on
these; ``docs/FLEET.md`` documents the store layout and the differential
semantics.
"""

from .aggregate import DegradedRun, FleetAggregator
from .differential import (
    STATUS_CHANGED,
    STATUS_NEW,
    STATUS_UNCHANGED,
    STATUS_VANISHED,
    Z_CAP,
    ContextDelta,
    DifferentialProfile,
    NameDelta,
    merge_population,
    name_drift,
    resolve_tree,
)
from .index import INDEX_VERSION, FleetIndex, RunSummary
from .store import (
    CATALOG_VERSION,
    LATEST_ALIASES,
    STATUS_OK,
    STATUS_QUARANTINED,
    CatalogLockTimeout,
    ProfileStore,
    PruneReport,
    RunRecord,
    ScrubReport,
    catalog_lock_stats,
    config_hash,
    reset_catalog_lock_stats,
)
from .watcher import (
    FleetWatcher,
    RetentionPolicy,
    WatchedRun,
    WatcherTick,
)

__all__ = [
    "ProfileStore",
    "RunRecord",
    "config_hash",
    "CATALOG_VERSION",
    "LATEST_ALIASES",
    "FleetAggregator",
    "DegradedRun",
    "ScrubReport",
    "PruneReport",
    "FleetWatcher",
    "RetentionPolicy",
    "WatchedRun",
    "WatcherTick",
    "CatalogLockTimeout",
    "catalog_lock_stats",
    "reset_catalog_lock_stats",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "DifferentialProfile",
    "ContextDelta",
    "NameDelta",
    "name_drift",
    "merge_population",
    "resolve_tree",
    "FleetIndex",
    "RunSummary",
    "INDEX_VERSION",
    "Z_CAP",
    "STATUS_UNCHANGED",
    "STATUS_CHANGED",
    "STATUS_NEW",
    "STATUS_VANISHED",
]
