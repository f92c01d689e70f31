//! # opaq-serve — concurrent multi-tenant sketch serving
//!
//! OPAQ's whole point is that one I/O-efficient pass yields a tiny sketch
//! that can answer *any* quantile query afterwards.  This crate is the layer
//! that actually faces that query traffic: a versioned, multi-tenant catalog
//! of immutable sketch snapshots, the typed query model with its one
//! evaluation function and per-tenant latency accounting, and a background
//! refresh pipeline.  Plans over the catalog run in `opaq_query`'s
//! `PlanExecutor`; the HTTP router (`opaq_net`) feeds the accounting.  The
//! load harness that drives all of it under concurrent read/refresh
//! workloads — in process or over a fleet of HTTP servers — is
//! `opaq_net::load::run_load`.
//!
//! ## Architecture
//!
//! ```text
//!  opaq-net route (HTTP or in process)  refresh workers (opaq-parallel)
//!       │ QueryPlan                               │ build new sketch
//!       ▼                                         ▼
//!  ┌──────────────┐   snapshot()          ┌──────────────┐
//!  │ PlanExecutor │ ────────────────────▶ │ SketchCatalog │ ◀── publish()
//!  │ (opaq-query) │  Arc<QuantileSketch>  │  (tenant,     │     epoch swap
//!  │ → execute_on │  + version epoch      │   dataset) →  │
//!  │ + per-tenant │                       │  versioned    │ ──▶ LRU spill to
//!  │ latency, SLO │                       │  entries      │     sketch files
//!  └──────────────┘                       └──────────────┘ ◀── reload
//! ```
//!
//! * **Catalog epochs** ([`catalog`]): every `(tenant, dataset)` entry holds
//!   an immutable `Arc<QuantileSketch<u64>>` tagged with a monotonically
//!   increasing *version*.  Publication is an epoch swap: the writer builds
//!   the new sketch entirely outside any lock, then replaces the `Arc` under
//!   a per-entry write lock held only for the pointer swap.  Readers clone
//!   the `Arc` under the corresponding read lock — a few instructions — and
//!   then query their snapshot with no locks at all, so a reader can never
//!   observe a half-published sketch, and an in-flight query keeps its old
//!   snapshot alive even while newer versions land.
//! * **Eviction** ([`catalog`]): the catalog has an optional resident budget
//!   in sample points (the paper's `r·s` memory unit).  When publications
//!   push the resident total over budget, the least-recently-touched entries
//!   are written out through [`opaq_storage::sketch_codec`] — the same
//!   versioned, checksummed format the CLI persists — and dropped from
//!   memory; the next query for a spilled tenant transparently reloads and
//!   re-validates the sketch.
//! * **Queries** ([`query`]): typed requests — `Quantile{phi}`, `Rank{key}`,
//!   `QuantileBatch{phis}`, `Profile{count}` — evaluated by [`execute_on`]
//!   against one snapshot, so a batch is answered by a single consistent
//!   version.  The plan executor accounts every answered plan in its
//!   lock-free per-tenant latency histograms ([`opaq_metrics::latency`],
//!   p50/p99/p999) and checks it against the armed SLO threshold;
//!   [`QueryEngine`] is only the server's catalog handle.
//! * **Refresh pipeline** ([`refresh`]): a small worker pool that ingests new
//!   data in the background — via `opaq_parallel::ShardedOpaq` or any
//!   caller-supplied builder — and publishes the result as the entry's next
//!   version.  Readers are never blocked by an in-progress build, and
//!   shutdown closes the queue *before* joining the workers, so every
//!   accepted refresh drains (publishes or fails) before teardown completes.
//! * **TTL / staleness** ([`catalog`]): entries may carry a `max_age`
//!   (per-entry [`SketchCatalog::set_ttl`] or catalog-wide default).  Expired
//!   entries keep serving their last complete version, tagged
//!   [`Freshness::Stale`] — or [`Freshness::Refreshing`] once the first
//!   expired access routed the entry to the installed refresh hook (at most
//!   one in-flight refresh per entry); the next publish resets both clock
//!   and tag.  The tag rides on every [`QueryResponse`] and, through
//!   `opaq-net`, on every HTTP response's `X-Opaq-Freshness` header.
//! * **Request mix** ([`next_rand`], [`request_for`]): the deterministic
//!   per-client PRNG and the standard quantile/rank/batch/profile mix that
//!   load generators replay, so every harness issues the same stream for
//!   the same seed.

//! ## Durability model
//!
//! With [`CatalogConfig::data_dir`] set the catalog is **durable**: the data
//! directory holds a write-ahead publication log
//! ([`opaq_storage::manifest`], file [`catalog::MANIFEST_FILE`]) plus one
//! checksummed sketch file per live published version.  What is guaranteed
//! after which fsync point:
//!
//! 1. **Sketch write** — the new version's bytes are written to their own
//!    per-version file and `fsync`ed *before* anything announces them.  A
//!    crash here leaves an orphan file no record points at; recovery deletes
//!    it and counts it ([`CatalogStats::orphan_spills_removed`]).  The old
//!    version is untouched and still authoritative.
//! 2. **Manifest append** — one `Publish` record (tenant, dataset, version,
//!    TTL, sketch file name) is appended and `fsync`ed.  *This is the commit
//!    point*: once the append returns, a restart rebuilds the new version;
//!    before it, a restart rebuilds the old one.  A crash mid-append leaves
//!    a torn tail that replay truncates — never a half-announced version.
//! 3. **Epoch swap** — only after both syncs does the in-memory slot change,
//!    so readers can never observe a version that a crash could un-publish.
//!    The superseded version's file is deleted after the swap; a crash
//!    between append and delete leaves it as an orphan for recovery to reap.
//!
//! `Evict` and `TtlSet` records follow the same append-then-apply order.
//! Eviction in durable mode never rewrites bytes: the per-version file
//! written at publish *is* the spill tier, so evicting is just "log it, drop
//! residency".  A restarted catalog ([`SketchCatalog::new`] over the same
//! data dir) replays the log, restores every entry memory-cold with its
//! exact version and TTL (ages measured from recovery — an entry is never
//! *born* stale), truncates any torn tail, and surfaces damaged records as
//! typed [`opaq_storage::StorageError::Corrupt`] rather than guessing.  The
//! next publish continues the version sequence where the log left off,
//! which is what lets the byte-for-byte workload verifier keep passing
//! across a kill-and-restart cycle.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod query;
pub mod refresh;

pub use catalog::{
    CatalogConfig, CatalogConfigBuilder, CatalogStats, DatasetId, Freshness, InventoryEntry,
    RecoveryReport, RefreshHook, SketchCatalog, SketchSnapshot, SnapshotOrigin, TenantId,
    MANIFEST_FILE,
};
pub use query::{
    execute_on, next_rand, request_for, QueryEngine, QueryOutput, QueryRequest, QueryResponse,
};
pub use refresh::RefreshPool;

use opaq_core::OpaqError;
use opaq_storage::StorageError;
use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// No sketch has ever been published for the requested entry.
    UnknownEntry {
        /// The tenant that was addressed.
        tenant: TenantId,
        /// The dataset that was addressed.
        dataset: DatasetId,
    },
    /// The catalog configuration is inconsistent (e.g. an eviction budget
    /// without a spill directory to evict into).
    InvalidConfig(String),
    /// The refresh pool has shut down and accepts no further jobs.
    RefreshClosed,
    /// A replicated publish offered a version that does not move the entry
    /// forward — version vectors are monotone, so applying it would let a
    /// stale peer roll back a newer answer.
    StaleVersion {
        /// The tenant that was addressed.
        tenant: TenantId,
        /// The dataset that was addressed.
        dataset: DatasetId,
        /// The entry's current version.
        current: u64,
        /// The version the publish tried to apply.
        offered: u64,
    },
    /// The underlying OPAQ core reported an error.
    Opaq(OpaqError),
    /// The storage layer (spill/reload codec) reported an error.
    Storage(StorageError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEntry { tenant, dataset } => {
                write!(
                    f,
                    "no sketch published for tenant '{tenant}' dataset '{dataset}'"
                )
            }
            ServeError::InvalidConfig(msg) => write!(f, "invalid catalog configuration: {msg}"),
            ServeError::RefreshClosed => write!(f, "refresh pool has shut down"),
            ServeError::StaleVersion {
                tenant,
                dataset,
                current,
                offered,
            } => write!(
                f,
                "stale replicated publish for tenant '{tenant}' dataset '{dataset}': \
                 offered version {offered} does not advance current version {current}"
            ),
            ServeError::Opaq(e) => write!(f, "{e}"),
            ServeError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Opaq(e) => Some(e),
            ServeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpaqError> for ServeError {
    fn from(e: OpaqError) -> Self {
        ServeError::Opaq(e)
    }
}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> Self {
        ServeError::Storage(e)
    }
}

/// Convenience alias for results in this crate.
pub type ServeResult<T> = Result<T, ServeError>;
