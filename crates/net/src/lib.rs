//! # opaq-net — HTTP/1.1 front-end over the OPAQ serving layer
//!
//! `opaq-serve` made the sketches queryable in-process; this crate makes
//! them queryable over real TCP, completing the paper→production arc: one
//! I/O-efficient pass builds a tiny sketch, the catalog versions it, and any
//! HTTP client can now ask for quantiles.  Everything is dependency-free —
//! hand-rolled request parsing, a small JSON wire, `std::net` sockets — in
//! the same spirit as the vendored shims elsewhere in the workspace.
//!
//! ## Architecture
//!
//! ```text
//!                 accept thread (blocking accept, woken by shutdown)
//!                      │ bounded channel (full ⇒ 503, shed load)
//!          ┌───────────┼───────────┐
//!          ▼           ▼           ▼
//!     worker 0     worker 1  …  worker W        (keep-alive loop per conn:
//!          │ parse → route → respond             request cap, read timeout,
//!          ▼                                     idle timeout)
//!    ┌──────────────┐   snapshot + estimate   ┌───────────────┐
//!    │ PlanExecutor │ ───────────────────────▶│ SketchCatalog │
//!    │ (every route │   version + freshness   │ (TTL: expired │──▶ RefreshPool
//!    │  is a plan)  │                         │  ⇒ hook fires)│    re-ingest
//!    └──────┬───────┘                         └───────────────┘
//!           │ latency per tenant, SLO breaches
//!           ▼
//!      QueryEngine (accounting behind /metrics)
//! ```
//!
//! * **Wire** ([`http`], [`json`]): strict request parsing (single
//!   `Content-Length`, capped headers → 431, capped bodies → 413, no
//!   `Transfer-Encoding`) from each connection's own receive buffer, one
//!   head reader for requests and responses, every message framed into one
//!   buffer and sent in one `write`, and a JSON reader/writer whose output
//!   is a pure function of the data — the consistency harness depends on
//!   that.
//! * **Server** ([`server`]): bounded accept pool, keep-alive with a
//!   per-connection request cap, shutdown that drains in-flight requests
//!   before joining (same close-then-join discipline as `RefreshPool`).
//!   Routes:
//!
//!   | route | answer |
//!   |---|---|
//!   | `GET /v1/{tenant}/{dataset}/quantile?phi=` | φ-quantile bounds |
//!   | `GET /v1/{tenant}/{dataset}/rank?key=` | rank bounds of a key |
//!   | `GET /v1/{tenant}/{dataset}/profile?count=` | equi-depth profile |
//!   | `POST /v1/{tenant}/{dataset}/quantile_batch` | `{"phis":[…]}`, one consistent version |
//!   | `POST /v1/query` | `{"plan":"fetch t-*/d \| coalesce \| quantile 0.5"}` pipeline (see `opaq-query`) |
//!   | `GET /healthz` | liveness + entry count |
//!   | `GET /metrics` | Prometheus text exposition rendered by [`opaq_metrics::MetricRegistry`]: HELP/TYPE-annotated counters, gauges, and cumulative histograms |
//!   | `GET /v1/_debug/trace?id=HEX` | rendered span tree for one trace (from the in-memory span ring) |
//!   | `GET /v1/_debug/slow?n=N` | top-N slowest requests with plan provenance, as JSON |
//!
//!   Every route lowers to one typed [`server::ApiRequest`], compiles to an
//!   `opaq_query::QueryPlan` (the GET family as degenerate one-target
//!   plans), and runs through one shared `PlanExecutor` — a single request
//!   model and a single response renderer behind the whole surface.  Error
//!   bodies are uniformly `{"error":{"code":...,"message":...}}` with
//!   stable machine-readable codes.
//!
//!   Every single-target `/v1` response carries `x-opaq-version` (the
//!   sketch epoch that answered — the handle the byte-for-byte verification
//!   keys on) and `x-opaq-freshness` (`fresh|stale|refreshing`, the
//!   catalog's TTL tag); `/v1/query` responses instead embed the full
//!   `(tenant, dataset, version, freshness)` tuple per contributing source,
//!   plus an `x-opaq-sources` count header.
//!
//!   **Every** response — success, error, parse failure, even the 503 shed
//!   by a saturated accept queue — carries `x-opaq-trace-id`.  The id is
//!   echoed from the request header when the caller sent a valid one
//!   (failover hops and `/v1/_sync/*` pulls propagate it this way) and
//!   minted at the front door otherwise; `GET /v1/_debug/trace?id=` turns
//!   it into the request's span tree.
//! * **Client** ([`client`]): minimal keep-alive client with transparent
//!   single reconnect, for the harness/CLI/examples.
//! * **Load harness** ([`load`]): one function, [`run_load`], over a
//!   [`Topology`] — in process, or a fleet of `groups` ring groups ×
//!   `replicas` replicas over loopback TCP, optionally under chaos.  N
//!   client threads × M tenants replay the standard request mix while a
//!   refresher publishes new versions; every answer is re-rendered from the
//!   registered sketch of its claimed version and compared
//!   **byte-for-byte** (in-process answers are the wire bytes: that
//!   topology runs [`server::route`] with only the socket removed),
//!   every fifth op is a glob coalesce plan replayed against the
//!   unpartitioned-catalog oracle, and a TTL probe can watch an expiring
//!   tenant serve non-fresh tags until its background refresh publishes.
//!   With [`LoadSpec::target_qps`] the clients hold a fixed **open-loop**
//!   offered rate and measure latency from each op's scheduled send time
//!   (coordinated-omission-safe), 503s are tallied as *sheds*, and the one
//!   [`LoadReport`] carries verdicts for any declared
//!   [`opaq_metrics::SloThresholds`] — the machinery behind every
//!   `opaq serve-bench` mode.  A routed fleet with one group is a replica
//!   fleet, and a replica fleet of one is a single server, so every fleet
//!   run drives the same [`RoutedFleet`] clients.

//! ## Replication + failover model
//!
//! A replica started with `opaq serve --peer ADDR` joins an existing
//! serving fleet.  The moving parts, and the order they engage:
//!
//! 1. **Bootstrap before exposure** ([`sync`]): the replica replays its own
//!    durable manifest first (local truth), then runs one blocking
//!    [`sync::bootstrap`] against the peer *before* binding its listener.
//!    Bootstrap is just a [`sync::sync_once`] over an empty-or-stale local
//!    version vector, so cold start and stale-replica catch-up are the same
//!    code path.  A replica never serves an answer it is about to
//!    overwrite.
//! 2. **Version-vector reconciliation** ([`sync`], backed by
//!    `opaq_storage::manifest::version_vector`): the peer's
//!    `GET /v1/_sync/manifest` is its per-entry version vector; an entry is
//!    fetched (`GET /v1/_sync/sketch`, `sketch_codec` framing, version
//!    riding in `x-opaq-version` so bytes and version travel atomically)
//!    iff the peer's version is **strictly greater** than the local one,
//!    and it is applied at the peer's *exact* version number
//!    (`SketchCatalog::publish_at`).  Rules: vectors only move forward
//!    (`StaleVersion` rejects regressions), ties mean "already have it",
//!    and there is no merge — the peer's bytes for version *v* are the only
//!    bytes version *v* can ever mean, which is what lets the byte-for-byte
//!    verifier hold across replicas.  Deltas are then polled on an interval
//!    with capped jittered backoff while the peer is down.
//! 3. **Client-side failover** ([`replica`], [`circuit`]): a [`ReplicaSet`]
//!    holds one keep-alive client plus one circuit breaker per replica,
//!    routes sticky to the current healthy replica, retries **only
//!    idempotent GETs** (bounded passes, jittered backoff between passes),
//!    and on total outage replays the last verified answer for the same
//!    target, tagged degraded, instead of erroring.  The breaker
//!    *guarantees*: a dead replica costs at most `min_samples` failures
//!    before opening, an open breaker sends no traffic for its cooldown,
//!    and recovery is probed by exactly one request at a time.  It does
//!    *not* guarantee answer correctness (the verifier's job), global
//!    agreement between clients (each set has a local view), or bounded
//!    staleness of degraded answers (they are as old as the last success).
//! 4. **Chaos** ([`chaos`]): a fault-injecting TCP proxy (drop, delay,
//!    truncate mid-body, reset after N bytes, flap) sits between the load
//!    harness and every replica in `opaq serve-bench --http --replicas N
//!    --chaos`, so the failover path above is exercised by real torn
//!    sockets while every answer is still verified byte-for-byte
//!    ([`load`]).  With two or more replicas the harness also kills the
//!    replica clients prefer a quarter into the run and restarts it at the
//!    half — keyed on op index, so the failover is forced, not lucky.
//!
//! ## Routing + partitioning model
//!
//! One replica set can only scale reads.  To scale *tenants*, the fleet
//! partitions: a consistent-hash ring ([`ring`]) assigns every tenant to
//! exactly one **replica group** (a primary plus peer-synced secondaries —
//! the replication model above, reused unchanged within each group), and a
//! routing layer makes the partition invisible to callers.
//!
//! ```text
//!        RoutedFleet (client)                       ring file (JSON)
//!   tenant ──hash──▶ owning group ◀─── shared ───▶  opaq serve --ring F
//!        │                                            --group NAME
//!        ▼                                              │
//!   ReplicaSet[g]  ──GET──▶  group g primary/secondaries│(scoped ingest)
//!        │   ▲ wrong_owner (421) + owner addrs          │
//!        └───┴── one re-route hop, same trace id        ▼
//!   POST /v1/query glob ──▶ coordinator ──scatter──▶ peer groups
//!                              └─ gather partials, fuse via merge_tree
//! ```
//!
//! * **The ring is the one routing truth.**  [`RingConfig`] is a small
//!   serializable JSON document (vnodes + named groups with replica
//!   addresses); [`HashRing`] builds the sorted virtual-point table from
//!   it with a seedless deterministic hash (FNV-1a plus a 64-bit avalanche
//!   finalizer), so every process that loads the same file computes
//!   byte-identical placements — no coordination service, no gossip.
//!   Rebalance is minimal-disruption: adding a group moves ≈ `1/(N+1)` of
//!   the tenants (all onto the new group), removing one moves only its own
//!   (`tests/ring_properties.rs` pins both bounds, plus balance).
//! * **Servers enforce ownership** ([`server`], [`ring::RingMembership`]):
//!   a ring-scoped server seeds/refreshes only the tenants its group owns,
//!   stamps `x-opaq-owner` ([`OWNER_HEADER`]) on every response, and
//!   refuses a single-tenant request for a peer's tenant with HTTP 421 and
//!   the typed `wrong_owner` error body naming the owning group and its
//!   addresses — a *redirect with evidence*, never a silent proxy, so a
//!   stale client heals its routing in one hop.
//! * **Clients route by ownership** ([`routed`]): a [`RoutedFleet`] keys
//!   one [`ReplicaSet`] per group off the ring, so failover, circuit
//!   breakers and degraded replay all stay *per-group* (a dead group
//!   cannot poison another group's breakers).  A `wrong_owner` answer
//!   triggers exactly one re-route to the named owner — counted, traced
//!   with the *same* trace id across both hops, and never looped.
//! * **Glob plans scatter** ([`server`] + `opaq_query::PlanExecutor`): a
//!   `fetch tenant-*/events | coalesce` plan reaching any group's server
//!   fans out to the peer groups' primaries, gathers their partial
//!   snapshot sets, and fuses everything through the same deterministic
//!   `merge_tree` the single-catalog path uses — so a multi-group answer
//!   is **byte-identical** to the same plan on an unpartitioned catalog
//!   (the oracle the routed harness and `opaq-cli`'s
//!   `tests/serve_process.rs` ring test compare against).
//! * **The partitioned run** ([`run_load`] on a multi-group
//!   [`Topology::Fleet`], i.e. `opaq serve-bench --http --groups G
//!   --replicas M [--chaos]`): seeds each tenant only into its owning
//!   group, routes ring-aware clients (with deliberate misroutes to
//!   exercise the re-route arc), ownership-checks every 200's
//!   `x-opaq-owner` against the ring, replays scattered glob plans against
//!   the unpartitioned oracle, and reports per-group tenant/op balance —
//!   under the same chaos proxies and kill/restart as any other fleet.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod circuit;
pub mod client;
pub mod http;
pub mod json;
pub mod load;
pub mod replica;
pub mod ring;
pub mod routed;
pub mod server;
pub mod sync;

pub use backoff::Backoff;
pub use chaos::{ChaosConfig, ChaosCounters, ChaosProxy};
pub use circuit::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientResponse, ClientStats, ConnectError, ConnectErrorKind, HttpClient};
pub use http::{Request, Response};
pub use json::Json;
pub use load::{run_load, GroupShare, LoadReport, LoadSpec, Topology};
pub use replica::{
    FailoverResponse, ReplicaConfig, ReplicaConfigBuilder, ReplicaSet, ReplicationStats,
};
pub use ring::{GroupConfig, HashRing, RingConfig, RingMembership};
pub use routed::RoutedFleet;
pub use server::{
    render_plan_response_json, render_response_json, ApiRequest, HttpServer, ServerConfig,
    ServerConfigBuilder, ServerStats, Telemetry, FRESHNESS_HEADER, OWNER_HEADER, SOURCES_HEADER,
    TRACE_HEADER, VERSION_HEADER,
};
pub use sync::{bootstrap, fetch_manifest, fetch_sketch, sync_once, PeerEntry, Replicator};

use opaq_serve::ServeError;
use std::fmt;

/// Errors surfaced by the network layer.
#[derive(Debug)]
pub enum NetError {
    /// Socket/file I/O failure.
    Io(std::io::Error),
    /// A connection could not be established (or died), classified.
    Connect(ConnectError),
    /// Bad server or workload configuration.
    InvalidConfig(String),
    /// The peer violated the HTTP/JSON protocol contract.
    Protocol(String),
    /// The serving layer reported an error.
    Serve(ServeError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Connect(e) => write!(f, "{e}"),
            NetError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Connect(e) => Some(e),
            NetError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::Serve(e)
    }
}

impl From<opaq_core::OpaqError> for NetError {
    fn from(e: opaq_core::OpaqError) -> Self {
        NetError::Serve(ServeError::Opaq(e))
    }
}

/// Convenience alias for results in this crate.
pub type NetResult<T> = Result<T, NetError>;
