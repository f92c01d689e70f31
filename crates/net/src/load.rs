//! The serving load harness: one mixed read/refresh workload, one verifier
//! and one report, over every serving topology.
//!
//! [`run_load`] seeds `M` synthetic tenants, then runs `N` client threads
//! through the standard request mix ([`opaq_serve::request_for`]) while a
//! refresher folds new runs into every tenant and publishes the merged
//! sketch as its next version (the paper's §4 incremental formulation).
//! The [`Topology`] picks what the clients talk to:
//!
//! * [`Topology::InProcess`] — the server's router without the socket:
//!   each request is framed and parsed as on the wire, answered by
//!   [`route`](crate::server::route) over the catalog, and its response framed and parsed back;
//!   an optional resident budget forces evict/reload churn.
//! * [`Topology::Fleet`] — `groups` replica groups on a consistent-hash
//!   ring over loopback TCP, each a primary (catalog of record, refreshed
//!   in process) plus `replicas - 1` secondaries bootstrapped from it over
//!   `/v1/_sync` and kept current by delta polling.  Tenants are seeded only
//!   into their owning group.  Every client drives a [`RoutedFleet`], so a
//!   one-group ring is the flat server (one replica) or a replica fleet.
//!   With `chaos`, every replica sits behind a fault-injecting
//!   [`ChaosProxy`]; with two or more replicas, group 0's leading secondary
//!   (the one sticky clients prefer) is also killed and restarted mid-run.
//!
//! **Verification.**  Before a version is published, the refresher
//! registers a clone of its sketch keyed `(tenant, version)`.  Every answer
//! names the version that produced it (`x-opaq-version`; plans embed the
//! `(tenant, dataset, version, freshness)` provenance of every source), so
//! the client re-executes the request against the registered sketch,
//! re-renders the expected body through the server's own renderers and
//! compares bytes.  In-process answers are the wire bytes, so one verifier
//! judges every topology.  An answer that is not exactly one complete
//! published version — a half-swapped sketch, an invented version, a
//! half-flushed body — counts as torn.  Every answer must also carry the
//! stamped trace id, and a fleet's 200s an `x-opaq-owner` naming the ring's
//! owner (else *mis-owned*).
//!
//! **Plans.**  Every fifth op is a `fetch tenant-*/events | coalesce | …`
//! plan over every tenant (a rotating coordinator group scatters it across
//! the ring).  The offline replay fuses the registered sketches of every
//! claimed version with the same deterministic merge tree — the answer an
//! unpartitioned catalog would give — and compares bytes.
//!
//! **TTL probe.**  With [`LoadSpec::ttl`], a `ttl-probe` tenant gets that
//! `max_age` and a refresh hook into a real `RefreshPool`; a watcher polls
//! it and counts complete expiry → background refresh → publish cycles.
//!
//! **Chaos schedule.**  The kill and restart are keyed on op index, not on
//! wall-clock luck: a client that claims op `total/4` or later waits until
//! the victim is down, and one that claims op `total/2` or later waits for
//! the restart, so ops run against the dead victim and a failover is forced.
//!
//! **Open loop.**  With [`LoadSpec::target_qps`], each op has a fixed
//! scheduled send time and its latency is measured from that schedule, so
//! a lagging server accrues queueing delay instead of silently throttling
//! the offered load (coordinated-omission-safe).

use crate::chaos::{ChaosConfig, ChaosCounters, ChaosProxy};
use crate::circuit::BreakerConfig;
use crate::client::{encode_request, read_response, ClientResponse, ClientStats};
use crate::http::{read_request, RecvBuf};
use crate::json::{write_escaped, Json};
use crate::replica::{FailoverResponse, ReplicaConfig, ReplicationStats};
use crate::ring::{GroupConfig, HashRing, RingConfig, RingMembership};
use crate::routed::RoutedFleet;
use crate::server::{
    render_plan_response_json, render_response_json, respond, HttpServer, ServerConfig, Telemetry,
    FRESHNESS_HEADER, OWNER_HEADER, SOURCES_HEADER, TRACE_HEADER, VERSION_HEADER,
};
use crate::sync::{bootstrap, Replicator};
use crate::{NetError, NetResult};
use opaq_core::{IncrementalOpaq, OpaqConfig, QuantileSketch};
use opaq_metrics::trace::{format_nanos, TraceSink};
use opaq_metrics::{render_latency_table, LatencyHistogram, LatencySnapshot, TraceId};
use opaq_query::{merge_tree, PlanExecutor, PlanResponse, PlanSource};
use opaq_serve::{
    execute_on, next_rand, request_for, CatalogConfig, CatalogStats, DatasetId, Freshness,
    QueryEngine, QueryRequest, QueryResponse, RefreshPool, SketchCatalog, TenantId,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tenant the TTL watcher polls; `tenant-*` plans never match it.
const TTL_TENANT: &str = "ttl-probe";
/// Every N-th single-target op goes to a non-owning group first, forcing
/// the `wrong_owner` → one-hop re-route arc (a no-op on a one-group ring).
const MISROUTE_EVERY: u64 = 7;
/// Delta-poll interval of every secondary's replicator.
const SYNC_POLL: Duration = Duration::from_millis(40);

/// What the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The server's router over one catalog, without the socket.
    InProcess,
    /// `groups` ring groups × `replicas` replicas over loopback TCP.
    Fleet {
        /// Replica groups on the hash ring (at least 1).
        groups: usize,
        /// Serving replicas per group, primary included (at least 1).
        replicas: usize,
        /// Front every replica with a fault-injecting proxy; with two or
        /// more replicas, also kill and restart one replica mid-run.
        chaos: bool,
    },
}

impl Topology {
    /// Whether a run on this topology kills and restarts a replica: chaos
    /// on groups of two or more replicas.
    pub fn kills(self) -> bool {
        matches!(self, Topology::Fleet { replicas, chaos: true, .. } if replicas >= 2)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::InProcess => write!(f, "in-process"),
            Topology::Fleet {
                groups,
                replicas,
                chaos,
            } => write!(
                f,
                "{groups}x{replicas} fleet over TCP{}",
                if *chaos { " with chaos" } else { "" }
            ),
        }
    }
}

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// What the clients talk to.
    pub topology: Topology,
    /// Number of tenants (each with one dataset, `events`).
    pub tenants: usize,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Requests issued by each client.
    pub ops_per_client: u64,
    /// Keys in each tenant's initial dataset.
    pub keys_per_tenant: u64,
    /// OPAQ run length `m`.
    pub run_length: u64,
    /// OPAQ per-run sample size `s`.
    pub sample_size: u64,
    /// Background refresh publications per tenant during the run.
    pub refresh_rounds: u64,
    /// Seed for data, request mix and tenant choice.
    pub seed: u64,
    /// Resident budget in sample points; the catalog then runs durable over
    /// a temporary data directory.  In-process only.
    pub budget_sample_points: Option<u64>,
    /// `max_age` of the TTL probe tenant; `None` disables the probe.  Needs
    /// one replica per group: TTLs are not replicated.
    pub ttl: Option<Duration>,
    /// Aggregate open-loop offered rate; `None` runs closed loop.
    pub target_qps: Option<f64>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            topology: Topology::InProcess,
            tenants: 4,
            clients: 8,
            ops_per_client: 2_000,
            keys_per_tenant: 100_000,
            run_length: 10_000,
            sample_size: 500,
            refresh_rounds: 5,
            seed: 42,
            budget_sample_points: None,
            ttl: None,
            target_qps: None,
        }
    }
}

impl LoadSpec {
    /// A small configuration for smoke runs (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            tenants: 2,
            clients: 4,
            ops_per_client: 300,
            keys_per_tenant: 20_000,
            run_length: 2_000,
            sample_size: 200,
            refresh_rounds: 3,
            ..Self::default()
        }
    }

    /// Check the spec is runnable on its topology.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for a zero tenant/client/op count, an
    /// empty fleet, a non-positive or non-finite `target_qps`, a zero TTL,
    /// an eviction budget outside the in-process topology, or a TTL probe
    /// on a group with more than one replica.
    pub fn validate(&self) -> NetResult<()> {
        let invalid = |msg: &str| Err(NetError::InvalidConfig(msg.to_string()));
        if self.tenants == 0 || self.clients == 0 || self.ops_per_client == 0 {
            return invalid("a workload needs at least one tenant, one client and one op");
        }
        if self
            .target_qps
            .is_some_and(|qps| !qps.is_finite() || qps <= 0.0)
        {
            return invalid("an open-loop target QPS must be a positive finite rate");
        }
        if self.ttl.is_some_and(|ttl| ttl.is_zero()) {
            return invalid("a TTL probe needs a non-zero max age");
        }
        if let Topology::Fleet {
            groups, replicas, ..
        } = self.topology
        {
            if groups == 0 || replicas == 0 {
                return invalid("a fleet needs at least one group and one replica per group");
            }
            if self.budget_sample_points.is_some() {
                return invalid("an eviction budget needs the in-process topology");
            }
            if replicas > 1 && self.ttl.is_some() {
                return invalid("a TTL probe needs one replica per group: TTLs are not replicated");
            }
        }
        Ok(())
    }
}

/// One ring group's share of a fleet run.
#[derive(Debug, Clone)]
pub struct GroupShare {
    /// The group's ring name.
    pub group: String,
    /// Tenants the ring assigns to this group.
    pub tenants: u64,
    /// Single-target ops whose owner this group was.
    pub ops: u64,
}

/// What a load run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The topology that ran.
    pub topology: Topology,
    /// Every client op attempted, single-target and plan.
    pub ops: u64,
    /// The `/v1/query` plan ops among [`Self::ops`].
    pub plan_ops: u64,
    /// Single-target answers verified byte-for-byte.
    pub verified: u64,
    /// Plan answers whose offline replay matched byte-for-byte.
    pub plan_verified: u64,
    /// Answers (client or TTL probe) that matched no complete published
    /// version (must be 0).
    pub torn_reads: u64,
    /// 200s whose `x-opaq-owner` named a group other than the ring's owner
    /// (must be 0).
    pub mis_owned: u64,
    /// Single-target and probe answers with a non-200, non-503 status.
    pub http_errors: u64,
    /// Plan answers with a non-200, non-503 status.
    pub plan_errors: u64,
    /// 503s from a full accept queue (load protection, not corruption).
    pub sheds: u64,
    /// Ops among [`Self::ops`] that got no answer at all (a transport
    /// failure with nothing cached).
    pub unanswered: u64,
    /// Answers replayed from a degradation cache (stale but verified).
    pub degraded: u64,
    /// Answers missing the trace header or echoing another id (must be 0).
    pub trace_violations: u64,
    /// Versions published by the refresher while clients ran.
    pub refreshes_published: u64,
    /// Verified TTL-probe polls, including the post-client grace window.
    pub probe_polls: u64,
    /// TTL-probe answers served past their `max_age`.
    pub non_fresh_served: u64,
    /// Complete expiry → refresh → publish cycles the TTL probe observed.
    pub ttl_refreshes_observed: u64,
    /// Replicas killed mid-run.
    pub kills: u64,
    /// Replicas restarted (fresh port, fresh bootstrap).
    pub restarts: u64,
    /// Preferred-replica switches across all client groups.
    pub failovers: u64,
    /// Circuit-breaker open transitions across all client groups.
    pub breaker_opens: u64,
    /// Catalog entries secondaries applied from their primaries.
    pub sync_deltas_applied: u64,
    /// `wrong_owner` answers followed by a one-hop re-route.
    pub reroutes: u64,
    /// Faults injected by the chaos proxies, per kind.
    pub chaos: ChaosCounters,
    /// Client transport tallies (connect errors, timeouts, retries).
    pub transport: ClientStats,
    /// Per-group tenant/op balance, in ring order (empty in process).
    pub shares: Vec<GroupShare>,
    /// Client-observed latency of single-target ops, per tenant.
    pub per_tenant: Vec<(String, LatencySnapshot)>,
    /// Client-observed latency of every answered op — measured from the
    /// scheduled send time when run open loop.
    pub latency: LatencySnapshot,
    /// Wall-clock time of the client phase.
    pub wall: Duration,
    /// The open-loop offered rate, if one was configured.
    pub target_qps: Option<f64>,
    /// Counters of the catalog of record of group 0 (the in-process catalog
    /// on [`Topology::InProcess`]) at the end of the run.
    pub catalog: CatalogStats,
    /// The fleet's slowest requests (trace id, duration, provenance),
    /// pre-rendered from the primaries' slow logs.
    pub slow_log: String,
}

impl LoadReport {
    /// Client ops per second over the client phase.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Render the report as text.
    pub fn render(&self) -> String {
        let mut rows = self.per_tenant.clone();
        rows.push(("all".to_string(), self.latency));
        let mut out = render_latency_table("client-observed latency by tenant", &rows);
        out.push_str(&format!("topology: {}\n", self.topology));
        for share in &self.shares {
            out.push_str(&format!(
                "  {}: tenants {} | ops {}\n",
                share.group, share.tenants, share.ops
            ));
        }
        out.push_str(&format!(
            "ops {} | verified {} | plan ops {} | plan verified {} | torn {} | mis-owned {} | \
             trace violations {} | http errors {} | plan errors {} | sheds {} | degraded {} | \
             unanswered {} | refreshes {} | {:.0} ops/s\n",
            self.ops,
            self.verified,
            self.plan_ops,
            self.plan_verified,
            self.torn_reads,
            self.mis_owned,
            self.trace_violations,
            self.http_errors,
            self.plan_errors,
            self.sheds,
            self.degraded,
            self.unanswered,
            self.refreshes_published,
            self.throughput()
        ));
        if self.probe_polls > 0 {
            out.push_str(&format!(
                "ttl probe: polls {} | non-fresh {} | expiry-refresh cycles observed {}\n",
                self.probe_polls, self.non_fresh_served, self.ttl_refreshes_observed
            ));
        }
        if let Topology::Fleet { .. } = self.topology {
            out.push_str(&format!(
                "kills {} | restarts {} | reroutes {} | failovers {} | breaker opens {} | \
                 sync deltas applied {} | chaos faults injected {}\n",
                self.kills,
                self.restarts,
                self.reroutes,
                self.failovers,
                self.breaker_opens,
                self.sync_deltas_applied,
                self.chaos.total()
            ));
            out.push_str(&format!(
                "chaos: drops {} | delays {} | truncates {} | resets {} | flaps {}\n",
                self.chaos.drops,
                self.chaos.delays,
                self.chaos.truncates,
                self.chaos.resets,
                self.chaos.flaps
            ));
            out.push_str(&format!(
                "client transport: connect errors {} | timeouts {} | retries {}\n",
                self.transport.connect_errors, self.transport.timeouts, self.transport.retries,
            ));
        }
        out.push_str(&format!(
            "catalog: evictions {} | reloads {} | resident sample points {}\n",
            self.catalog.evictions, self.catalog.reloads, self.catalog.resident_sample_points
        ));
        if let Some(qps) = self.target_qps {
            out.push_str(&format!("target qps (open loop): {qps:.0}\n"));
        }
        out.push_str(&self.slow_log);
        out
    }
}

/// `(tenant, version) -> the complete sketch of that version`, registered
/// *before* the catalog publish.
type Registry = RwLock<HashMap<(String, u64), Arc<QuantileSketch<u64>>>>;

/// How one answer fared against the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Verified,
    Torn,
    /// 503: the bounded accept queue shed the connection.
    Shed,
    HttpError,
}

/// Map a typed request to its HTTP form: `(target, optional JSON body)`.
fn wire_form(tenant: &str, dataset: &str, request: &QueryRequest) -> (String, Option<String>) {
    match request {
        QueryRequest::Quantile { phi } => {
            (format!("/v1/{tenant}/{dataset}/quantile?phi={phi}"), None)
        }
        QueryRequest::Rank { key } => (format!("/v1/{tenant}/{dataset}/rank?key={key}"), None),
        QueryRequest::Profile { count } => (
            format!("/v1/{tenant}/{dataset}/profile?count={count}"),
            None,
        ),
        QueryRequest::QuantileBatch { phis } => {
            let phis: Vec<String> = phis.iter().map(|phi| format!("{phi}")).collect();
            (
                format!("/v1/{tenant}/{dataset}/quantile_batch"),
                Some(format!("{{\"phis\":[{}]}}", phis.join(","))),
            )
        }
    }
}

/// The status part of a verdict: `None` means a 200 worth verifying.
fn status_verdict(response: &ClientResponse) -> Option<Verdict> {
    match response.status {
        200 => None,
        503 => Some(Verdict::Shed),
        _ => Some(Verdict::HttpError),
    }
}

/// Re-render a single-target answer from the registered sketch of its
/// claimed version and compare bytes.
fn verify(
    tenant: &str,
    request: &QueryRequest,
    response: &ClientResponse,
    registry: &Registry,
) -> Verdict {
    if let Some(verdict) = status_verdict(response) {
        return verdict;
    }
    let claimed = response
        .header(VERSION_HEADER)
        .and_then(|v| v.parse::<u64>().ok())
        .zip(response.header(FRESHNESS_HEADER).and_then(Freshness::parse));
    let Some((version, freshness)) = claimed else {
        return Verdict::Torn;
    };
    // A version the refresher never registered is torn by definition.
    let Some(sketch) = registry.read().get(&(tenant.to_string(), version)).cloned() else {
        return Verdict::Torn;
    };
    let Ok(output) = execute_on(&sketch, request) else {
        return Verdict::Torn;
    };
    let expected = render_response_json(&QueryResponse {
        output,
        version,
        total_elements: sketch.total_elements(),
        freshness,
    });
    if expected.as_bytes() == response.body.as_slice() {
        Verdict::Verified
    } else {
        Verdict::Torn
    }
}

/// A coalescing pipeline over every main tenant: the plan text plus the
/// typed extract the offline replay re-runs.
fn plan_for(rng: &mut u64) -> (String, QueryRequest) {
    let (extract, request) = match next_rand(rng) % 4 {
        0 => (
            "quantile 0.5".to_string(),
            QueryRequest::Quantile { phi: 0.5 },
        ),
        1 => (
            "quantile 0.25,0.5,0.75".to_string(),
            QueryRequest::QuantileBatch {
                phis: vec![0.25, 0.5, 0.75],
            },
        ),
        2 => {
            let key = next_rand(rng) % (1 << 24);
            (format!("rank {key}"), QueryRequest::Rank { key })
        }
        _ => ("profile 8".to_string(), QueryRequest::Profile { count: 8 }),
    };
    (
        format!("fetch tenant-*/events | coalesce | {extract}"),
        request,
    )
}

/// Replay a plan answer offline and compare bytes.  The claimed source set
/// must be exactly `expected` (sorted key order), every claimed version must
/// be registered, and fusing the registered sketches with the same merge
/// tree, re-running the extract and re-rendering must reproduce the body.
fn verify_plan(
    request: &QueryRequest,
    response: &ClientResponse,
    registry: &Registry,
    expected: &[(String, String)],
) -> Verdict {
    if let Some(verdict) = status_verdict(response) {
        return verdict;
    }
    let Some(sources) = claimed_sources(response) else {
        return Verdict::Torn;
    };
    // A plan that silently skipped a tenant (or invented one) is torn.
    if sources.len() != expected.len()
        || sources
            .iter()
            .zip(expected)
            .any(|(s, (t, d))| s.tenant.as_str() != t || s.dataset.as_str() != d)
    {
        return Verdict::Torn;
    }
    let sketches: Option<Vec<_>> = sources
        .iter()
        .map(|s| {
            registry
                .read()
                .get(&(s.tenant.to_string(), s.version))
                .cloned()
        })
        .collect();
    let Some(Ok(fused)) = sketches.map(|sketches| merge_tree(&sketches)) else {
        return Verdict::Torn;
    };
    let Ok(output) = execute_on(&fused, request) else {
        return Verdict::Torn;
    };
    let expected_body = render_plan_response_json(&PlanResponse {
        output,
        total_elements: fused.total_elements(),
        sources,
    });
    if expected_body.as_bytes() == response.body.as_slice() {
        Verdict::Verified
    } else {
        Verdict::Torn
    }
}

/// The `(tenant, dataset, version, freshness)` provenance a plan answer
/// claims, if well-formed and consistent with its `x-opaq-sources` count.
fn claimed_sources(response: &ClientResponse) -> Option<Vec<PlanSource>> {
    let parsed = Json::parse(std::str::from_utf8(&response.body).ok()?).ok()?;
    let claimed = parsed.get("sources")?.as_array()?;
    if response.header(SOURCES_HEADER)?.parse::<usize>().ok()? != claimed.len() {
        return None;
    }
    claimed
        .iter()
        .map(|entry| {
            Some(PlanSource {
                tenant: TenantId::new(entry.get("tenant")?.as_str()?),
                dataset: DatasetId::new(entry.get("dataset")?.as_str()?),
                version: entry.get("version")?.as_u64()?,
                freshness: Freshness::parse(entry.get("freshness")?.as_str()?)?,
            })
        })
        .collect()
}

/// `true` iff the response carries a well-formed trace id — the stamped one
/// when the client stamped one.
fn trace_ok(response: &ClientResponse, sent: Option<TraceId>) -> bool {
    match (response.header(TRACE_HEADER).and_then(TraceId::parse), sent) {
        (Some(echoed), Some(stamped)) => echoed == stamped,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// Keys tenant `stream` ingests in refresh round `round` (round 0 is the
/// initial load): a pure function of `(seed, stream, round)`, so an
/// unpartitioned oracle catalog would hold exactly the fleet's bytes.
fn chunk(seed: u64, stream: u64, round: u64, n: u64) -> Vec<u64> {
    let mut rng = seed
        .wrapping_add(1 + stream)
        .wrapping_mul(1_000_003)
        .wrapping_add(round);
    (0..n).map(|_| next_rand(&mut rng) % (1 << 31)).collect()
}

/// Register `sketch` as `version` of `tenant`, then publish it.
fn register_and_publish(
    registry: &Registry,
    catalog: &SketchCatalog,
    (tenant, dataset): &(TenantId, DatasetId),
    sketch: QuantileSketch<u64>,
    version: u64,
) -> NetResult<()> {
    registry
        .write()
        .insert((tenant.to_string(), version), Arc::new(sketch.clone()));
    let assigned = catalog.publish(tenant, dataset, sketch)?;
    if assigned != version {
        return Err(NetError::Protocol(format!(
            "expected to publish version {version} of {tenant}, catalog assigned {assigned}"
        )));
    }
    Ok(())
}

/// Seed the TTL probe tenant on `catalog` with a short `max_age` and a
/// refresh hook that re-ingests through a real [`RefreshPool`].  The hook
/// registers each new version before handing it back for publication, so
/// the watcher can byte-verify across the refresh boundary.
fn start_ttl_probe(
    spec: &LoadSpec,
    config: OpaqConfig,
    catalog: &Arc<SketchCatalog>,
    registry: &Arc<Registry>,
    ttl: Duration,
) -> NetResult<Arc<RefreshPool>> {
    const PROBE_STREAM: u64 = u64::MAX / 2;
    let keys = spec.keys_per_tenant.min(20_000);
    let seed = spec.seed;
    let build = move |round: u64| -> opaq_serve::ServeResult<QuantileSketch<u64>> {
        let mut inc = IncrementalOpaq::new(config)?;
        inc.add_run(chunk(seed, PROBE_STREAM, round, keys))?;
        Ok(inc.into_sketch().expect("a non-empty run was added"))
    };
    let id = (TenantId::new(TTL_TENANT), DatasetId::new("events"));
    register_and_publish(registry, catalog, &id, build(0)?, 1)?;
    catalog.set_ttl(&id.0, &id.1, Some(ttl))?;

    let pool = Arc::new(RefreshPool::new(Arc::clone(catalog), 1, None)?);
    let weak_pool = Arc::downgrade(&pool);
    let weak_catalog = Arc::downgrade(catalog);
    let registry = Arc::clone(registry);
    let rounds = Arc::new(AtomicU64::new(0));
    catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
        let Some(pool) = weak_pool.upgrade() else {
            return false;
        };
        let (weak_catalog, registry, rounds) = (
            weak_catalog.clone(),
            Arc::clone(&registry),
            Arc::clone(&rounds),
        );
        let (t, d) = (tenant.clone(), dataset.clone());
        pool.submit(tenant, dataset, move || {
            let sketch = build(rounds.fetch_add(1, Ordering::Relaxed) + 1)?;
            // Only this pool refreshes the probe, and the catalog fires at
            // most one in-flight refresh per entry, so `current + 1` is
            // exactly the version publish will assign.
            if let Some(catalog) = weak_catalog.upgrade() {
                let version = catalog.snapshot(&t, &d)?.version + 1;
                registry
                    .write()
                    .insert((t.to_string(), version), Arc::new(sketch.clone()));
            }
            Ok(sketch)
        })
        .is_ok()
    }));
    Ok(pool)
}

/// A temporary catalog data directory, removed on every exit path.
struct TempDataDir(Option<PathBuf>);

impl Drop for TempDataDir {
    fn drop(&mut self) {
        if let Some(dir) = self.0.take() {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// One running secondary: its server plus the delta poller keeping its
/// catalog current.
struct Secondary {
    server: HttpServer,
    replicator: Replicator,
}

impl Secondary {
    /// Bootstrap a fresh catalog from `primary` and serve it on an
    /// ephemeral port.  Returns the runtime and its address.
    fn start(
        primary: &str,
        config: &ServerConfig,
        stats: &Arc<ReplicationStats>,
    ) -> NetResult<(Self, String)> {
        let catalog = Arc::new(SketchCatalog::unbounded());
        bootstrap(&catalog, primary, Some(stats), None)?;
        let server = HttpServer::start(Arc::new(QueryEngine::new(Arc::clone(&catalog))), {
            let mut config = config.clone();
            config.addr = "127.0.0.1:0".into();
            config
        })?;
        let addr = server.local_addr().to_string();
        let replicator = Replicator::start(
            catalog,
            primary.to_string(),
            SYNC_POLL,
            Some(Arc::clone(stats)),
            Some(Arc::clone(server.telemetry().recorder())),
        );
        Ok((Self { server, replicator }, addr))
    }

    /// Poller first (it dials the primary), then the server.
    fn shutdown(mut self) {
        self.replicator.shutdown();
        self.server.shutdown();
    }
}

/// A running fleet: per-group primaries, secondaries and chaos proxies.
struct Fleet {
    ring: Arc<HashRing>,
    chaos: bool,
    stats: Arc<ReplicationStats>,
    /// Per-group server config: ring membership and replication stats.
    configs: Vec<ServerConfig>,
    primaries: Vec<HttpServer>,
    secondaries: Vec<Vec<Secondary>>,
    /// Per group, one proxy per replica in routing order (empty without
    /// chaos).
    proxies: Vec<Vec<ChaosProxy>>,
    /// Per group, what clients dial: the proxies, else the replicas.
    client_addrs: Vec<Vec<String>>,
}

impl Fleet {
    /// Reserve an ephemeral loopback port per group primary, so the ring
    /// carries real dialable addresses before any server starts (every
    /// server loads the ring, and the scatter hook dials its addresses).
    fn ring(groups: usize) -> NetResult<(Arc<HashRing>, Vec<std::net::TcpListener>)> {
        let mut listeners = Vec::with_capacity(groups);
        let mut configs = Vec::with_capacity(groups);
        for g in 0..groups {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            configs.push(GroupConfig {
                name: format!("group-{g}"),
                addrs: vec![listener.local_addr()?.to_string()],
            });
            listeners.push(listener);
        }
        Ok((
            Arc::new(HashRing::new(RingConfig::new(configs))?),
            listeners,
        ))
    }

    /// Start every group over its seeded catalog of record: primaries on
    /// their reserved ports, then the secondaries bootstrapped from them,
    /// then (with chaos) one proxy per replica.
    fn start(
        spec: &LoadSpec,
        ring: Arc<HashRing>,
        reserved: Vec<std::net::TcpListener>,
        catalogs: &[Arc<SketchCatalog>],
    ) -> NetResult<Self> {
        let Topology::Fleet {
            replicas, chaos, ..
        } = spec.topology
        else {
            unreachable!("only fleet topologies start a fleet")
        };
        let stats = ReplicationStats::new();
        let mut fleet = Fleet {
            ring: Arc::clone(&ring),
            chaos,
            stats: Arc::clone(&stats),
            configs: Vec::new(),
            primaries: Vec::new(),
            secondaries: Vec::new(),
            proxies: Vec::new(),
            client_addrs: Vec::new(),
        };
        for ((group, listener), catalog) in ring.groups().iter().zip(reserved).zip(catalogs) {
            let mut config = ServerConfig {
                // Every client holds a keep-alive connection per replica,
                // coordinators open scatter connections, secondaries poll.
                workers: ServerConfig::default()
                    .workers
                    .max(spec.clients * 2 + replicas + 4),
                ring: Some(Arc::new(RingMembership::new((*ring).clone(), &group.name)?)),
                replication: Some(Arc::clone(&stats)),
                ..ServerConfig::default()
            };
            config.addr = group.addrs[0].clone();
            drop(listener);
            let primary = start_on_reserved(catalog, &config)?;
            let primary_addr = primary.local_addr().to_string();
            fleet.primaries.push(primary);
            // Secondaries lead the routing order, so sticky clients prefer
            // the replica a chaos run kills; the primary anchors the tail.
            let mut serving = Vec::with_capacity(replicas);
            let mut secondaries = Vec::with_capacity(replicas - 1);
            for _ in 1..replicas {
                let (secondary, addr) = Secondary::start(&primary_addr, &config, &stats)?;
                secondaries.push(secondary);
                serving.push(addr);
            }
            serving.push(primary_addr);
            fleet.secondaries.push(secondaries);
            fleet.configs.push(config);
            let g = fleet.proxies.len();
            let mut proxies = Vec::new();
            if chaos {
                for (i, upstream) in serving.iter().enumerate() {
                    let defaults = ChaosConfig::default();
                    let seed = defaults
                        .seed
                        .wrapping_add(0x9e37 * ((g * 64 + i) as u64 + 1));
                    let proxy = ChaosProxy::start(
                        upstream.clone(),
                        ChaosConfig { seed, ..defaults },
                        Some(Arc::clone(&stats)),
                    )?;
                    proxies.push(proxy);
                }
                serving = proxies.iter().map(|p| p.local_addr().to_string()).collect();
            }
            fleet.proxies.push(proxies);
            fleet.client_addrs.push(serving);
        }
        Ok(fleet)
    }

    /// A ring-routed client over every group, dialing through the proxies.
    fn client(&self) -> NetResult<RoutedFleet> {
        let config = ReplicaConfig::builder()
            // Short cooldown: a run sees the full open → half-open → closed
            // breaker arc.
            .breaker(BreakerConfig {
                cooldown: Duration::from_millis(150),
                ..BreakerConfig::default()
            })
            .probe_interval(Duration::from_millis(20));
        // Under chaos, short deadlines make a faulted response die to its
        // timeout and fail over instead of stalling the op; a fault-free
        // fleet keeps the plain client's generous ones.
        let config = if self.chaos {
            config.build()?
        } else {
            config
                .read_timeout(Duration::from_secs(10))
                .connect_timeout(Duration::from_secs(2))
                .build()?
        };
        Ok(
            RoutedFleet::new(Arc::clone(&self.ring), &self.client_addrs, &config)?
                .with_stats(Arc::clone(&self.stats)),
        )
    }

    /// Tear down in dependency order — secondaries (their pollers dial the
    /// primaries), proxies, primaries — and return the chaos tallies and the
    /// primaries' slowest requests.
    fn shutdown(self) -> (ChaosCounters, String) {
        self.secondaries
            .into_iter()
            .flatten()
            .for_each(Secondary::shutdown);
        let mut chaos = ChaosCounters::default();
        for proxy in self.proxies.into_iter().flatten() {
            let c = proxy.counters();
            chaos.drops += c.drops;
            chaos.delays += c.delays;
            chaos.truncates += c.truncates;
            chaos.resets += c.resets;
            chaos.flaps += c.flaps;
            proxy.shutdown();
        }
        let mut slow = Vec::new();
        for mut primary in self.primaries {
            primary.shutdown();
            slow.extend(primary.telemetry().slow().top(3));
        }
        slow.sort_by_key(|e| std::cmp::Reverse(e.duration_nanos));
        let slow_log = slow
            .iter()
            .take(3)
            .map(|e| {
                format!(
                    "slow: trace {} {} — {}\n",
                    e.trace,
                    format_nanos(e.duration_nanos),
                    e.detail
                )
            })
            .collect();
        (chaos, slow_log)
    }
}

/// Bind a server on its reserved address, retrying briefly: the reservation
/// listener was just dropped, so the only contention is another process
/// landing on the port in between.
fn start_on_reserved(catalog: &Arc<SketchCatalog>, config: &ServerConfig) -> NetResult<HttpServer> {
    let engine = Arc::new(QueryEngine::new(Arc::clone(catalog)));
    let mut last = None;
    for _ in 0..50 {
        match HttpServer::start(Arc::clone(&engine), config.clone()) {
            Ok(server) => return Ok(server),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(last.unwrap_or_else(|| NetError::InvalidConfig("bind retry exhausted".into())))
}

/// The server's routing state over one catalog — what a worker thread
/// hands to [`route`](crate::server::route) — shared by the in-process
/// clients.
struct Router {
    executor: Arc<PlanExecutor>,
    telemetry: Telemetry,
    config: ServerConfig,
}

impl Router {
    /// Built as [`HttpServer::start`] builds its own.
    fn new(catalog: &Arc<SketchCatalog>, config: ServerConfig) -> Self {
        Self {
            executor: Arc::new(
                PlanExecutor::new(Arc::clone(catalog)).with_slo_threshold(config.slo_threshold),
            ),
            telemetry: Telemetry::new(),
            config,
        }
    }
}

/// An in-process client: the HTTP path with only the socket removed.  Each
/// request is framed by the wire client's encoder, parsed by the server's
/// request reader, answered by [`route`](crate::server::route), framed by the server's response
/// writer and parsed back by the wire client's response reader, so its
/// answers are the wire bytes, headers and trace id included.
struct Local {
    router: Arc<Router>,
    /// Stamped on every request until changed, like the wire client's.
    trace: Option<TraceId>,
    /// The framed request, then the framed response; reused across ops.
    bytes: Vec<u8>,
    recv: RecvBuf,
}

impl Local {
    fn new(router: &Arc<Router>) -> Self {
        Self {
            router: Arc::clone(router),
            trace: None,
            bytes: Vec::new(),
            recv: RecvBuf::new(),
        }
    }

    /// One request — a `POST` when it has a body, else a `GET` — through
    /// the router.
    fn round_trip(&mut self, target: &str, body: Option<&str>) -> NetResult<FailoverResponse> {
        let method = if body.is_some() { "POST" } else { "GET" };
        let router = &*self.router;
        self.bytes.clear();
        encode_request(
            &mut self.bytes,
            method,
            target,
            "in-process",
            self.trace,
            body,
        );
        let request = read_request(
            &mut self.recv,
            &mut self.bytes.as_slice(),
            &router.config.limits,
        )
        .map_err(|e| NetError::Protocol(format!("in-process request: {e}")))?;
        // As at the server's front door: echo the stamped id, else mint one.
        let trace = request
            .header(TRACE_HEADER)
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::mint);
        let sink = TraceSink::new(Arc::clone(router.telemetry.recorder()), trace);
        let response = respond(
            &router.executor,
            &router.config,
            &router.telemetry,
            &sink,
            &request,
        );
        // `write_to` frames the response into `bytes`; the socket's copy
        // of them is discarded.
        response.write_to(
            &mut std::io::sink(),
            &mut self.bytes,
            request.wants_keep_alive(),
            trace,
        )?;
        Ok(FailoverResponse {
            response: read_response(&mut self.recv, &mut self.bytes.as_slice())?,
            replica: String::new(),
            degraded: false,
        })
    }
}

/// What one client thread drives.
enum Client {
    /// The router over the in-process catalog, without the socket.
    Local(Local),
    /// A ring-routed HTTP client over the fleet.
    Wire(RoutedFleet),
}

impl Client {
    /// Run a fleet's due health probes and stamp a fresh trace id.
    fn begin_op(&mut self) -> TraceId {
        let trace = TraceId::mint();
        match self {
            Client::Local(local) => local.trace = Some(trace),
            Client::Wire(fleet) => {
                fleet.maybe_probe();
                fleet.set_trace_id(Some(trace));
            }
        }
        trace
    }

    /// Issue one single-target request.
    fn send(
        &mut self,
        (tenant, dataset): &(TenantId, DatasetId),
        request: &QueryRequest,
        misroute: bool,
    ) -> NetResult<FailoverResponse> {
        let (target, body) = wire_form(tenant.as_str(), dataset.as_str(), request);
        match self {
            Client::Local(local) => local.round_trip(&target, body.as_deref()),
            Client::Wire(fleet) => fleet.send(tenant.as_str(), &target, body.as_deref(), misroute),
        }
    }

    /// Run one `/v1/query` plan.
    fn plan(&mut self, plan: &str) -> NetResult<FailoverResponse> {
        let mut body = String::from("{\"plan\":");
        write_escaped(&mut body, plan);
        body.push('}');
        match self {
            Client::Local(local) => local.round_trip("/v1/query", Some(&body)),
            Client::Wire(fleet) => fleet.post_plan(&body),
        }
    }

    /// Trace and (on a fleet) ownership checks for an answer.
    fn checks(
        &self,
        tenant: Option<&str>,
        response: &ClientResponse,
        stamped: Option<TraceId>,
    ) -> (bool, bool) {
        let owned = match (self, tenant) {
            (Client::Wire(fleet), Some(tenant)) if response.status == 200 => {
                let owner = &fleet.ring().groups()[fleet.owner_index(tenant)].name;
                response.header(OWNER_HEADER) == Some(owner.as_str())
            }
            _ => true,
        };
        (trace_ok(response, stamped), owned)
    }

    fn stats(&self) -> ClientStats {
        match self {
            Client::Local(..) => ClientStats::default(),
            Client::Wire(fleet) => fleet.client_stats(),
        }
    }
}

/// Run-wide outcome counters, shared by every thread.
#[derive(Default)]
struct Tally {
    claimed: AtomicU64,
    plan_ops: AtomicU64,
    verified: AtomicU64,
    plan_verified: AtomicU64,
    torn: AtomicU64,
    mis_owned: AtomicU64,
    http_errors: AtomicU64,
    plan_errors: AtomicU64,
    sheds: AtomicU64,
    unanswered: AtomicU64,
    degraded: AtomicU64,
    trace_violations: AtomicU64,
    refreshes: AtomicU64,
    probe_polls: AtomicU64,
    non_fresh: AtomicU64,
    ttl_bumps: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

/// Which leg of the workload an answer belongs to.
#[derive(Clone, Copy)]
enum Leg {
    Single,
    Plan,
    Probe,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Tally {
    fn count(&self, verdict: Verdict, leg: Leg) {
        bump(match (verdict, leg) {
            (Verdict::Verified, Leg::Single) => &self.verified,
            (Verdict::Verified, Leg::Plan) => &self.plan_verified,
            (Verdict::Verified, Leg::Probe) => &self.probe_polls,
            (Verdict::Torn, _) => &self.torn,
            (Verdict::Shed, _) => &self.sheds,
            (Verdict::HttpError, Leg::Plan) => &self.plan_errors,
            (Verdict::HttpError, _) => &self.http_errors,
        });
    }

    fn checked(&self, (traced, owned): (bool, bool)) {
        if !traced {
            bump(&self.trace_violations);
        }
        if !owned {
            bump(&self.mis_owned);
        }
    }
}

/// The op-index-keyed chaos schedule: the phase a client must see before
/// running op `claimed`.  The monkey stores each phase with `Release` after
/// the kill or restart completes and clients load it with `Acquire`, so a
/// client past a mark always finds the victim down (or back).
const VICTIM_UP: u8 = 0;
const VICTIM_DOWN: u8 = 1;
const VICTIM_BACK: u8 = 2;
const MONKEY_GONE: u8 = 3;

fn phase_needed(op: u64, total: u64) -> u8 {
    if op >= total / 2 {
        VICTIM_BACK
    } else if op >= total / 4 {
        VICTIM_DOWN
    } else {
        VICTIM_UP
    }
}

/// Block until `cond` holds or `stop` is set; `true` means `cond` held.
fn wait_until(stop: &AtomicBool, cond: impl Fn() -> bool) -> bool {
    while !cond() {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Keep the first failure of a joined thread.
fn note<T>(
    first_error: &mut Option<NetError>,
    joined: std::thread::Result<NetResult<T>>,
    who: &str,
) -> Option<T> {
    let error = match joined {
        Ok(Ok(value)) => return Some(value),
        Ok(Err(e)) => e,
        Err(_) => NetError::Protocol(format!("{who} thread panicked")),
    };
    first_error.get_or_insert(error);
    None
}

/// Run `spec` end to end and report what it observed.  See the module docs
/// for the topologies and the verification discipline.
///
/// # Errors
/// Configuration, socket and serving-layer errors.  Torn, mis-owned and
/// unanswered ops are *reported*, not errors — the caller decides which
/// non-zero counts are fatal.
pub fn run_load(spec: &LoadSpec) -> NetResult<LoadReport> {
    spec.validate()?;
    let config = OpaqConfig::builder()
        .run_length(spec.run_length)
        .sample_size(spec.sample_size.min(spec.run_length))
        .build()?;

    // Declared first, dropped last: the data directory outlives the catalog.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let data_dir = TempDataDir(spec.budget_sample_points.map(|_| {
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("opaq-load-{}-{run}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok(); // a leftover would replay as history
        dir
    }));
    let ring = match spec.topology {
        Topology::InProcess => None,
        Topology::Fleet { groups, .. } => Some(Fleet::ring(groups)?),
    };
    let groups = ring.as_ref().map_or(1, |(ring, _)| ring.groups().len());
    let owner_of = |tenant: &str| {
        ring.as_ref()
            .map_or(0, |(ring, _)| ring.owner_index(tenant))
    };
    let mut catalog_config = CatalogConfig::builder();
    if let (Some(budget), Some(dir)) = (spec.budget_sample_points, &data_dir.0) {
        catalog_config = catalog_config.budget_sample_points(budget).data_dir(dir);
    }
    let catalog_config = catalog_config.build()?;
    // One catalog of record per group; secondaries replicate from these.
    let catalogs = (0..groups)
        .map(|_| SketchCatalog::new(catalog_config.clone()).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;

    // Version 1 of every tenant, registered first, on its owning group.
    let registry: Arc<Registry> = Arc::new(RwLock::new(HashMap::new()));
    let ids: Vec<(TenantId, DatasetId)> = (0..spec.tenants)
        .map(|i| {
            (
                TenantId::new(format!("tenant-{i}")),
                DatasetId::new("events"),
            )
        })
        .collect();
    let owners: Vec<usize> = ids.iter().map(|(t, _)| owner_of(t.as_str())).collect();
    let mut incrementals = Vec::with_capacity(spec.tenants);
    for (i, id) in ids.iter().enumerate() {
        let mut inc = IncrementalOpaq::new(config)?;
        inc.add_run(chunk(spec.seed, i as u64, 0, spec.keys_per_tenant))?;
        let sketch = inc.sketch().expect("just added a run").clone();
        register_and_publish(&registry, &catalogs[owners[i]], id, sketch, 1)?;
        incrementals.push(inc);
    }
    let pool = match spec.ttl {
        Some(ttl) => Some(start_ttl_probe(
            spec,
            config,
            &catalogs[owner_of(TTL_TENANT)],
            &registry,
            ttl,
        )?),
        None => None,
    };
    let mut fleet = match ring {
        Some((ring, reserved)) => Some(Fleet::start(spec, ring, reserved, &catalogs)?),
        None => None,
    };
    // The kill victim: group 0's leading secondary, owned by the monkey.
    let victim = match &mut fleet {
        Some(fleet) if spec.topology.kills() => Some(fleet.secondaries[0].remove(0)),
        _ => None,
    };
    let router = Arc::new(Router::new(&catalogs[0], ServerConfig::default()));
    let new_client = || -> NetResult<Client> {
        Ok(match &fleet {
            Some(fleet) => Client::Wire(fleet.client()?),
            None => Client::Local(Local::new(&router)),
        })
    };

    // The plan replay target: every main tenant, sorted key order — what an
    // unpartitioned catalog reports.
    let mut expected_sources: Vec<(String, String)> = ids
        .iter()
        .map(|(t, d)| (t.to_string(), d.to_string()))
        .collect();
    expected_sources.sort();
    let tally = Tally::default();
    let group_ops: Vec<AtomicU64> = (0..groups).map(|_| AtomicU64::new(0)).collect();
    let tenant_latency: Vec<LatencyHistogram> =
        (0..spec.tenants).map(|_| LatencyHistogram::new()).collect();
    let latency = LatencyHistogram::new();
    let total_ops = spec.ops_per_client * spec.clients as u64;
    let phase = AtomicU8::new(if victim.is_some() {
        VICTIM_UP
    } else {
        MONKEY_GONE
    });
    let stop = AtomicBool::new(false);
    // Open loop: each client owns every `clients`-th slot of one aggregate
    // fixed-rate schedule, staggered so the fleet sends evenly.
    let interval = spec
        .target_qps
        .map(|qps| Duration::from_secs_f64(spec.clients as f64 / qps));
    let start = Instant::now();

    let run = std::thread::scope(|scope| -> NetResult<(Duration, ClientStats)> {
        // Refresher: fold a new run into every tenant per round and publish
        // it on the owning group, registered first.
        let refresher = scope.spawn(|| -> NetResult<()> {
            for round in 1..=spec.refresh_rounds {
                for (i, id) in ids.iter().enumerate() {
                    let keys = (spec.keys_per_tenant / 4).max(1);
                    let inc = &mut incrementals[i];
                    inc.add_run(chunk(spec.seed, i as u64, round, keys))?;
                    let sketch = inc.sketch().expect("non-empty").clone();
                    register_and_publish(&registry, &catalogs[owners[i]], id, sketch, round + 1)?;
                    bump(&tally.refreshes);
                    // Let reads interleave between publications.
                    std::thread::sleep(Duration::from_micros(300));
                }
            }
            Ok(())
        });

        // TTL watcher: poll the probe tenant, byte-verify, and count the
        // expiry → refresh → publish cycles it can see.
        let watcher = spec.ttl.map(|ttl| {
            let (new_client, tally, registry, stop) = (&new_client, &tally, &registry, &stop);
            scope.spawn(move || -> NetResult<ClientStats> {
                let mut client = new_client()?;
                let id = (TenantId::new(TTL_TENANT), DatasetId::new("events"));
                let request = QueryRequest::Quantile { phi: 0.5 };
                let (mut last, mut expired_at): (Option<u64>, Option<u64>) = (None, None);
                while !stop.load(Ordering::Acquire) {
                    // The watcher never stamps a trace, so this checks the
                    // server's front-door minting path.
                    if let Ok(answer) = client.send(&id, &request, false) {
                        let response = &answer.response;
                        tally.checked(client.checks(Some(TTL_TENANT), response, None));
                        let verdict = verify(TTL_TENANT, &request, response, registry);
                        tally.count(verdict, Leg::Probe);
                        if verdict == Verdict::Verified {
                            let version =
                                response.header(VERSION_HEADER).and_then(|v| v.parse().ok());
                            if response.header(FRESHNESS_HEADER) != Some(Freshness::Fresh.as_str())
                            {
                                bump(&tally.non_fresh);
                                expired_at = version;
                            }
                            // A full cycle: expiry seen at an old version,
                            // then a newer one landed.
                            if expired_at.is_some() && version > last && version > expired_at {
                                bump(&tally.ttl_bumps);
                                expired_at = None;
                            }
                            last = version;
                        }
                    }
                    std::thread::sleep(ttl / 4);
                }
                Ok(client.stats())
            })
        });

        // Chaos monkey: kill the victim once op `total/4` is claimed,
        // restart it (fresh port, fresh bootstrap, proxy repoint) once op
        // `total/2` is claimed; clients past each mark wait for it.
        let monkey = victim.map(|victim| {
            let fleet = fleet.as_ref().expect("a victim implies a fleet");
            let (phase, stop, tally) = (&phase, &stop, &tally);
            scope.spawn(move || -> NetResult<()> {
                let claimed = || get(&tally.claimed);
                let result = (|| {
                    let killing = wait_until(stop, || claimed() > total_ops / 4);
                    victim.shutdown();
                    if !killing {
                        return Ok(());
                    }
                    bump(&tally.kills);
                    phase.store(VICTIM_DOWN, Ordering::Release);
                    if !wait_until(stop, || claimed() > total_ops / 2) {
                        return Ok(());
                    }
                    let primary = fleet.primaries[0].local_addr().to_string();
                    let mut attempts = 0;
                    let replacement = loop {
                        match Secondary::start(&primary, &fleet.configs[0], &fleet.stats) {
                            Ok((secondary, addr)) => {
                                fleet.proxies[0][0].set_upstream(addr);
                                break secondary;
                            }
                            Err(e) if attempts >= 100 => return Err(e),
                            Err(_) => attempts += 1,
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    };
                    bump(&tally.restarts);
                    phase.store(VICTIM_BACK, Ordering::Release);
                    wait_until(stop, || false);
                    replacement.shutdown();
                    Ok(())
                })();
                // Never leave a client waiting on a schedule that ended.
                phase.store(MONKEY_GONE, Ordering::Release);
                result
            })
        });

        let clients: Vec<_> = (0..spec.clients)
            .map(|client_idx| {
                let (tally, phase, registry) = (&tally, &phase, &registry);
                let (ids, owners, expected_sources) = (&ids, &owners, &expected_sources);
                let (latency, tenant_latency, group_ops) = (&latency, &tenant_latency, &group_ops);
                let new_client = &new_client;
                scope.spawn(move || -> NetResult<ClientStats> {
                    let mut client = new_client()?;
                    let mut rng = spec
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client_idx as u64 + 1));
                    let stagger = interval
                        .map(|iv| iv.mul_f64(client_idx as f64 / spec.clients as f64))
                        .unwrap_or_default();
                    for op_idx in 0..spec.ops_per_client {
                        let op = tally.claimed.fetch_add(1, Ordering::Relaxed);
                        while phase.load(Ordering::Acquire) < phase_needed(op, total_ops) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        // `sent` is the scheduled time open loop, the
                        // actual send time closed loop.
                        let sent = match interval {
                            Some(iv) => {
                                let scheduled = start + stagger + iv.mul_f64(op_idx as f64);
                                if let Some(wait) = scheduled.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                scheduled
                            }
                            None => Instant::now(),
                        };
                        let stamped = Some(client.begin_op());
                        if op_idx % 5 == 4 {
                            let (plan, request) = plan_for(&mut rng);
                            bump(&tally.plan_ops);
                            let Ok(answer) = client.plan(&plan) else {
                                bump(&tally.unanswered);
                                continue;
                            };
                            latency.record(sent.elapsed());
                            let response = &answer.response;
                            tally.checked(client.checks(None, response, stamped));
                            let verdict =
                                verify_plan(&request, response, registry, expected_sources);
                            tally.count(verdict, Leg::Plan);
                            continue;
                        }
                        let tenant_idx = (next_rand(&mut rng) % spec.tenants as u64) as usize;
                        let id = &ids[tenant_idx];
                        let request = request_for(&mut rng);
                        bump(&group_ops[owners[tenant_idx]]);
                        let misroute = op_idx % MISROUTE_EVERY == MISROUTE_EVERY - 1;
                        let Ok(answer) = client.send(id, &request, misroute) else {
                            bump(&tally.unanswered);
                            continue;
                        };
                        let elapsed = sent.elapsed();
                        latency.record(elapsed);
                        tenant_latency[tenant_idx].record(elapsed);
                        if answer.degraded {
                            bump(&tally.degraded);
                        }
                        let response = &answer.response;
                        tally.checked(client.checks(Some(id.0.as_str()), response, stamped));
                        tally.count(
                            verify(id.0.as_str(), &request, response, registry),
                            Leg::Single,
                        );
                    }
                    Ok(client.stats())
                })
            })
            .collect();

        // Join defensively: the watcher and monkey loop until `stop`, so
        // every failure is collected, `stop` always set, then reported.
        let mut first_error = None;
        let mut transport = ClientStats::default();
        let mut add = |stats: Option<ClientStats>| {
            if let Some(s) = stats {
                transport.retries += s.retries;
                transport.connect_errors += s.connect_errors;
                transport.timeouts += s.timeouts;
            }
        };
        for client in clients {
            add(note(&mut first_error, client.join(), "client"));
        }
        let wall = start.elapsed();
        // The client phase may be shorter than the probe's TTL: give the
        // watcher a grace window to see one complete cycle, on the happy
        // path only.
        if let (Some(ttl), None) = (spec.ttl, &first_error) {
            let deadline = Instant::now() + (ttl * 30).max(Duration::from_secs(2));
            while get(&tally.ttl_bumps) == 0 && Instant::now() < deadline {
                std::thread::sleep(ttl / 4);
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(watcher) = watcher {
            add(note(&mut first_error, watcher.join(), "watcher"));
        }
        if let Some(monkey) = monkey {
            note(&mut first_error, monkey.join(), "chaos monkey");
        }
        note(&mut first_error, refresher.join(), "refresher");
        match first_error {
            Some(e) => Err(e),
            None => Ok((wall, transport)),
        }
    });

    // Teardown: the fleet first (no more routed requests), then the refresh
    // pool (drains any in-flight re-ingest into the still-live catalog).
    let stats = fleet.as_ref().map(|f| Arc::clone(&f.stats));
    let shares = fleet.as_ref().map_or_else(Vec::new, |fleet| {
        (fleet.ring.groups().iter().enumerate())
            .map(|(g, group)| GroupShare {
                group: group.name.clone(),
                tenants: owners.iter().filter(|&&o| o == g).count() as u64,
                ops: get(&group_ops[g]),
            })
            .collect()
    });
    let (chaos, slow_log) = fleet.map(Fleet::shutdown).unwrap_or_default();
    if let Some(pool) = pool {
        pool.shutdown();
    }
    let (wall, transport) = run?;
    let replicated = |f: fn(&ReplicationStats) -> u64| stats.as_deref().map_or(0, f);
    let report = LoadReport {
        topology: spec.topology,
        ops: get(&tally.claimed),
        plan_ops: get(&tally.plan_ops),
        verified: get(&tally.verified),
        plan_verified: get(&tally.plan_verified),
        torn_reads: get(&tally.torn),
        mis_owned: get(&tally.mis_owned),
        http_errors: get(&tally.http_errors),
        plan_errors: get(&tally.plan_errors),
        sheds: get(&tally.sheds),
        unanswered: get(&tally.unanswered),
        degraded: get(&tally.degraded),
        trace_violations: get(&tally.trace_violations),
        refreshes_published: get(&tally.refreshes),
        probe_polls: get(&tally.probe_polls),
        non_fresh_served: get(&tally.non_fresh),
        ttl_refreshes_observed: get(&tally.ttl_bumps),
        kills: get(&tally.kills),
        restarts: get(&tally.restarts),
        failovers: replicated(ReplicationStats::failovers),
        breaker_opens: replicated(ReplicationStats::breaker_opens),
        sync_deltas_applied: replicated(ReplicationStats::sync_deltas_applied),
        reroutes: replicated(ReplicationStats::reroutes),
        chaos,
        transport,
        shares,
        per_tenant: ids
            .iter()
            .zip(&tenant_latency)
            .map(|((tenant, _), h)| (tenant.to_string(), h.snapshot()))
            .collect(),
        latency: latency.snapshot(),
        wall,
        target_qps: spec.target_qps,
        catalog: catalogs[0].stats(),
        slow_log,
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(topology: Topology) -> LoadSpec {
        LoadSpec {
            topology,
            clients: 3,
            ops_per_client: 60,
            keys_per_tenant: 4_000,
            ..LoadSpec::quick()
        }
    }

    #[test]
    fn in_process_run_verifies_every_answer_and_plan() {
        let report = run_load(&LoadSpec {
            ops_per_client: 100,
            ..LoadSpec::quick()
        })
        .unwrap();
        assert_eq!(report.ops, 4 * 100, "{}", report.render());
        assert_eq!(report.plan_ops, 4 * 100 / 5);
        assert_eq!(report.verified + report.plan_ops, report.ops);
        assert_eq!(report.plan_verified, report.plan_ops);
        assert_eq!(report.torn_reads + report.unanswered, 0);
        assert_eq!(report.trace_violations, 0);
        assert_eq!(report.refreshes_published, 2 * 3);
        assert_eq!(report.per_tenant.len(), 2);
        assert!(report.shares.is_empty());
        let rendered = report.render();
        assert!(rendered.contains("tenant-1"), "{rendered}");
        assert!(rendered.contains("p999"), "{rendered}");
        // The trace check covers every topology, so every report shows it.
        assert!(rendered.contains("| trace violations 0 |"), "{rendered}");
    }

    /// Every endpoint family answers with the same status, headers (the
    /// stamped trace id included) and body bytes in process as a live
    /// server over the same catalog.
    #[test]
    fn in_process_answers_are_the_wire_bytes() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let config = OpaqConfig::builder()
            .run_length(1_000)
            .sample_size(100)
            .build()
            .unwrap();
        for stream in 0..2 {
            let mut inc = IncrementalOpaq::new(config).unwrap();
            inc.add_run(chunk(7, stream, 0, 4_000)).unwrap();
            let (tenant, dataset) = (
                TenantId::new(format!("tenant-{stream}")),
                DatasetId::new("events"),
            );
            catalog
                .publish(&tenant, &dataset, inc.into_sketch().unwrap())
                .unwrap();
        }
        let server = HttpServer::start(
            Arc::new(QueryEngine::new(Arc::clone(&catalog))),
            ServerConfig::default(),
        )
        .unwrap();
        let mut wire = crate::client::HttpClient::new(server.local_addr().to_string());
        let mut local = Local::new(&Arc::new(Router::new(&catalog, ServerConfig::default())));
        let (batch, batch_body) = wire_form(
            "tenant-1",
            "events",
            &QueryRequest::QuantileBatch {
                phis: vec![0.1, 0.5, 0.99],
            },
        );
        let plan = "{\"plan\":\"fetch tenant-*/events | coalesce | quantile 0.25,0.5\"}";
        for (target, body, status) in [
            ("/v1/tenant-0/events/quantile?phi=0.5", None, 200),
            ("/v1/tenant-1/events/rank?key=123456", None, 200),
            ("/v1/tenant-0/events/profile?count=8", None, 200),
            (batch.as_str(), batch_body.as_deref(), 200),
            ("/v1/query", Some(plan), 200),
            ("/v1/nope", None, 404),
            ("/v1/tenant-0/events/quantile?phi=1.5", None, 400),
        ] {
            let trace = TraceId::mint();
            wire.set_trace_id(Some(trace));
            local.trace = Some(trace);
            let over_tcp = match body {
                None => wire.get(target),
                Some(body) => wire.post_json(target, body),
            }
            .unwrap();
            let in_process = local.round_trip(target, body).unwrap().response;
            assert_eq!(in_process.status, status, "{target}");
            assert_eq!(in_process.status, over_tcp.status, "{target}");
            assert_eq!(in_process.headers, over_tcp.headers, "{target}");
            assert_eq!(in_process.body, over_tcp.body, "{target}");
            assert!(trace_ok(&in_process, Some(trace)), "{target}");
        }
    }

    #[test]
    fn in_process_ttl_probe_sees_an_expiry_refresh_cycle() {
        let report = run_load(&LoadSpec {
            ttl: Some(Duration::from_millis(40)),
            ..toy(Topology::InProcess)
        })
        .unwrap();
        assert_eq!(report.torn_reads, 0, "{}", report.render());
        assert!(report.ttl_refreshes_observed >= 1, "{}", report.render());
        assert!(report.catalog.ttl_refreshes >= 1);
    }

    #[test]
    fn open_loop_holds_the_schedule_and_still_verifies() {
        let report = run_load(&LoadSpec {
            ops_per_client: 50,
            refresh_rounds: 1,
            target_qps: Some(2_000.0),
            ..LoadSpec::quick()
        })
        .unwrap();
        assert_eq!(report.torn_reads, 0);
        assert_eq!(report.verified + report.plan_verified, report.ops);
        assert_eq!(report.latency.count, report.ops);
        // 4 clients × 50 ops at 2000 QPS pins the last scheduled send near
        // 98 ms, however fast the answers come back.
        assert!(
            report.wall >= Duration::from_millis(90),
            "{:?}",
            report.wall
        );
        let rendered = report.render();
        assert!(
            rendered.contains("target qps (open loop): 2000"),
            "{rendered}"
        );
    }

    #[test]
    fn chaos_run_pins_the_ops_and_wall_definitions() {
        let spec = toy(Topology::Fleet {
            groups: 1,
            replicas: 2,
            chaos: true,
        });
        let outer = Instant::now();
        let report = run_load(&spec).unwrap();
        let whole_run = outer.elapsed();
        // `ops` is every op attempted; unanswered ones are a subset, and
        // every op ends in exactly one outcome.
        assert_eq!(report.ops, 3 * 60, "{}", report.render());
        assert!(report.unanswered <= report.ops);
        assert_eq!(
            report.verified
                + report.plan_verified
                + report.torn_reads
                + report.http_errors
                + report.plan_errors
                + report.sheds
                + report.unanswered,
            report.ops,
            "{}",
            report.render()
        );
        // `wall` is the client phase: setup and teardown are outside it,
        // and throughput is ops over exactly that window.
        assert!(report.wall < whole_run);
        let expected = report.ops as f64 / report.wall.as_secs_f64();
        assert!((report.throughput() - expected).abs() < 1e-6 * expected);
        assert_eq!(
            (report.kills, report.restarts),
            (1, 1),
            "{}",
            report.render()
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let fleet = |groups, replicas| Topology::Fleet {
            groups,
            replicas,
            chaos: false,
        };
        for spec in [
            LoadSpec {
                clients: 0,
                ..LoadSpec::quick()
            },
            LoadSpec {
                ops_per_client: 0,
                ..LoadSpec::quick()
            },
            LoadSpec {
                target_qps: Some(0.0),
                ..LoadSpec::quick()
            },
            LoadSpec {
                target_qps: Some(f64::NAN),
                ..LoadSpec::quick()
            },
            LoadSpec {
                ttl: Some(Duration::ZERO),
                ..LoadSpec::quick()
            },
            LoadSpec {
                topology: fleet(0, 1),
                ..LoadSpec::quick()
            },
            LoadSpec {
                topology: fleet(1, 0),
                ..LoadSpec::quick()
            },
            LoadSpec {
                topology: fleet(1, 1),
                budget_sample_points: Some(100),
                ..LoadSpec::quick()
            },
            LoadSpec {
                topology: fleet(2, 2),
                ttl: Some(Duration::from_millis(100)),
                ..LoadSpec::quick()
            },
        ] {
            assert!(
                matches!(run_load(&spec), Err(NetError::InvalidConfig(_))),
                "{spec:?}"
            );
        }
        assert!(LoadSpec {
            topology: fleet(2, 1),
            ttl: Some(Duration::from_millis(100)),
            ..LoadSpec::quick()
        }
        .validate()
        .is_ok());
    }
}
