//! The HTTP server: a bounded accept/worker pool over
//! `std::net::TcpListener`, routing every request through [`route`] to one
//! shared `opaq_query::PlanExecutor`, which answers and accounts every plan.
//!
//! ## Threading model
//!
//! One accept thread blocks in `accept` on the listener and hands accepted
//! connections to a **bounded** channel feeding `workers` handler threads.
//! A full queue answers **503** and closes instead of buffering unboundedly
//! — the back-pressure story mirrors the bounded crossbeam channels of the
//! sharded ingest path.  Each handler owns its connection for the duration:
//! keep-alive serves up to [`ServerConfig::keep_alive_max_requests`]
//! requests per connection, with a read timeout per request and an idle
//! timeout between requests (both shutdown-aware).
//!
//! Per connection a handler keeps one receive buffer and one output
//! buffer, both reused across keep-alive requests.  The idle wait is a
//! `read` into the receive buffer — the bytes that end it are the request —
//! and every response leaves in one `write`.  The socket's read timeout is
//! the short idle poll while waiting, and is switched to
//! [`ServerConfig::read_timeout`] only when a request is still incomplete
//! after the bytes that ended the wait.
//!
//! ## Shutdown ordering
//!
//! [`HttpServer::shutdown`] mirrors the refresh pool's drain-then-join
//! discipline: stop accepting (set the flag, wake the blocked `accept`
//! with one loopback connection, join the accept thread), close the
//! connection queue, then join the handlers — which finish their in-flight
//! request, announce `connection: close`, and exit.  When `shutdown`
//! returns, no thread will touch the executor or catalog again, so a caller
//! tearing down "HTTP server → refresh pool → catalog" gets a quiescent
//! stack at every step.

use crate::client::HttpClient;
use crate::http::{read_request, ParseError, ReadLimits, RecvBuf, Request, Response};
use crate::json::{write_escaped, write_f64};
use crate::replica::ReplicationStats;
use crate::ring::RingMembership;
use crate::{NetError, NetResult};
use crossbeam::channel;
use opaq_core::QuantileEstimate;
use opaq_metrics::trace::{
    render_span_tree, SlowLog, SpanRecorder, SpanTag, Stage, TraceId, TraceSink, ROOT_SPAN_ID,
};
use opaq_metrics::{Counter, Gauge, MetricRegistry};
use opaq_query::{
    PlanExecutor, PlanResponse, QueryError, QueryPlan, RemotePartial, ScatterFn, Selector,
};
use opaq_serve::{
    DatasetId, Freshness, QueryEngine, QueryOutput, QueryRequest, QueryResponse, ServeError,
    SketchCatalog, TenantId,
};
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Response header carrying the sketch version that answered.
pub const VERSION_HEADER: &str = "x-opaq-version";
/// Response header carrying the TTL status (`fresh|stale|refreshing`).
pub const FRESHNESS_HEADER: &str = "x-opaq-freshness";
/// Response header carrying the number of catalog entries a plan fused.
pub const SOURCES_HEADER: &str = "x-opaq-sources";
/// Request/response header carrying the request's trace id (16 hex digits).
/// Present on **every** response the server writes — success, error, parse
/// failure, and 503 shed alike; an id sent by the client is propagated,
/// otherwise one is minted at the front door.
pub const TRACE_HEADER: &str = "x-opaq-trace-id";
/// Response header naming the replica group that owns the addressed tenant.
/// A ring-configured server stamps it on **every** response: its own group
/// name normally, or — on a typed `wrong_owner` answer — the group the
/// misdirected request should have gone to.
pub const OWNER_HEADER: &str = "x-opaq-owner";

const STAGE_HELP: &str = "Span durations per trace stage (cumulative histogram, nanoseconds); \
     stage=\"request\" is the root span of every answered or shed request.";
const LAT_HELP: &str = "Per-tenant plan latency quantile summary (nanoseconds).";
const CNT_HELP: &str = "Plans answered per tenant.";
/// Spans the trace ring holds.
const SPAN_CAPACITY: usize = 4096;
/// Requests the slow-query log keeps (the slowest, over a zero threshold).
const SLOW_CAPACITY: usize = 32;

/// Shared observability state of one serving process: the span ring behind
/// `/v1/_debug/trace`, the slow-query log behind `/v1/_debug/slow`, and the
/// [`MetricRegistry`] rendered by `/metrics`.
///
/// Construct one (or let [`HttpServer::start`] build a default), share it
/// via [`ServerConfigBuilder::telemetry`], and read it back after shutdown
/// for the CLI banner.  All metric families the server exports are
/// registered up front — in [`Telemetry::new`] and [`Telemetry::bind`] — so
/// the exposition schema is identical from the very first scrape.
pub struct Telemetry {
    recorder: Arc<SpanRecorder>,
    slow: Arc<SlowLog>,
    registry: Arc<MetricRegistry>,
    requests: Counter,
    parse_errors: Counter,
    sheds: Counter,
    spans_recorded: Counter,
    spans_dropped: Counter,
    slow_entries: Gauge,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_recorded", &self.recorder.recorded())
            .field("slow_entries", &self.slow.len())
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A 4096-slot span ring and a 32-entry slow log with a zero admission
    /// threshold (the log simply keeps the 32 slowest).
    pub fn new() -> Self {
        let registry = Arc::new(MetricRegistry::new());
        let requests = registry.counter("opaq_http_requests", "Requests answered (any status).");
        let parse_errors = registry.counter(
            "opaq_http_parse_errors",
            "Requests rejected because they could not be parsed.",
        );
        let sheds = registry.counter(
            "opaq_http_sheds",
            "Connections answered 503 by the bounded accept queue.",
        );
        let spans_recorded = registry.counter(
            "opaq_trace_spans_recorded",
            "Spans written into the trace ring (including since-overwritten ones).",
        );
        let spans_dropped = registry.counter(
            "opaq_trace_spans_dropped",
            "Spans dropped because every probed ring slot was mid-write.",
        );
        let slow_entries = registry.gauge(
            "opaq_slow_log_entries",
            "Entries currently held by the slow-query log.",
        );
        Self {
            recorder: Arc::new(SpanRecorder::new(SPAN_CAPACITY)),
            slow: Arc::new(SlowLog::new(SLOW_CAPACITY, Duration::ZERO)),
            registry,
            requests,
            parse_errors,
            sheds,
            spans_recorded,
            spans_dropped,
            slow_entries,
        }
    }

    /// The span ring requests record into.
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// The top-N slow-query log.
    pub fn slow(&self) -> &Arc<SlowLog> {
        &self.slow
    }

    /// The metric registry `/metrics` renders.
    pub fn registry(&self) -> &Arc<MetricRegistry> {
        &self.registry
    }

    /// Register the span-fed per-stage histograms, the per-tenant families
    /// and every catalog/replication scalar, and seed their first values.
    /// Called once by [`HttpServer::start`]; idempotent (re-binding fetches
    /// the existing series).
    pub fn bind(
        &self,
        executor: &PlanExecutor,
        replication: Option<&Arc<ReplicationStats>>,
        ring: Option<&RingMembership>,
    ) {
        for stage in Stage::ALL {
            self.registry.histogram_with(
                "opaq_stage_duration_nanos",
                STAGE_HELP,
                &[("stage", stage.as_str())],
                self.recorder.histogram(stage),
            );
        }
        self.registry
            .declare_gauge("opaq_request_latency_nanos", LAT_HELP);
        self.registry
            .declare_counter("opaq_request_count", CNT_HELP);
        self.update(executor, replication, ring);
    }

    /// Mirror every scalar whose source of truth lives outside the registry
    /// (the executor's per-tenant quantile summaries and SLO breaches,
    /// catalog stats, replication counters, trace-ring tallies) into their
    /// registered series.  Called on each `/metrics` scrape.
    pub fn update(
        &self,
        executor: &PlanExecutor,
        replication: Option<&Arc<ReplicationStats>>,
        ring: Option<&RingMembership>,
    ) {
        self.spans_recorded.set(self.recorder.recorded());
        self.spans_dropped.set(self.recorder.dropped());
        self.slow_entries.set(self.slow.len() as u64);

        for (tenant, snap) in executor.latency_report() {
            for (q, value) in [("p50", snap.p50), ("p99", snap.p99), ("p999", snap.p999)] {
                self.registry
                    .gauge_with(
                        "opaq_request_latency_nanos",
                        LAT_HELP,
                        &[("tenant", tenant.as_str()), ("quantile", q)],
                    )
                    .set(value.as_nanos().min(u64::MAX as u128) as u64);
            }
            self.registry
                .counter_with(
                    "opaq_request_count",
                    CNT_HELP,
                    &[("tenant", tenant.as_str())],
                )
                .set(snap.count);
        }

        let stats = executor.catalog().stats();
        for (name, help, value) in [
            (
                "opaq_catalog_publishes",
                "Sketch versions published.",
                stats.publishes,
            ),
            (
                "opaq_catalog_snapshots",
                "Snapshot reads served.",
                stats.snapshots,
            ),
            (
                "opaq_catalog_evictions",
                "Entries spilled to disk by the resident budget.",
                stats.evictions,
            ),
            (
                "opaq_catalog_reloads",
                "Spilled entries reloaded on the query path.",
                stats.reloads,
            ),
            (
                "opaq_catalog_spill_failures",
                "Spill attempts that failed.",
                stats.spill_failures,
            ),
            (
                "opaq_catalog_stale_snapshots",
                "Snapshots served past their TTL.",
                stats.stale_snapshots,
            ),
            (
                "opaq_catalog_ttl_refreshes",
                "Expired entries routed to the refresh hook.",
                stats.ttl_refreshes,
            ),
            (
                "opaq_catalog_recoveries",
                "Catalog recoveries replayed from the manifest.",
                stats.recoveries,
            ),
            (
                "opaq_manifest_records",
                "Records appended to the write-ahead manifest.",
                stats.manifest_records,
            ),
            (
                "opaq_catalog_orphan_spills_removed",
                "Orphan spill files deleted during recovery.",
                stats.orphan_spills_removed,
            ),
            (
                "opaq_slo_breaches",
                "Plans over the configured SLO threshold.",
                executor.slo_breaches(),
            ),
        ] {
            self.registry.counter(name, help).set(value);
        }
        for (name, help, value) in [
            (
                "opaq_catalog_entries",
                "Entries currently published.",
                stats.entries,
            ),
            (
                "opaq_catalog_resident_sample_points",
                "Sample points currently resident in memory.",
                stats.resident_sample_points,
            ),
        ] {
            self.registry.gauge(name, help).set(value);
        }

        // Replication/failover: always present (zeros for a standalone
        // server) so dashboards and tests never branch on topology.
        let (failovers, breaker_opens, deltas, faults, reroutes, breaker_sum, per_peer) =
            replication
                .map(|r| {
                    (
                        r.failovers(),
                        r.breaker_opens(),
                        r.sync_deltas_applied(),
                        r.chaos_faults_injected(),
                        r.reroutes(),
                        r.breaker_state_sum(),
                        r.breaker_states(),
                    )
                })
                .unwrap_or((0, 0, 0, 0, 0, 0, Vec::new()));
        for (name, help, value) in [
            (
                "opaq_failovers",
                "Requests answered by a non-preferred replica.",
                failovers,
            ),
            (
                "opaq_breaker_opens",
                "Circuit-breaker transitions into the open state.",
                breaker_opens,
            ),
            (
                "opaq_sync_deltas_applied",
                "Catalog entries applied from a peer.",
                deltas,
            ),
            (
                "opaq_chaos_faults_injected",
                "Faults injected by the chaos proxy.",
                faults,
            ),
            (
                "opaq_reroutes",
                "Requests re-routed to their owning group after a wrong_owner answer.",
                reroutes,
            ),
        ] {
            self.registry.counter(name, help).set(value);
        }
        const BREAKER_HELP: &str =
            "Breaker state (0 closed, 1 open, 2 half-open); unlabeled series is the sum.";
        self.registry
            .gauge("opaq_replica_breaker_state", BREAKER_HELP)
            .set(breaker_sum);
        for (peer, gauge) in per_peer {
            self.registry
                .gauge_with(
                    "opaq_replica_breaker_state",
                    BREAKER_HELP,
                    &[("peer", &peer)],
                )
                .set(gauge);
        }

        // Ring ownership: how many distinct tenants in the catalog this
        // group owns per the ring.  Zero (and equal to zero forever) on a
        // ring-less server, so the exposition schema is topology-stable.
        let tenants_owned = ring.map_or(0, |membership| {
            let mut seen: Vec<String> = Vec::new();
            for entry in executor.catalog().inventory() {
                if membership.owns(&entry.tenant) && !seen.contains(&entry.tenant) {
                    seen.push(entry.tenant.clone());
                }
            }
            seen.len() as u64
        });
        self.registry
            .gauge(
                "opaq_ring_tenants_owned",
                "Distinct catalog tenants owned by this replica group per the hash ring.",
            )
            .set(tenants_owned);
    }
}

/// Tunables of one [`HttpServer`].
///
/// Marked `#[non_exhaustive]`: construct it with [`ServerConfig::builder`]
/// (or start from [`ServerConfig::default`]), so knobs can be added later
/// without breaking downstream construction sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-handler threads (the accept pool bound).
    pub workers: usize,
    /// Accepted-but-unhandled connections the queue holds before the accept
    /// thread answers 503 and closes.
    pub accept_backlog: usize,
    /// Requests served per connection before the server closes it.
    pub keep_alive_max_requests: u32,
    /// Timeout for reading one request once its first byte arrived.
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection may wait for its next request.
    pub keep_alive_idle: Duration,
    /// Request parsing limits (header/body caps).
    pub limits: ReadLimits,
    /// Shared replication/failover counters to expose via `/metrics`
    /// (`None` for a standalone server: the gauges render as zeros).
    pub replication: Option<Arc<ReplicationStats>>,
    /// This server's ring membership on a consistent-hash partitioned
    /// fleet.  `None` (the default) serves every tenant, unpartitioned.
    /// With a membership: single-tenant requests for tenants another group
    /// owns get a typed `wrong_owner` 421, every response carries
    /// [`OWNER_HEADER`], and glob plans scatter to peer groups so coalesced
    /// answers stay byte-identical to an unpartitioned catalog.
    pub ring: Option<Arc<RingMembership>>,
    /// Shared observability state (span ring, slow log, metric registry).
    /// `None` lets the server build a default-sized one; supply your own to
    /// read traces and slow-log summaries back after shutdown.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Per-plan latency SLO armed on the server's executor: every answered
    /// plan slower than this counts in `opaq_slo_breaches`.  `None` (the
    /// default) arms none.
    pub slo_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            accept_backlog: 64,
            keep_alive_max_requests: 1_000,
            read_timeout: Duration::from_secs(5),
            keep_alive_idle: Duration::from_secs(10),
            limits: ReadLimits::default(),
            replication: None,
            ring: None,
            telemetry: None,
            slo_threshold: None,
        }
    }
}

impl ServerConfig {
    /// Start building a validated configuration (from the defaults).
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }
}

/// Builder for [`ServerConfig`] — see [`ServerConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Connection-handler threads (must be at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Accepted-but-unhandled connections queued before shedding with 503.
    /// Zero is valid: every connection not immediately claimed by a worker
    /// is shed (useful for overload tests).
    pub fn accept_backlog(mut self, backlog: usize) -> Self {
        self.config.accept_backlog = backlog;
        self
    }

    /// Requests served per connection before closing (must be positive).
    pub fn keep_alive_max_requests(mut self, max: u32) -> Self {
        self.config.keep_alive_max_requests = max;
        self
    }

    /// Timeout for reading one request (must be non-zero).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Idle deadline between keep-alive requests (must be non-zero).
    pub fn keep_alive_idle(mut self, idle: Duration) -> Self {
        self.config.keep_alive_idle = idle;
        self
    }

    /// Request parsing limits (header/body caps).
    pub fn limits(mut self, limits: ReadLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Attach shared replication/failover counters for `/metrics`.
    pub fn replication(mut self, stats: Arc<ReplicationStats>) -> Self {
        self.config.replication = Some(stats);
        self
    }

    /// Join a consistent-hash partitioned fleet as a member of one replica
    /// group (see [`ServerConfig::ring`]).
    pub fn ring(mut self, membership: Arc<RingMembership>) -> Self {
        self.config.ring = Some(membership);
        self
    }

    /// Attach shared observability state (span ring, slow log, registry).
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.config.telemetry = Some(telemetry);
        self
    }

    /// Arm (or, with `None`, leave disarmed) the per-plan latency SLO (see
    /// [`ServerConfig::slo_threshold`]).
    pub fn slo_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.config.slo_threshold = threshold;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for zero workers, a zero keep-alive
    /// request cap, or zero timeouts — all of which would make the server
    /// accept connections it can never answer.
    pub fn build(self) -> NetResult<ServerConfig> {
        if self.config.workers == 0 {
            return Err(NetError::InvalidConfig(
                "the server needs at least one worker".into(),
            ));
        }
        if self.config.keep_alive_max_requests == 0 {
            return Err(NetError::InvalidConfig(
                "keep_alive_max_requests must be positive".into(),
            ));
        }
        if self.config.read_timeout.is_zero() {
            return Err(NetError::InvalidConfig(
                "read_timeout must be non-zero".into(),
            ));
        }
        if self.config.keep_alive_idle.is_zero() {
            return Err(NetError::InvalidConfig(
                "keep_alive_idle must be non-zero".into(),
            ));
        }
        Ok(self.config)
    }
}

/// Monotonic counters of one server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused with 503 because the queue was full.
    pub rejected: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests that could not be parsed (400/408/413/431/501 family).
    pub parse_errors: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    connections: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    parse_errors: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
        }
    }
}

/// A running HTTP front-end over one catalog, answering every route through
/// one [`PlanExecutor`].
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<StatsInner>,
    telemetry: Arc<Telemetry>,
    executor: Arc<PlanExecutor>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Bind `config.addr` and start serving `engine`'s catalog through one
    /// [`PlanExecutor`] built here, armed with `config.slo_threshold`.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for zero workers; I/O errors from binding.
    pub fn start(engine: Arc<QueryEngine>, config: ServerConfig) -> NetResult<Self> {
        if config.workers == 0 {
            return Err(NetError::InvalidConfig(
                "the server needs at least one worker".into(),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let (conn_tx, conn_rx) = channel::bounded::<Queued>(config.accept_backlog);
        let conn_rx = Arc::new(parking_lot::Mutex::new(conn_rx));
        // One executor serves every route: the GET point queries compile to
        // degenerate plans and run through it alongside POST /v1/query, so
        // there is exactly one evaluation path behind the whole API
        // surface.  On a ring member, the executor also carries the
        // cross-group scatter hook.
        let mut executor = PlanExecutor::new(Arc::clone(engine.catalog()))
            .with_slo_threshold(config.slo_threshold);
        if let Some(membership) = config.ring.clone() {
            executor = executor.with_scatter(scatter_hook(membership));
        }
        let executor = Arc::new(executor);
        let telemetry = config
            .telemetry
            .clone()
            .unwrap_or_else(|| Arc::new(Telemetry::new()));
        telemetry.bind(
            &executor,
            config.replication.as_ref(),
            config.ring.as_deref(),
        );

        let workers = (0..config.workers)
            .map(|i| {
                let conn_rx = Arc::clone(&conn_rx);
                let executor = Arc::clone(&executor);
                let config = config.clone();
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                let telemetry = Arc::clone(&telemetry);
                std::thread::Builder::new()
                    .name(format!("opaq-net-worker-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let rx = conn_rx.lock();
                            rx.recv()
                        };
                        let Ok(queued) = stream else {
                            return; // queue closed and drained
                        };
                        handle_connection(
                            queued, &executor, &config, &shutdown, &stats, &telemetry,
                        );
                    })
                    .expect("spawning an HTTP worker cannot fail")
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let telemetry = Arc::clone(&telemetry);
            std::thread::Builder::new()
                .name("opaq-net-accept".to_string())
                .spawn(move || {
                    // `conn_tx` moves in here: when this thread exits, the
                    // channel closes and the workers drain out.  `accept`
                    // blocks; `shutdown` sets the flag and then connects
                    // once to wake it, and that connection (like any other
                    // accepted after the flag) is dropped uncounted.
                    let conn_tx = conn_tx;
                    loop {
                        let accepted = listener.accept();
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        match accepted {
                            Ok((stream, _peer)) => {
                                stats.connections.fetch_add(1, Ordering::Relaxed);
                                // Bounded hand-off: a full queue means the
                                // workers are saturated — shed load with a
                                // 503 instead of queueing unboundedly.
                                if let Err(back) = try_send(&conn_tx, (stream, Instant::now())) {
                                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                                    telemetry.sheds.inc();
                                    // Even a shed carries a trace id and a
                                    // root span, so overload is visible in
                                    // the ring, not just a counter.
                                    let trace = TraceId::mint();
                                    TraceSink::new(Arc::clone(&telemetry.recorder), trace)
                                        .finish_root(Stage::Request, SpanTag::Shed);
                                    let (stream, _) = back;
                                    let _ = Response::error(503, "server overloaded").write_to(
                                        &mut &stream,
                                        &mut Vec::new(),
                                        false,
                                        trace,
                                    );
                                }
                            }
                            Err(_) => {
                                // Transient accept failure (e.g. EMFILE):
                                // back off briefly rather than spin.
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                })
                .expect("spawning the accept thread cannot fail")
        };

        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
            stats,
            telemetry,
            executor,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// The observability state this server records into (the configured one,
    /// or the default built at start).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The executor answering every route, with its per-tenant latency and
    /// SLO accounting.
    pub fn executor(&self) -> &Arc<PlanExecutor> {
        &self.executor
    }

    /// Stop accepting, drain queued connections' in-flight requests, join
    /// every thread.  Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            // Wake the blocked `accept`; the accept thread sees the flag
            // and exits without counting or queueing this connection.  An
            // unspecified bind address is reached through loopback.  A
            // failed connect (say, out of file descriptors) is retried, as
            // nothing else would wake the thread being joined.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            while TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_err()
                && !accept.is_finished()
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            // Joining the accept thread drops the connection sender, which
            // closes the queue; the workers then drain what was accepted
            // (each serving at most its current request before noticing the
            // flag) and exit.
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An accepted connection and when the accept thread queued it.
type Queued = (TcpStream, Instant);

/// Non-blocking send; gives the connection back on a full (or closed) queue
/// so the accept thread can answer 503 instead of blocking.
fn try_send(tx: &channel::Sender<Queued>, queued: Queued) -> Result<(), Queued> {
    tx.try_send(queued).map_err(|e| match e {
        channel::TrySendError::Full(queued) | channel::TrySendError::Disconnected(queued) => queued,
    })
}

/// `d` in nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Serve one connection until close/limits/shutdown.  `accepted` is when
/// the accept thread queued it: the first request's root span starts there,
/// with the wait until this worker picked it up as a `queue` child.
fn handle_connection(
    (stream, accepted): Queued,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    stats: &StatsInner,
    telemetry: &Telemetry,
) {
    let queue_wait = accepted.elapsed();
    let _ = stream.set_nodelay(true);
    let mut recv = RecvBuf::new();
    let mut out = Vec::new();
    let mut timeout = None;
    for served in 0..config.keep_alive_max_requests {
        match wait_for_request(&stream, &mut timeout, &mut recv, config, shutdown) {
            Wait::Ready => {}
            Wait::Close => return,
        }
        let parse_start = Instant::now();
        let mut socket = TimedRead {
            stream: &stream,
            in_force: &mut timeout,
            want: config.read_timeout,
        };
        let request = read_request(&mut recv, &mut socket, &config.limits);
        let parse_nanos = nanos(parse_start.elapsed());
        if matches!(request, Err(ParseError::ConnectionClosed)) {
            return;
        }
        // The trace id arrives in the request header (a failover hop or sync
        // pull propagating its trace) or is minted here at the front door;
        // an unparseable request can't propagate one, so it gets a fresh id.
        let trace = request
            .as_ref()
            .ok()
            .and_then(|request| request.header(TRACE_HEADER))
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::mint);
        // The root starts at accept for a connection's first request, so
        // its queue wait counts, and at parse start for later ones.  The
        // id is only readable after parsing, so the queue and parse spans
        // are recorded retroactively.
        let queue = if served == 0 {
            queue_wait
        } else {
            Duration::ZERO
        };
        let epoch = parse_start.checked_sub(queue).unwrap_or(parse_start);
        let sink = TraceSink::starting_at(Some(Arc::clone(&telemetry.recorder)), trace, epoch);
        if served == 0 {
            sink.complete_with(
                sink.allocate(),
                ROOT_SPAN_ID,
                Stage::Queue,
                SpanTag::Untagged,
                0,
                nanos(queue),
            );
        }
        let parse_tag = if request.is_ok() {
            SpanTag::Untagged
        } else {
            SpanTag::Error
        };
        sink.complete_with(
            sink.allocate(),
            ROOT_SPAN_ID,
            Stage::Parse,
            parse_tag,
            nanos(queue),
            parse_nanos,
        );
        let (response, keep_alive) = match request {
            Ok(request) => {
                let response = respond(executor, config, telemetry, &sink, &request);
                let tag = if response.status >= 500 {
                    SpanTag::Error
                } else {
                    SpanTag::Untagged
                };
                let total = sink.finish_root(Stage::Request, tag);
                let detail = sink.take_annotation();
                telemetry
                    .slow
                    .offer(trace, Duration::from_nanos(total), || {
                        detail.unwrap_or_else(|| format!("{} {}", request.method, request.path))
                    });
                let keep_alive = request.wants_keep_alive()
                    && served + 1 < config.keep_alive_max_requests
                    && !shutdown.load(Ordering::Acquire);
                (response, keep_alive)
            }
            Err(e) => {
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                telemetry.parse_errors.inc();
                sink.finish_root(Stage::Request, SpanTag::Error);
                (parse_error_response(&e), false)
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        telemetry.requests.inc();
        // The root closed before the write, so a client holding this
        // response can read a complete tree; the write span joins it after.
        let write_start = sink.now_nanos();
        let written = response.write_to(&mut &stream, &mut out, keep_alive, trace);
        let write_tag = if written.is_ok() {
            SpanTag::Untagged
        } else {
            SpanTag::Error
        };
        sink.child(ROOT_SPAN_ID, Stage::Write, write_tag, write_start);
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// How often an idle connection checks the shutdown flag and its idle
/// deadline.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The connection's socket as a reader that puts `want` in force as its
/// read timeout before reading.  `in_force` remembers the timeout the
/// socket carries, so `setsockopt` runs only when the phase changes.
struct TimedRead<'a> {
    stream: &'a TcpStream,
    in_force: &'a mut Option<Duration>,
    want: Duration,
}

impl Read for TimedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if *self.in_force != Some(self.want) {
            self.stream.set_read_timeout(Some(self.want))?;
            *self.in_force = Some(self.want);
        }
        let mut stream = self.stream;
        stream.read(buf)
    }
}

enum Wait {
    Ready,
    Close,
}

/// Idle phase between keep-alive requests: read into `recv` with a short
/// timeout so both shutdown and the idle deadline are observed; the bytes
/// that end the wait are (the start of) the request.  Pipelined bytes
/// already buffered count as ready.  A request whose bytes have already
/// arrived is reported `Ready` even under shutdown — it gets served (with
/// `connection: close`) rather than dropped, so the drain semantics
/// documented on [`HttpServer::shutdown`] hold for queued work too.
fn wait_for_request(
    stream: &TcpStream,
    timeout: &mut Option<Duration>,
    recv: &mut RecvBuf,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> Wait {
    if !recv.buffered().is_empty() {
        return Wait::Ready;
    }
    let started = Instant::now();
    let mut socket = TimedRead {
        stream,
        in_force: timeout,
        want: IDLE_POLL,
    };
    loop {
        // Read *before* consulting the shutdown flag, so a request that
        // raced shutdown onto the wire is answered, not silently closed on.
        match recv.fill(&mut socket) {
            Ok(0) => return Wait::Close, // clean EOF
            Ok(_) => return Wait::Ready,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Wait::Close,
        }
        if shutdown.load(Ordering::Acquire) {
            return Wait::Close;
        }
        if started.elapsed() > config.keep_alive_idle {
            return Wait::Close;
        }
    }
}

fn parse_error_response(e: &ParseError) -> Response {
    match e {
        ParseError::HeadersTooLarge => Response::error(431, &e.to_string()),
        ParseError::BodyTooLarge => Response::error(413, &e.to_string()),
        ParseError::Unsupported(_) => Response::error(501, &e.to_string()),
        ParseError::Io(io) if io.kind() == std::io::ErrorKind::WouldBlock => {
            Response::error(408, "timed out reading the request")
        }
        ParseError::Io(io) if io.kind() == std::io::ErrorKind::TimedOut => {
            Response::error(408, "timed out reading the request")
        }
        _ => Response::error(400, &e.to_string()),
    }
}

/// A typed, already-validated API request: the single conversion layer
/// between wire parameters and the executor.  Every endpoint — the four
/// legacy GET/POST point routes and the plan endpoint — lowers to one of
/// these, and both compile to a [`QueryPlan`] for the shared executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// A single-`(tenant, dataset)` point query (the GET /v1 family).
    Point {
        /// The tenant addressed by the path.
        tenant: TenantId,
        /// The dataset addressed by the path.
        dataset: DatasetId,
        /// The validated extract request.
        request: QueryRequest,
    },
    /// A pipeline expression (POST /v1/query).
    Plan(QueryPlan),
}

impl ApiRequest {
    /// Lower to the plan the executor runs.  Point requests become
    /// degenerate exact-selector plans, so ids containing `*`/`?` remain
    /// addressable through the path-based API.
    pub fn into_plan(self) -> QueryPlan {
        match self {
            ApiRequest::Point {
                tenant,
                dataset,
                request,
            } => QueryPlan::single(tenant, dataset, request),
            ApiRequest::Plan(plan) => plan,
        }
    }
}

/// Route one parsed request: every answer, and the accounting of every
/// answered plan, comes from `executor`, and everything else the routes
/// read (health, inventory, sync sketches) from `executor.catalog()`.
/// `_engine` is unused; it stays only for the benchmark harness's call
/// shape.  Pure function of `(catalog state, config, request)` — the load
/// harness's in-process topology runs the same body without a socket, and
/// its verifier re-renders expected bodies through the same renderers to
/// compare bytes.  Spans for route/compile/fetch/merge/extract/render land
/// on `sink`; the caller owns the root span and the trace-id response
/// header.  On a ring member every response leaves with [`OWNER_HEADER`]
/// set — the local group normally, the actual owner on a `wrong_owner`
/// answer.
pub fn route(
    _engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    telemetry: &Telemetry,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    respond(executor, config, telemetry, sink, request)
}

/// [`route`] without the engine argument: what a connection handler and
/// the in-process load topology call.
pub(crate) fn respond(
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    telemetry: &Telemetry,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    let response = route_inner(executor, config, telemetry, sink, request);
    match config.ring.as_deref() {
        Some(membership) if !response.headers.iter().any(|&(k, _)| k == OWNER_HEADER) => {
            response.with_header(OWNER_HEADER, membership.group_name().to_string())
        }
        _ => response,
    }
}

/// Resolve tenant ownership for a ring member, recording a [`Stage::Route`]
/// span (tagged [`SpanTag::Error`] when misdirected).  Returns the typed
/// `wrong_owner` response to send when another group owns the tenant.
fn check_ownership(
    config: &ServerConfig,
    sink: &TraceSink,
    tenant: &str,
) -> Result<(), Box<Response>> {
    let Some(membership) = config.ring.as_deref() else {
        return Ok(());
    };
    let route_start = sink.now_nanos();
    let owned = membership.owns(tenant);
    let tag = if owned {
        SpanTag::Untagged
    } else {
        SpanTag::Error
    };
    sink.child(ROOT_SPAN_ID, Stage::Route, tag, route_start);
    if owned {
        return Ok(());
    }
    let owner = membership.owner(tenant);
    let mut body = String::from("{\"error\":{\"code\":\"wrong_owner\",\"message\":");
    write_escaped(
        &mut body,
        &format!("tenant {:?} is owned by group {:?}", tenant, owner.name),
    );
    body.push_str(",\"owner\":{\"group\":");
    write_escaped(&mut body, &owner.name);
    body.push_str(",\"addrs\":[");
    for (i, addr) in owner.addrs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_escaped(&mut body, addr);
    }
    body.push_str("]}}}");
    Err(Box::new(
        Response::json(421, body).with_header(OWNER_HEADER, owner.name.clone()),
    ))
}

fn route_inner(
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    telemetry: &Telemetry,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    // Segments were percent-decoded individually by the parser, so a tenant
    // id containing a literal `/` (sent as `%2F`) is one segment here.
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    match segments.as_slice() {
        ["healthz"] => {
            if request.method != "GET" {
                return Response::error(405, "healthz is GET-only");
            }
            let stats = executor.catalog().stats();
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"entries\":{},\"publishes\":{}}}",
                    stats.entries, stats.publishes
                ),
            )
        }
        ["metrics"] => {
            if request.method != "GET" {
                return Response::error(405, "metrics is GET-only");
            }
            telemetry.update(
                executor,
                config.replication.as_ref(),
                config.ring.as_deref(),
            );
            Response::text(200, telemetry.registry.render())
        }
        ["v1", "_debug", "trace"] => route_debug_trace(telemetry, request),
        ["v1", "_debug", "slow"] => route_debug_slow(telemetry, request),
        ["v1", "_sync", "manifest"] => {
            if request.method != "GET" {
                return Response::error(405, "sync manifest is GET-only");
            }
            Response::json(200, render_inventory_json(executor.catalog()))
        }
        ["v1", "_sync", "sketch"] => route_sync_sketch(executor.catalog(), request),
        ["v1", "query"] => route_query(executor, config, sink, request),
        ["v1", tenant, dataset, op] => {
            if let Err(response) = check_ownership(config, sink, tenant) {
                return *response;
            }
            let compile_start = sink.now_nanos();
            let api = match parse_point_request(request, tenant, dataset, op) {
                Ok(api) => api,
                Err(response) => return *response,
            };
            let plan = api.into_plan();
            sink.child(
                ROOT_SPAN_ID,
                Stage::Compile,
                SpanTag::Untagged,
                compile_start,
            );
            match executor.execute_traced(&plan, sink, ROOT_SPAN_ID) {
                Ok(executed) => {
                    // A degenerate plan has exactly one source; reconstruct
                    // the legacy single-target response shape from it, so
                    // the GET bodies stay byte-for-byte what they were when
                    // each route parsed and executed on its own.
                    let (version, freshness) = executed
                        .sources
                        .first()
                        .map(|s| (s.version, s.freshness))
                        .unwrap_or((0, Freshness::Fresh));
                    let response = QueryResponse {
                        output: executed.output,
                        version,
                        total_elements: executed.total_elements,
                        freshness,
                    };
                    let render_start = sink.now_nanos();
                    let body = render_response_json(&response);
                    sink.child(ROOT_SPAN_ID, Stage::Render, SpanTag::Untagged, render_start);
                    Response::json(200, body)
                        .with_header(VERSION_HEADER, version.to_string())
                        .with_header(FRESHNESS_HEADER, freshness.as_str())
                }
                Err(e) => plan_error_response(e),
            }
        }
        _ => Response::error(404, "no such route"),
    }
}

/// `GET /v1/_debug/trace?id=HEX`: render the recorded span tree of one
/// trace as indented text (partial if the ring wrapped).
fn route_debug_trace(telemetry: &Telemetry, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "debug trace is GET-only");
    }
    let Some(raw) = request.query_param("id") else {
        return Response::error(400, "missing query parameter id");
    };
    let Some(id) = TraceId::parse(raw) else {
        return Response::error(400, "id must be 1-16 hex digits");
    };
    let spans = telemetry.recorder.trace(id);
    if spans.is_empty() {
        return Response::error(404, "no spans recorded for that trace");
    }
    Response::text(200, format!("trace {id}\n{}", render_span_tree(&spans)))
}

/// `GET /v1/_debug/slow?n=N`: the N slowest requests (default 10), slowest
/// first, as JSON with each entry's trace id and plan provenance.
fn route_debug_slow(telemetry: &Telemetry, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "debug slow is GET-only");
    }
    let n = match request.query_param("n") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "n must be an unsigned integer"),
        },
    };
    let mut out = String::from("{\"threshold_nanos\":");
    out.push_str(&(telemetry.slow.threshold().as_nanos().min(u64::MAX as u128) as u64).to_string());
    out.push_str(",\"entries\":[");
    for (i, entry) in telemetry.slow.top(n).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"trace\":");
        write_escaped(&mut out, &entry.trace.to_string());
        out.push_str(",\"duration_nanos\":");
        out.push_str(&entry.duration_nanos.to_string());
        out.push_str(",\"detail\":");
        write_escaped(&mut out, &entry.detail);
        out.push('}');
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `GET /v1/_sync/manifest`: the catalog's version vector as JSON, sorted —
/// what a bootstrapping or delta-polling replica diffs against its own
/// catalog.
fn render_inventory_json(catalog: &SketchCatalog) -> String {
    let mut out = String::from("{\"entries\":[");
    for (i, entry) in catalog.inventory().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"tenant\":");
        write_escaped(&mut out, &entry.tenant);
        out.push_str(",\"dataset\":");
        write_escaped(&mut out, &entry.dataset);
        out.push_str(",\"version\":");
        out.push_str(&entry.version.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `GET /v1/_sync/sketch?tenant=&dataset=`: the entry's current sketch in
/// the checksummed `opaq_storage::sketch_codec` frame, with the served
/// version in `x-opaq-version` — one atomic `(version, bytes)` pair, so a
/// replica can never apply bytes under the wrong version number.
fn route_sync_sketch(catalog: &SketchCatalog, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "sync sketch is GET-only");
    }
    let Some(tenant) = request.query_param("tenant") else {
        return Response::error(400, "missing query parameter tenant");
    };
    let Some(dataset) = request.query_param("dataset") else {
        return Response::error(400, "missing query parameter dataset");
    };
    let snapshot = match catalog.snapshot(&TenantId::new(tenant), &DatasetId::new(dataset)) {
        Ok(snapshot) => snapshot,
        Err(ServeError::UnknownEntry { .. }) => {
            return Response::error(404, "no sketch published for that entry")
        }
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let bytes = opaq_storage::sketch_codec::to_bytes(&snapshot.sketch.to_wire());
    Response::octets(200, bytes).with_header(VERSION_HEADER, snapshot.version.to_string())
}

/// Parse the legacy per-`(tenant, dataset)` wire parameters into a typed
/// [`ApiRequest::Point`].  Validation errors come back as ready-to-send
/// responses with the same statuses and messages the per-route parsers
/// used to emit.
fn parse_point_request(
    request: &Request,
    tenant: &str,
    dataset: &str,
    op: &str,
) -> Result<ApiRequest, Box<Response>> {
    let fail = |status: u16, message: &str| Err(Box::new(Response::error(status, message)));
    let query = match op {
        "quantile" => {
            if request.method != "GET" {
                return fail(405, "quantile is GET-only");
            }
            let Some(raw) = request.query_param("phi") else {
                return fail(400, "missing query parameter phi");
            };
            let Ok(phi) = raw.parse::<f64>() else {
                return fail(400, "phi must be a number");
            };
            if !phi.is_finite() {
                return fail(400, "phi must be finite");
            }
            QueryRequest::Quantile { phi }
        }
        "rank" => {
            if request.method != "GET" {
                return fail(405, "rank is GET-only");
            }
            let Some(raw) = request.query_param("key") else {
                return fail(400, "missing query parameter key");
            };
            let Ok(key) = raw.parse::<u64>() else {
                return fail(400, "key must be an unsigned integer");
            };
            QueryRequest::Rank { key }
        }
        "profile" => {
            if request.method != "GET" {
                return fail(405, "profile is GET-only");
            }
            let count = match request.query_param("count") {
                None => 10,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(count) => count,
                    Err(_) => return fail(400, "count must be an unsigned integer"),
                },
            };
            QueryRequest::Profile { count }
        }
        "quantile_batch" => {
            if request.method != "POST" {
                return fail(405, "quantile_batch is POST-only");
            }
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return fail(400, "body must be UTF-8 JSON");
            };
            let parsed = match crate::json::Json::parse(body) {
                Ok(parsed) => parsed,
                Err(e) => return fail(400, &e.to_string()),
            };
            let Some(items) = parsed.get("phis").and_then(|v| v.as_array()) else {
                return fail(400, "body must be {\"phis\": [numbers]}");
            };
            let mut phis = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(phi) if phi.is_finite() => phis.push(phi),
                    _ => return fail(400, "phis must be finite numbers"),
                }
            }
            QueryRequest::QuantileBatch { phis }
        }
        _ => return fail(404, "no such operation"),
    };
    Ok(ApiRequest::Point {
        tenant: TenantId::new(tenant),
        dataset: DatasetId::new(dataset),
        request: query,
    })
}

/// `POST /v1/query`: parse `{"plan": "fetch ... | ..."}`, execute, render
/// the plan response with its full source provenance.
fn route_query(
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    if request.method != "POST" {
        return Response::error(405, "query is POST-only");
    }
    let compile_start = sink.now_nanos();
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let parsed = match crate::json::Json::parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(text) = parsed.get("plan").and_then(|v| v.as_str()) else {
        return Response::error(400, "body must be {\"plan\": \"fetch ... | ...\"}");
    };
    // The plan text is the provenance the slow log wants: a slow entry
    // names the pipeline, not just a path.
    sink.annotate(format!("plan: {text}"));
    let plan = match QueryPlan::parse(text) {
        Ok(plan) => plan,
        Err(e) => return Response::error_coded(400, "invalid_plan", &e.to_string()),
    };
    sink.child(
        ROOT_SPAN_ID,
        Stage::Compile,
        SpanTag::Untagged,
        compile_start,
    );
    // Single-tenant plans are routed like the point API: a misdirected one
    // answers `wrong_owner`.  Glob plans run anywhere — the executor's
    // scatter hook gathers the other groups' partials.
    if let Selector::Exact { tenant, .. } = &plan.selector {
        if let Err(response) = check_ownership(config, sink, tenant.as_str()) {
            return *response;
        }
    }
    match executor.execute_traced(&plan, sink, ROOT_SPAN_ID) {
        Ok(executed) => {
            let sources = executed.sources.len().to_string();
            let render_start = sink.now_nanos();
            let body = render_plan_response_json(&executed);
            sink.child(ROOT_SPAN_ID, Stage::Render, SpanTag::Untagged, render_start);
            Response::json(200, body).with_header(SOURCES_HEADER, sources)
        }
        Err(e) => plan_error_response(e),
    }
}

/// Build the cross-group gather hook a ring member installs on its
/// [`PlanExecutor`]: for every *peer* group, pull a replica's manifest,
/// keep the selector's matches, and fetch each matching sketch at its exact
/// published version (the same `/v1/_sync/*` endpoints replication uses, so
/// bytes and version travel atomically).  Replica addresses are tried in
/// order; a group with no reachable replica fails the plan loudly (500)
/// rather than returning a silently partial answer.  The request's trace id
/// rides on every hop, so the scatter fan-out is one trace end to end.
fn scatter_hook(membership: Arc<RingMembership>) -> Arc<ScatterFn> {
    Arc::new(move |selector: &Selector, trace: TraceId| {
        let mut partials = Vec::new();
        for group in membership.peer_groups() {
            let mut gathered: Option<Vec<RemotePartial>> = None;
            let mut last_err: Option<NetError> = None;
            for addr in &group.addrs {
                let mut client = HttpClient::new(addr.clone())
                    .with_read_timeout(Duration::from_millis(500))
                    .with_connect_timeout(Duration::from_millis(250));
                client.set_trace_id(Some(trace));
                match gather_from_peer(&mut client, selector) {
                    Ok(found) => {
                        gathered = Some(found);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match gathered {
                Some(found) => partials.extend(found),
                None => {
                    let detail = last_err
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "group has no replica addresses".to_string());
                    return Err(QueryError::Serve(ServeError::InvalidConfig(format!(
                        "scatter to group {:?} failed: {detail}",
                        group.name
                    ))));
                }
            }
        }
        Ok(partials)
    })
}

/// One peer replica's contribution to a scatter: its manifest filtered by
/// the selector, each match fetched at the manifest-then-header version.
fn gather_from_peer(client: &mut HttpClient, selector: &Selector) -> NetResult<Vec<RemotePartial>> {
    let mut found = Vec::new();
    for entry in crate::sync::fetch_manifest(client)? {
        let tenant = TenantId::new(&entry.tenant);
        let dataset = DatasetId::new(&entry.dataset);
        if !selector.matches(&tenant, &dataset) {
            continue;
        }
        let (version, sketch) = crate::sync::fetch_sketch(client, &entry.tenant, &entry.dataset)?;
        found.push(RemotePartial {
            tenant,
            dataset,
            version,
            sketch: Arc::new(sketch),
        });
    }
    Ok(found)
}

/// Map executor errors to responses.  The single-target serve errors keep
/// the statuses and messages the legacy routes emitted; plan-specific
/// failures get their own stable codes.
fn plan_error_response(e: QueryError) -> Response {
    match &e {
        QueryError::Parse { .. } => Response::error_coded(400, "invalid_plan", &e.to_string()),
        QueryError::NoMatch { .. } => Response::error_coded(404, "not_found", &e.to_string()),
        QueryError::NeedsCoalesce { .. } => {
            Response::error_coded(400, "needs_coalesce", &e.to_string())
        }
        QueryError::Serve(ServeError::UnknownEntry { tenant, dataset }) => {
            Response::error(404, &format!("no sketch published for {tenant}/{dataset}"))
        }
        QueryError::Serve(ServeError::Opaq(err)) => Response::error(400, &err.to_string()),
        QueryError::Serve(err) => Response::error(500, &err.to_string()),
    }
}

/// Canonical JSON body of a successful query response.  Both the server and
/// the HTTP workload harness use this single renderer, so "byte-for-byte
/// identical to the in-process answer" is checkable by string equality.
pub fn render_response_json(response: &QueryResponse) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"version\":");
    out.push_str(&response.version.to_string());
    out.push_str(",\"total_elements\":");
    out.push_str(&response.total_elements.to_string());
    out.push_str(",\"freshness\":");
    write_escaped(&mut out, response.freshness.as_str());
    write_output(&mut out, &response.output);
    out
}

/// Canonical JSON body of a successful `POST /v1/query` response: the same
/// output keys as [`render_response_json`], plus the full `sources` array —
/// one `(tenant, dataset, version, freshness)` tuple per contributing
/// snapshot — in place of the single version/freshness pair.  Shared with
/// the workload verifier so plan answers are byte-replayable too.
pub fn render_plan_response_json(response: &PlanResponse) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"total_elements\":");
    out.push_str(&response.total_elements.to_string());
    out.push_str(",\"sources\":[");
    for (i, source) in response.sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"tenant\":");
        write_escaped(&mut out, source.tenant.as_str());
        out.push_str(",\"dataset\":");
        write_escaped(&mut out, source.dataset.as_str());
        out.push_str(",\"version\":");
        out.push_str(&source.version.to_string());
        out.push_str(",\"freshness\":");
        write_escaped(&mut out, source.freshness.as_str());
        out.push('}');
    }
    out.push(']');
    write_output(&mut out, &response.output);
    out
}

/// The output keys shared by both renderers, and the closing brace.
fn write_output(out: &mut String, output: &QueryOutput) {
    match output {
        QueryOutput::Quantile(est) => {
            out.push_str(",\"estimate\":");
            write_estimate(out, est);
        }
        QueryOutput::Rank(bounds) => {
            out.push_str(",\"rank\":{\"min_rank\":");
            out.push_str(&bounds.min_rank.to_string());
            out.push_str(",\"max_rank\":");
            out.push_str(&bounds.max_rank.to_string());
            out.push('}');
        }
        QueryOutput::QuantileBatch(ests) | QueryOutput::Profile(ests) => {
            out.push_str(",\"estimates\":[");
            for (i, est) in ests.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_estimate(out, est);
            }
            out.push(']');
        }
    }
    out.push('}');
}

fn write_estimate(out: &mut String, est: &QuantileEstimate<u64>) {
    out.push_str("{\"phi\":");
    write_f64(out, est.phi);
    out.push_str(",\"target_rank\":");
    out.push_str(&est.target_rank.to_string());
    out.push_str(",\"lower\":");
    out.push_str(&est.lower.to_string());
    out.push_str(",\"upper\":");
    out.push_str(&est.upper.to_string());
    out.push_str(",\"max_rank_slack\":");
    out.push_str(&est.max_rank_slack.to_string());
    out.push('}');
}
