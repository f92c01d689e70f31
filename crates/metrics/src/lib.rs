//! Error metrics, ground truth and timing instrumentation for the OPAQ
//! reproduction.
//!
//! Section 2.4 of the paper quantifies estimation error with three measures
//! (Figure 2 defines the terms):
//!
//! * **RER_A** — `(Ne − Nt)/n · 100`, where `Ne` is the number of elements
//!   between the estimated lower and upper bounds and `Nt` the number of
//!   duplicates of the exact quantile value between those bounds.  Reported
//!   per dectile ("A for Almaden": the measure used by `[AS95]`).
//! * **RER_L** — the maximum over quantiles of the relative difference
//!   between the number of elements separating successive *true* quantiles
//!   and the number separating successive *estimated* bounds ("L for Load
//!   balancing").
//! * **RER_N** — the maximum over quantiles of the number of elements between
//!   a true quantile and its estimated bound, normalised by `n/q`
//!   ("N for Normalised").
//!
//! This crate computes all three from a sorted copy of the data plus the
//! estimated bounds, provides exact ground-truth quantiles, a fixed-width
//! text-table builder used by every experiment binary, lock-free [`latency`] histograms
//! (p50/p99/p999) for the multi-tenant serving layer in `opaq-serve`,
//! [`slo`] threshold verdicts for the open-loop serving benchmarks, and
//! the serving stack's observability layer: request [`trace`]s and the
//! Prometheus metric [`registry`].
//!
//! # Observability guide
//!
//! ## Tracing
//!
//! Every HTTP request is assigned a [`trace::TraceId`] at the front door
//! (or adopts one arriving in the `x-opaq-trace-id` header, so traces
//! follow a request across replica failover hops and `/v1/_sync/*`
//! replication pulls), and every response carries the id back in the same
//! header.  Stages record [`trace::Span`]s into a fixed-capacity
//! lock-free ring ([`trace::SpanRecorder`]) — recording is allocation-free
//! and never blocks, so tracing stays on at full production traffic.
//!
//! Span taxonomy ([`trace::Stage`]): `request` (root) → `queue` (the
//! accept-queue wait, first request on a connection only) → `parse` →
//! `compile` → `fetch` (with one `snapshot` child per source, tagged
//! `hit` / `reload-from-spill` / `refresh-triggered`) → `merge` →
//! `extract` → `render`, then `write`, recorded after the root closes;
//! ring members add `route` and `scatter`.  Ingest-side jobs record
//! `refresh` roots with `ingest` children, and each replication pass
//! records a `sync` root.  Tags ([`trace::SpanTag`]) carry provenance:
//! `degraded` marks last-good replays, `shed` marks accept-queue 503s,
//! `error` marks failures.
//!
//! The span is the only stage timing point: the recorder feeds each span's
//! duration into one [`LatencyHistogram`] per stage
//! ([`trace::SpanRecorder::histogram`]), and those are the histograms
//! `/metrics` exports.
//!
//! Read traces back with `GET /v1/_debug/trace?id=<hex>` or render them
//! with `opaq trace --addr HOST:PORT --id <hex>`.  The slow-query log
//! ([`trace::SlowLog`]) keeps the top-N requests over a threshold with
//! full plan provenance: `GET /v1/_debug/slow?n=` or
//! `opaq trace --addr HOST:PORT --slow N`.
//!
//! ## Metric registry
//!
//! One [`registry::MetricRegistry`] is the single source of truth for
//! every exported metric name and its `# HELP` string; `/metrics` renders
//! from it in strict Prometheus text format (HELP/TYPE on every family,
//! escaped labels, trailing newline, schema-stable from the first
//! scrape).  Metric catalog:
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `opaq_http_requests` | counter | HTTP requests handled |
//! | `opaq_http_parse_errors` | counter | malformed requests rejected |
//! | `opaq_http_sheds` | counter | requests shed by the accept queue |
//! | `opaq_trace_spans_recorded` | counter | spans written to the ring |
//! | `opaq_trace_spans_dropped` | counter | spans lost to write contention |
//! | `opaq_slow_log_entries` | gauge | slow-log occupancy |
//! | `opaq_stage_duration_nanos{stage=}` | histogram | span durations, one series per [`trace::Stage`]; `stage="request"` is the root span of every answered or shed request |
//! | `opaq_request_latency_nanos{tenant=,quantile=}` | gauge | per-tenant plan latency quantiles |
//! | `opaq_request_count{tenant=}` | counter | plans answered per tenant |
//! | `opaq_catalog_*` | counter/gauge | catalog activity (publishes, snapshots, reloads, …) |
//! | `opaq_slo_breaches` | counter | requests over the configured SLO |
//! | `opaq_failovers`, `opaq_breaker_opens`, `opaq_sync_deltas_applied`, `opaq_chaos_faults_injected` | counter | replication/failover activity |
//! | `opaq_replica_breaker_state{peer=}` | gauge | 0 closed / 1 open / 2 half-open |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error_rates;
pub mod ground_truth;
pub mod latency;
pub mod registry;
pub mod shard;
pub mod slo;
pub mod table;
pub mod trace;

pub use error_rates::{compute_error_rates, ErrorReport, QuantileBoundsView, RelativeErrorRates};
pub use ground_truth::GroundTruth;
pub use latency::{render_latency_table, HistogramExport, LatencyHistogram, LatencySnapshot};
pub use registry::{Counter, Gauge, MetricRegistry};
pub use shard::{render_shard_table, ShardStats};
pub use slo::{SloCheck, SloOutcome, SloThresholds};
pub use table::{fmt2, TextTable};
pub use trace::{
    render_span_tree, SlowEntry, SlowLog, Span, SpanRecorder, SpanTag, Stage, TraceId, TraceSink,
    ROOT_SPAN_ID,
};
