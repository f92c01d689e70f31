//! The typed query engine: requests, responses and per-tenant latency
//! accounting.
//!
//! Every request resolves one catalog snapshot and answers entirely from it,
//! so a [`QueryRequest::QuantileBatch`] or [`QueryRequest::Profile`] is
//! guaranteed to be internally consistent — all of its estimates come from
//! the *same* published version, whose number the response carries.  That
//! version tag is what lets callers (and the load harness's torn-read
//! check) verify a response against the exact sketch that produced it.

use crate::catalog::{DatasetId, Freshness, SketchCatalog, SketchSnapshot, TenantId};
use crate::ServeResult;
use opaq_core::{QuantileEstimate, QuantileSketch, RankBounds};
use opaq_metrics::{LatencyHistogram, LatencySnapshot};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed query against one `(tenant, dataset)` entry.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Bound the φ-quantile.
    Quantile {
        /// The quantile fraction, in `[0, 1]`.
        phi: f64,
    },
    /// Bound the rank of an arbitrary key (§4 of the paper).
    Rank {
        /// The key whose rank is requested.
        key: u64,
    },
    /// Bound several quantile fractions against one consistent version.
    QuantileBatch {
        /// The quantile fractions, each in `[0, 1]`.
        phis: Vec<f64>,
    },
    /// An equi-depth profile: all `count`-quantiles (`φ = 1/count …`).
    Profile {
        /// Number of equi-depth buckets (≥ 1).
        count: u64,
    },
}

/// The payload of a successful query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Answer to [`QueryRequest::Quantile`].
    Quantile(QuantileEstimate<u64>),
    /// Answer to [`QueryRequest::Rank`].
    Rank(RankBounds),
    /// Answer to [`QueryRequest::QuantileBatch`] (same order as the request).
    QuantileBatch(Vec<QuantileEstimate<u64>>),
    /// Answer to [`QueryRequest::Profile`].
    Profile(Vec<QuantileEstimate<u64>>),
}

/// A successful query plus the provenance needed to audit it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The computed estimates.
    pub output: QueryOutput,
    /// The catalog version (epoch) of the snapshot that answered.
    pub version: u64,
    /// Total elements summarised by that snapshot.
    pub total_elements: u64,
    /// TTL status of the answering snapshot (`fresh` unless the entry has a
    /// `max_age` and outlived it; see [`Freshness`]).
    pub freshness: Freshness,
}

/// Execute `request` against a sketch directly (no catalog, no metrics).
///
/// This is the single evaluation path: the engine calls it with a catalog
/// snapshot, and verification harnesses call it with an independently held
/// sketch to check a response byte-for-byte.
pub fn execute_on(
    sketch: &QuantileSketch<u64>,
    request: &QueryRequest,
) -> ServeResult<QueryOutput> {
    Ok(match request {
        QueryRequest::Quantile { phi } => QueryOutput::Quantile(sketch.estimate(*phi)?),
        QueryRequest::Rank { key } => QueryOutput::Rank(sketch.rank_bounds(*key)),
        QueryRequest::QuantileBatch { phis } => {
            QueryOutput::QuantileBatch(sketch.estimate_many(phis)?)
        }
        QueryRequest::Profile { count } => {
            QueryOutput::Profile(sketch.estimate_q_quantiles(*count)?)
        }
    })
}

/// Deterministic per-thread PRNG (splitmix-style), independent of the shims.
/// Load generators seed one per client so request streams replay exactly.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The next request of the standard serving mix: quantile, rank, batch and
/// profile in equal shares, drawn from `rng`.
pub fn request_for(rng: &mut u64) -> QueryRequest {
    let phi_of = |r: u64| (r % 10_000) as f64 / 10_000.0;
    match next_rand(rng) % 4 {
        0 => QueryRequest::Quantile {
            phi: phi_of(next_rand(rng)),
        },
        1 => QueryRequest::Rank {
            key: next_rand(rng) % (1 << 31),
        },
        2 => QueryRequest::QuantileBatch {
            phis: (0..3).map(|_| phi_of(next_rand(rng))).collect(),
        },
        _ => QueryRequest::Profile {
            count: 2 + next_rand(rng) % 14,
        },
    }
}

/// Executes typed requests against catalog snapshots and records latency
/// per tenant (plus a fleet-wide histogram).  Share it behind an `Arc`
/// across client threads; every method takes `&self`.
#[derive(Debug)]
pub struct QueryEngine {
    catalog: Arc<SketchCatalog>,
    tenants: RwLock<HashMap<TenantId, Arc<LatencyHistogram>>>,
    overall: Arc<LatencyHistogram>,
    /// Per-request SLO threshold in nanos (0 = none armed); requests slower
    /// than this bump [`Self::slo_breaches`].
    slo_threshold_nanos: AtomicU64,
    slo_breaches: AtomicU64,
}

impl QueryEngine {
    /// Create an engine over `catalog`.
    pub fn new(catalog: Arc<SketchCatalog>) -> Self {
        Self {
            catalog,
            tenants: RwLock::new(HashMap::new()),
            overall: Arc::new(LatencyHistogram::new()),
            slo_threshold_nanos: AtomicU64::new(0),
            slo_breaches: AtomicU64::new(0),
        }
    }

    /// The catalog this engine serves from.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.catalog
    }

    /// Arm (or disarm, with `None`) a per-request latency SLO: every
    /// execution slower than `threshold` bumps [`Self::slo_breaches`],
    /// surfaced in `/metrics` as `opaq_slo_breaches` and in the serve
    /// shutdown summary.  This is the server-side view; the open-loop bench
    /// harness judges the client-observed distribution separately.
    pub fn set_slo_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(0, |t| (t.as_nanos().min(u64::MAX as u128) as u64).max(1));
        self.slo_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Requests that exceeded the armed SLO threshold (0 while disarmed).
    pub fn slo_breaches(&self) -> u64 {
        self.slo_breaches.load(Ordering::Relaxed)
    }

    /// Execute one request.  The measured latency covers snapshot resolution
    /// (including any spill reload) plus estimation — what a remote caller
    /// would observe, minus transport.
    pub fn execute(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        request: &QueryRequest,
    ) -> ServeResult<QueryResponse> {
        let start = Instant::now();
        let snapshot = self.catalog.snapshot(tenant, dataset)?;
        let response = Self::execute_snapshot(&snapshot, request)?;
        let elapsed = start.elapsed();
        self.overall.record(elapsed);
        self.tenant_histogram(tenant).record(elapsed);
        let threshold = self.slo_threshold_nanos.load(Ordering::Relaxed);
        if threshold > 0 && elapsed.as_nanos() > u128::from(threshold) {
            self.slo_breaches.fetch_add(1, Ordering::Relaxed);
        }
        Ok(response)
    }

    /// Execute against an already-resolved snapshot (no metrics recorded).
    pub fn execute_snapshot(
        snapshot: &SketchSnapshot,
        request: &QueryRequest,
    ) -> ServeResult<QueryResponse> {
        Ok(QueryResponse {
            output: execute_on(&snapshot.sketch, request)?,
            version: snapshot.version,
            total_elements: snapshot.sketch.total_elements(),
            freshness: snapshot.freshness,
        })
    }

    /// The latency histogram of one tenant (created on first use).
    pub fn tenant_histogram(&self, tenant: &TenantId) -> Arc<LatencyHistogram> {
        if let Some(h) = self.tenants.read().get(tenant) {
            return Arc::clone(h);
        }
        let mut tenants = self.tenants.write();
        Arc::clone(
            tenants
                .entry(tenant.clone())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// The fleet-wide latency histogram.
    pub fn overall(&self) -> &LatencyHistogram {
        &self.overall
    }

    /// A shared handle to the fleet-wide histogram, so a metric registry
    /// can render cumulative Prometheus buckets from the same instance.
    pub fn overall_shared(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.overall)
    }

    /// Per-tenant latency snapshots, sorted by tenant for deterministic
    /// reporting.
    pub fn latency_report(&self) -> Vec<(TenantId, LatencySnapshot)> {
        let mut rows: Vec<_> = self
            .tenants
            .read()
            .iter()
            .map(|(tenant, h)| (tenant.clone(), h.snapshot()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::{IncrementalOpaq, OpaqConfig};

    fn sketch_of(n: u64) -> QuantileSketch<u64> {
        let config = OpaqConfig::builder()
            .run_length(1000)
            .sample_size(100)
            .build()
            .unwrap();
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run((0..n).collect()).unwrap();
        inc.into_sketch().unwrap()
    }

    fn engine_with(n: u64) -> (QueryEngine, TenantId, DatasetId) {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let (t, d) = (TenantId::from("t"), DatasetId::from("d"));
        catalog.publish(&t, &d, sketch_of(n)).unwrap();
        (QueryEngine::new(catalog), t, d)
    }

    #[test]
    fn every_request_type_answers_from_one_version() {
        let (engine, t, d) = engine_with(10_000);
        let quantile = engine
            .execute(&t, &d, &QueryRequest::Quantile { phi: 0.5 })
            .unwrap();
        assert_eq!(quantile.version, 1);
        assert_eq!(quantile.total_elements, 10_000);
        assert_eq!(quantile.freshness, Freshness::Fresh);
        let QueryOutput::Quantile(est) = &quantile.output else {
            panic!("wrong output kind")
        };
        assert!(est.lower <= 4_999 && 4_999 <= est.upper);

        let rank = engine
            .execute(&t, &d, &QueryRequest::Rank { key: 2_500 })
            .unwrap();
        let QueryOutput::Rank(bounds) = &rank.output else {
            panic!("wrong output kind")
        };
        assert!(bounds.min_rank <= 2_501 && 2_501 <= bounds.max_rank);

        let batch = engine
            .execute(
                &t,
                &d,
                &QueryRequest::QuantileBatch {
                    phis: vec![0.1, 0.5, 0.9],
                },
            )
            .unwrap();
        let QueryOutput::QuantileBatch(ests) = &batch.output else {
            panic!("wrong output kind")
        };
        assert_eq!(ests.len(), 3);

        let profile = engine
            .execute(&t, &d, &QueryRequest::Profile { count: 10 })
            .unwrap();
        let QueryOutput::Profile(ests) = &profile.output else {
            panic!("wrong output kind")
        };
        assert_eq!(ests.len(), 9);
    }

    #[test]
    fn responses_match_direct_execution_exactly() {
        let (engine, t, d) = engine_with(5_000);
        let direct = sketch_of(5_000);
        for request in [
            QueryRequest::Quantile { phi: 0.25 },
            QueryRequest::Rank { key: 1234 },
            QueryRequest::QuantileBatch {
                phis: vec![0.0, 0.5, 1.0],
            },
            QueryRequest::Profile { count: 4 },
        ] {
            let served = engine.execute(&t, &d, &request).unwrap();
            assert_eq!(served.output, execute_on(&direct, &request).unwrap());
        }
    }

    #[test]
    fn latency_is_recorded_per_tenant_and_overall() {
        let (engine, t, d) = engine_with(1_000);
        for _ in 0..10 {
            engine
                .execute(&t, &d, &QueryRequest::Quantile { phi: 0.5 })
                .unwrap();
        }
        assert_eq!(engine.overall().count(), 10);
        let report = engine.latency_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].1.count, 10);
        assert!(report[0].1.p50 <= report[0].1.p999);
        // Failed queries (unknown tenant) record nothing.
        assert!(engine
            .execute(
                &TenantId::from("nope"),
                &d,
                &QueryRequest::Quantile { phi: 0.5 }
            )
            .is_err());
        assert_eq!(engine.overall().count(), 10);
    }

    #[test]
    fn invalid_requests_surface_typed_errors() {
        let (engine, t, d) = engine_with(1_000);
        assert!(engine
            .execute(&t, &d, &QueryRequest::Quantile { phi: 1.5 })
            .is_err());
        assert!(engine
            .execute(&t, &d, &QueryRequest::Profile { count: 0 })
            .is_err());
    }

    #[test]
    fn slo_threshold_counts_slow_requests_only_while_armed() {
        let (engine, t, d) = engine_with(1_000);
        let request = QueryRequest::Quantile { phi: 0.5 };
        // Disarmed: nothing counts.
        engine.execute(&t, &d, &request).unwrap();
        assert_eq!(engine.slo_breaches(), 0);
        // An unmeetable threshold: every request breaches.
        engine.set_slo_threshold(Some(Duration::ZERO));
        for _ in 0..3 {
            engine.execute(&t, &d, &request).unwrap();
        }
        assert_eq!(engine.slo_breaches(), 3);
        // A generous threshold: the counter stops moving but keeps history.
        engine.set_slo_threshold(Some(Duration::from_secs(3600)));
        engine.execute(&t, &d, &request).unwrap();
        assert_eq!(engine.slo_breaches(), 3);
        // Disarming keeps history too.
        engine.set_slo_threshold(None);
        engine.execute(&t, &d, &request).unwrap();
        assert_eq!(engine.slo_breaches(), 3);
    }
}
