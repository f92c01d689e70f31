//! The typed query model — requests, outputs, the response shape of a
//! single-target answer — the one evaluation function [`execute_on`], and
//! the server's catalog handle [`QueryEngine`].
//!
//! Answers are computed by `opaq_query::PlanExecutor`, which resolves one
//! catalog snapshot per source and calls [`execute_on`] on it, so a
//! [`QueryRequest::QuantileBatch`] or [`QueryRequest::Profile`] is
//! internally consistent — all of its estimates come from the *same*
//! published version, whose number the response carries.  That version
//! tag is what lets callers (and the load harness's torn-read check)
//! verify a response against the exact sketch that produced it.

use crate::catalog::{Freshness, SketchCatalog};
use crate::ServeResult;
use opaq_core::{QuantileEstimate, QuantileSketch, RankBounds};
use std::sync::Arc;

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
/// This is the single evaluation function: the plan executor calls it on
/// a catalog snapshot (or a fused one), and verification harnesses call it
/// with an independently held sketch to check a response byte-for-byte.
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

/// The server's catalog handle, and nothing else: it evaluates nothing and
/// accounts nothing.  Every answer, and the per-tenant latency and SLO
/// accounting of every answered plan, comes from `opaq_query::PlanExecutor`.
/// It stays only because the benchmark harness still passes one to
/// `HttpServer::start` and `route`; it goes with that call shape.
#[derive(Debug)]
pub struct QueryEngine {
    catalog: Arc<SketchCatalog>,
}

impl QueryEngine {
    /// Create an engine over `catalog`.
    pub fn new(catalog: Arc<SketchCatalog>) -> Self {
        Self { catalog }
    }

    /// The catalog this engine serves from.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{DatasetId, TenantId};
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
    fn every_request_type_answers_from_one_snapshot() {
        let (engine, t, d) = engine_with(10_000);
        let snapshot = engine.catalog().snapshot(&t, &d).unwrap();
        assert_eq!(snapshot.version, 1);
        assert_eq!(snapshot.sketch.total_elements(), 10_000);
        assert_eq!(snapshot.freshness, Freshness::Fresh);
        let sketch = &snapshot.sketch;
        let Ok(QueryOutput::Quantile(est)) =
            execute_on(sketch, &QueryRequest::Quantile { phi: 0.5 })
        else {
            panic!("wrong output kind")
        };
        assert!(est.lower <= 4_999 && 4_999 <= est.upper);

        let Ok(QueryOutput::Rank(bounds)) = execute_on(sketch, &QueryRequest::Rank { key: 2_500 })
        else {
            panic!("wrong output kind")
        };
        assert!(bounds.min_rank <= 2_501 && 2_501 <= bounds.max_rank);

        let batch = QueryRequest::QuantileBatch {
            phis: vec![0.1, 0.5, 0.9],
        };
        let Ok(QueryOutput::QuantileBatch(ests)) = execute_on(sketch, &batch) else {
            panic!("wrong output kind")
        };
        assert_eq!(ests.len(), 3);

        let Ok(QueryOutput::Profile(ests)) =
            execute_on(sketch, &QueryRequest::Profile { count: 10 })
        else {
            panic!("wrong output kind")
        };
        assert_eq!(ests.len(), 9);
    }

    #[test]
    fn a_published_snapshot_answers_exactly_like_its_sketch() {
        let (engine, t, d) = engine_with(5_000);
        let snapshot = engine.catalog().snapshot(&t, &d).unwrap();
        let direct = sketch_of(5_000);
        for request in [
            QueryRequest::Quantile { phi: 0.25 },
            QueryRequest::Rank { key: 1234 },
            QueryRequest::QuantileBatch {
                phis: vec![0.0, 0.5, 1.0],
            },
            QueryRequest::Profile { count: 4 },
        ] {
            assert_eq!(
                execute_on(&snapshot.sketch, &request).unwrap(),
                execute_on(&direct, &request).unwrap()
            );
        }
    }

    #[test]
    fn invalid_requests_surface_typed_errors() {
        let sketch = sketch_of(1_000);
        assert!(execute_on(&sketch, &QueryRequest::Quantile { phi: 1.5 }).is_err());
        assert!(execute_on(&sketch, &QueryRequest::Profile { count: 0 }).is_err());
    }
}
