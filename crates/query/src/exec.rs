//! Plan execution against catalog snapshots.
//!
//! The executor resolves a plan's selector to immutable sketch snapshots,
//! fuses them with the deterministic merge tree when the plan coalesces,
//! runs the extract request on the fused sketch, and reports exactly which
//! `(tenant, dataset, version, freshness)` tuples answered — the provenance
//! a byte-for-byte verifier needs to replay the plan offline against the
//! same versions.

use crate::plan::{QueryPlan, Selector};
use crate::QueryError;
use opaq_core::{merge_tree, QuantileSketch};
use opaq_metrics::trace::{SpanTag, Stage, TraceId, TraceSink};
use opaq_serve::{
    execute_on, DatasetId, Freshness, QueryOutput, SketchCatalog, SnapshotOrigin, TenantId,
};
use std::fmt;
use std::sync::Arc;

/// One catalog entry that contributed to a plan answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSource {
    /// The contributing tenant.
    pub tenant: TenantId,
    /// The contributing dataset.
    pub dataset: DatasetId,
    /// The published version (epoch) of the snapshot used.
    pub version: u64,
    /// TTL status of that snapshot at fetch time.
    pub freshness: Freshness,
}

/// A successful plan execution: the estimates plus full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// The computed estimates.
    pub output: QueryOutput,
    /// Total elements summarised by the (possibly fused) answering sketch.
    pub total_elements: u64,
    /// Every snapshot that contributed, in the catalog's sorted key order.
    /// Degenerate single-target plans have exactly one source, which is how
    /// the legacy per-`(tenant, dataset)` response shape is reconstructed.
    pub sources: Vec<PlanSource>,
}

/// One sketch gathered from a peer replica group by a scatter hook.
///
/// Remote partials carry the peer's published version so provenance (and
/// the byte-for-byte verifier's replay) stays exact across the fleet.  They
/// report [`Freshness::Fresh`]: the sync endpoint serves the current
/// published epoch, and partitioned catalogs run TTL-free, so this is what
/// an unpartitioned catalog would report for the same entry — the invariant
/// that keeps scatter-gathered plan answers byte-identical.
#[derive(Debug, Clone)]
pub struct RemotePartial {
    /// The owning tenant (as placed by the ring).
    pub tenant: TenantId,
    /// The dataset.
    pub dataset: DatasetId,
    /// The peer's published version of the entry.
    pub version: u64,
    /// The peer's published sketch.
    pub sketch: Arc<QuantileSketch<u64>>,
}

/// A scatter hook: resolve a glob selector against every peer replica
/// group and return the matching partial sketches.  The optional trace id
/// is the in-flight request's, so cross-group hops carry the same trace.
pub type ScatterFn =
    dyn Fn(&Selector, Option<TraceId>) -> Result<Vec<RemotePartial>, QueryError> + Send + Sync;

/// A selector match with everything downstream stages need, whether it came
/// from the local catalog or a peer group.
struct ResolvedSource {
    tenant: TenantId,
    dataset: DatasetId,
    version: u64,
    freshness: Freshness,
    sketch: Arc<QuantileSketch<u64>>,
}

/// Executes [`QueryPlan`]s against a catalog; a traced run records one span
/// per stage, which the span recorder turns into per-stage latency.
///
/// All methods take `&self`; share one executor behind an `Arc` across
/// serving threads.  Snapshots are resolved through the catalog's usual
/// epoch discipline, so a plan over N entries reads N *complete* published
/// versions — never a torn mixture — and reports each one it used.
///
/// On a ring-partitioned fleet the local catalog holds only owned tenants;
/// installing a scatter hook ([`PlanExecutor::with_scatter`]) lets glob
/// plans gather the missing partials from peer groups and fuse the union
/// with the same deterministic [`merge_tree`], so a multi-group `coalesce`
/// answer is byte-identical to the same plan on an unpartitioned catalog.
pub struct PlanExecutor {
    catalog: Arc<SketchCatalog>,
    scatter: Option<Arc<ScatterFn>>,
}

impl fmt::Debug for PlanExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanExecutor")
            .field("catalog", &self.catalog)
            .field("scatter", &self.scatter.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl PlanExecutor {
    /// Create an executor over `catalog`.
    pub fn new(catalog: Arc<SketchCatalog>) -> Self {
        Self {
            catalog,
            scatter: None,
        }
    }

    /// Install a scatter hook for cross-group glob resolution.
    #[must_use]
    pub fn with_scatter(mut self, scatter: Arc<ScatterFn>) -> Self {
        self.scatter = Some(scatter);
        self
    }

    /// The catalog plans resolve against.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.catalog
    }

    /// Execute one plan, recording nothing.
    ///
    /// # Errors
    /// * [`QueryError::NoMatch`] — a glob selector matched nothing;
    /// * [`QueryError::Serve`] with `ServeError::UnknownEntry` — an exact
    ///   selector addressed an entry that was never published;
    /// * [`QueryError::NeedsCoalesce`] — the selector resolved several
    ///   entries but the plan has no coalesce stage;
    /// * [`QueryError::Serve`] — snapshot reload, merge or estimation
    ///   failures.
    pub fn execute(&self, plan: &QueryPlan) -> Result<PlanResponse, QueryError> {
        self.execute_inner(plan, None)
    }

    /// Execute one plan, recording spans on `sink` under `parent`: a
    /// [`Stage::Fetch`] span with one [`Stage::Snapshot`] child per resolved
    /// source (tagged from the snapshot's origin, or
    /// [`SpanTag::RefreshTriggered`] when this fetch kicked off a TTL
    /// refresh), a [`Stage::Merge`] span when more than one snapshot fuses,
    /// a [`Stage::Scatter`] span when the scatter hook fires, and a
    /// [`Stage::Extract`] span.
    ///
    /// # Errors
    /// Identical to [`PlanExecutor::execute`].
    pub fn execute_traced(
        &self,
        plan: &QueryPlan,
        sink: &TraceSink,
        parent: u32,
    ) -> Result<PlanResponse, QueryError> {
        self.execute_inner(plan, Some((sink, parent)))
    }

    fn execute_inner(
        &self,
        plan: &QueryPlan,
        trace: Option<(&TraceSink, u32)>,
    ) -> Result<PlanResponse, QueryError> {
        let fetch_span = trace.map(|(sink, _)| (sink.allocate(), sink.now_nanos()));
        let fetch_id = fetch_span.map(|(id, _)| id);
        let mut snapshots =
            self.fetch(&plan.selector, trace.map(|(sink, _)| sink).zip(fetch_id))?;
        if let (Some((sink, parent)), Some((fetch_id, start))) = (trace, fetch_span) {
            sink.complete(fetch_id, parent, Stage::Fetch, SpanTag::Untagged, start);
        }

        if let (Selector::Glob { .. }, Some(scatter)) = (&plan.selector, self.scatter.as_ref()) {
            let scatter_span = trace.map(|(sink, _)| sink.now_nanos());
            let remote = scatter(&plan.selector, trace.map(|(sink, _)| sink.trace()))?;
            snapshots = Self::fuse_partials(snapshots, remote);
            if let (Some((sink, parent)), Some(start)) = (trace, scatter_span) {
                sink.child(parent, Stage::Scatter, SpanTag::Untagged, start);
            }
        }
        if snapshots.is_empty() {
            // Only a scatter-enabled glob can get here: local-only fetch
            // already raised NoMatch, and an exact fetch resolved one entry.
            let Selector::Glob { tenant, dataset } = &plan.selector else {
                unreachable!("empty resolution is glob-only")
            };
            return Err(QueryError::NoMatch {
                tenant: tenant.clone(),
                dataset: dataset.clone(),
            });
        }

        if snapshots.len() > 1 && !plan.coalesce {
            return Err(QueryError::NeedsCoalesce {
                matched: snapshots.len(),
            });
        }

        let fused = if snapshots.len() > 1 {
            let merge_span = trace.map(|(sink, _)| sink.now_nanos());
            let sketches: Vec<_> = snapshots
                .iter()
                .map(|source| Arc::clone(&source.sketch))
                .collect();
            let fused = merge_tree(&sketches).map_err(opaq_serve::ServeError::from)?;
            if let (Some((sink, parent)), Some(start)) = (trace, merge_span) {
                sink.child(parent, Stage::Merge, SpanTag::Untagged, start);
            }
            fused
        } else {
            Arc::clone(&snapshots[0].sketch)
        };

        let extract_span = trace.map(|(sink, _)| sink.now_nanos());
        let output = execute_on(&fused, &plan.extract)?;
        if let (Some((sink, parent)), Some(start)) = (trace, extract_span) {
            sink.child(parent, Stage::Extract, SpanTag::Untagged, start);
        }

        Ok(PlanResponse {
            output,
            total_elements: fused.total_elements(),
            sources: snapshots
                .into_iter()
                .map(|source| PlanSource {
                    tenant: source.tenant,
                    dataset: source.dataset,
                    version: source.version,
                    freshness: source.freshness,
                })
                .collect(),
        })
    }

    /// Union local matches with scatter-gathered partials, then restore the
    /// catalog's sorted key order so merge input order — and therefore the
    /// fused sketch — is exactly what an unpartitioned catalog would use.
    /// A key present on both sides keeps the higher version (the local copy
    /// on a tie), mirroring the catalog's strictly-greater publish rule.
    fn fuse_partials(
        local: Vec<ResolvedSource>,
        remote: Vec<RemotePartial>,
    ) -> Vec<ResolvedSource> {
        let mut union = local;
        for partial in remote {
            let existing = union
                .iter_mut()
                .find(|s| s.tenant == partial.tenant && s.dataset == partial.dataset);
            match existing {
                Some(held) if held.version >= partial.version => {}
                Some(held) => {
                    held.version = partial.version;
                    held.sketch = partial.sketch;
                    held.freshness = Freshness::Fresh;
                }
                None => union.push(ResolvedSource {
                    tenant: partial.tenant,
                    dataset: partial.dataset,
                    version: partial.version,
                    freshness: Freshness::Fresh,
                    sketch: partial.sketch,
                }),
            }
        }
        union.sort_by(|a, b| {
            (a.tenant.as_str(), a.dataset.as_str()).cmp(&(b.tenant.as_str(), b.dataset.as_str()))
        });
        union
    }

    /// Resolve a selector against the local catalog, in the catalog's
    /// sorted key order.  A glob that matches nothing locally is only an
    /// error when there is no scatter hook to consult peer groups.
    ///
    /// Traced, each snapshot records its own [`Stage::Snapshot`] span under
    /// the fetch span `fetch_id`, tagged with how the catalog produced it.
    /// Remote partials are accounted to the scatter span instead.
    fn fetch(
        &self,
        selector: &Selector,
        trace: Option<(&TraceSink, u32)>,
    ) -> Result<Vec<ResolvedSource>, QueryError> {
        let resolved_source = |tenant: &TenantId, dataset: &DatasetId| {
            let start = trace.map(|(sink, _)| sink.now_nanos());
            let snap = self.catalog.snapshot(tenant, dataset)?;
            if let (Some((sink, fetch_id)), Some(start)) = (trace, start) {
                let tag = if snap.refresh_triggered {
                    SpanTag::RefreshTriggered
                } else {
                    match snap.origin {
                        SnapshotOrigin::Hit => SpanTag::Hit,
                        SnapshotOrigin::ReloadFromSpill => SpanTag::ReloadFromSpill,
                    }
                };
                sink.child(fetch_id, Stage::Snapshot, tag, start);
            }
            Ok::<_, opaq_serve::ServeError>(ResolvedSource {
                tenant: tenant.clone(),
                dataset: dataset.clone(),
                version: snap.version,
                freshness: snap.freshness,
                sketch: snap.sketch,
            })
        };
        match selector {
            Selector::Exact { tenant, dataset } => Ok(vec![resolved_source(tenant, dataset)?]),
            Selector::Glob { .. } => {
                let mut resolved = Vec::new();
                for (tenant, dataset) in self.catalog.keys() {
                    if selector.matches(&tenant, &dataset) {
                        resolved.push(resolved_source(&tenant, &dataset)?);
                    }
                }
                if resolved.is_empty() && self.scatter.is_none() {
                    let Selector::Glob { tenant, dataset } = selector else {
                        unreachable!("outer match")
                    };
                    return Err(QueryError::NoMatch {
                        tenant: tenant.clone(),
                        dataset: dataset.clone(),
                    });
                }
                Ok(resolved)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::{IncrementalOpaq, OpaqConfig, OpaqError};
    use opaq_metrics::trace::{SpanRecorder, ROOT_SPAN_ID};
    use opaq_serve::{QueryRequest, ServeError};

    /// Run `plan` traced into a fresh recorder, whose per-stage histograms
    /// then hold what the executor timed.
    fn traced(executor: &PlanExecutor, plan: &QueryPlan) -> (PlanResponse, Arc<SpanRecorder>) {
        let recorder = Arc::new(SpanRecorder::new(64));
        let sink = TraceSink::new(Arc::clone(&recorder), TraceId::mint());
        let response = executor.execute_traced(plan, &sink, ROOT_SPAN_ID).unwrap();
        (response, recorder)
    }

    fn count(recorder: &SpanRecorder, stage: Stage) -> u64 {
        recorder.histogram(stage).count()
    }

    fn sketch_of(range: std::ops::Range<u64>) -> QuantileSketch<u64> {
        let config = OpaqConfig::builder()
            .run_length(500)
            .sample_size(50)
            .build()
            .unwrap();
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run(range.collect()).unwrap();
        inc.into_sketch().unwrap()
    }

    fn catalog_with(tenants: &[(&str, &str, std::ops::Range<u64>)]) -> Arc<SketchCatalog> {
        let catalog = Arc::new(SketchCatalog::unbounded());
        for (t, d, range) in tenants {
            catalog
                .publish(
                    &TenantId::from(*t),
                    &DatasetId::from(*d),
                    sketch_of(range.clone()),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn glob_plan_fuses_and_reports_every_source() {
        let catalog = catalog_with(&[
            ("tenant-0", "events", 0..1000),
            ("tenant-1", "events", 1000..2000),
            ("ttl-probe", "events", 0..10),
        ]);
        let executor = PlanExecutor::new(Arc::clone(&catalog));
        let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.5").unwrap();
        let (response, recorder) = traced(&executor, &plan);
        assert_eq!(response.total_elements, 2000);
        assert_eq!(response.sources.len(), 2);
        assert_eq!(response.sources[0].tenant.as_str(), "tenant-0");
        assert_eq!(response.sources[1].tenant.as_str(), "tenant-1");
        assert!(response
            .sources
            .iter()
            .all(|s| s.version == 1 && s.freshness == Freshness::Fresh));
        // Byte-replayable: the same merge offline gives the same output.
        let offline = merge_tree(&[
            catalog
                .snapshot(&TenantId::from("tenant-0"), &DatasetId::from("events"))
                .unwrap()
                .sketch,
            catalog
                .snapshot(&TenantId::from("tenant-1"), &DatasetId::from("events"))
                .unwrap()
                .sketch,
        ])
        .unwrap();
        assert_eq!(
            response.output,
            execute_on(&offline, &plan.extract).unwrap()
        );
        // Stage attribution: fetch and extract always record, merge did too.
        assert_eq!(count(&recorder, Stage::Fetch), 1);
        assert_eq!(count(&recorder, Stage::Merge), 1);
        assert_eq!(count(&recorder, Stage::Extract), 1);
        assert_eq!(count(&recorder, Stage::Snapshot), 2);
    }

    #[test]
    fn single_target_plan_skips_the_merge_stage() {
        let catalog = catalog_with(&[("acme", "events", 0..500)]);
        let executor = PlanExecutor::new(catalog);
        let plan = QueryPlan::single(
            TenantId::from("acme"),
            DatasetId::from("events"),
            QueryRequest::Rank { key: 250 },
        );
        let (response, recorder) = traced(&executor, &plan);
        assert_eq!(response.sources.len(), 1);
        assert_eq!(response.total_elements, 500);
        assert_eq!(count(&recorder, Stage::Merge), 0);
        assert_eq!(count(&recorder, Stage::Fetch), 1);
    }

    #[test]
    fn multi_source_without_coalesce_is_a_typed_error() {
        let catalog = catalog_with(&[("a", "events", 0..100), ("b", "events", 0..100)]);
        let executor = PlanExecutor::new(catalog);
        let plan = QueryPlan::parse("fetch */events | quantile 0.5").unwrap();
        match executor.execute(&plan) {
            Err(QueryError::NeedsCoalesce { matched }) => assert_eq!(matched, 2),
            other => panic!("expected NeedsCoalesce, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_glob_and_unknown_exact_are_distinct_errors() {
        let catalog = catalog_with(&[("a", "events", 0..100)]);
        let executor = PlanExecutor::new(catalog);
        let glob = QueryPlan::parse("fetch ghost-*/events | coalesce | quantile 0.5").unwrap();
        assert!(matches!(
            executor.execute(&glob),
            Err(QueryError::NoMatch { .. })
        ));
        let exact = QueryPlan::parse("fetch ghost/events | quantile 0.5").unwrap();
        assert!(matches!(
            executor.execute(&exact),
            Err(QueryError::Serve(ServeError::UnknownEntry { .. }))
        ));
    }

    #[test]
    fn estimation_errors_propagate_as_serve_errors() {
        let catalog = catalog_with(&[("a", "events", 0..100)]);
        let executor = PlanExecutor::new(catalog);
        let plan = QueryPlan::parse("fetch a/events | quantile 1.5").unwrap();
        assert!(matches!(executor.execute(&plan), Err(QueryError::Serve(_))));
    }

    #[test]
    fn traced_plan_records_fetch_snapshot_merge_and_extract_spans() {
        let catalog = catalog_with(&[("a", "events", 0..500), ("b", "events", 500..1000)]);
        let executor = PlanExecutor::new(catalog);
        let plan = QueryPlan::parse("fetch */events | coalesce | quantile 0.5").unwrap();
        let recorder = Arc::new(SpanRecorder::new(64));
        let sink = TraceSink::new(Arc::clone(&recorder), TraceId::mint());
        executor.execute_traced(&plan, &sink, ROOT_SPAN_ID).unwrap();
        sink.finish_root(Stage::Request, SpanTag::Untagged);

        let spans = recorder.trace(sink.trace());
        let of = |stage: Stage| {
            spans
                .iter()
                .filter(|s| s.stage == stage)
                .collect::<Vec<_>>()
        };
        let fetch = of(Stage::Fetch);
        assert_eq!(fetch.len(), 1);
        assert_eq!(fetch[0].parent, ROOT_SPAN_ID);
        let snapshots = of(Stage::Snapshot);
        assert_eq!(snapshots.len(), 2, "one snapshot child per source");
        assert!(snapshots.iter().all(|s| s.parent == fetch[0].span_id));
        assert!(snapshots.iter().all(|s| s.tag == SpanTag::Hit));
        assert_eq!(of(Stage::Merge).len(), 1);
        assert_eq!(of(Stage::Extract).len(), 1);
        assert_eq!(of(Stage::Request).len(), 1, "root span present");
    }

    /// A hook resolving against another catalog, as the server's
    /// cross-group hook does over HTTP.
    fn scatter_from(catalog: Arc<SketchCatalog>) -> Arc<ScatterFn> {
        Arc::new(move |selector: &Selector, _trace| {
            let mut partials = Vec::new();
            for (tenant, dataset) in catalog.keys() {
                if selector.matches(&tenant, &dataset) {
                    let snap = catalog.snapshot(&tenant, &dataset).unwrap();
                    partials.push(RemotePartial {
                        tenant,
                        dataset,
                        version: snap.version,
                        sketch: snap.sketch,
                    });
                }
            }
            Ok(partials)
        })
    }

    #[test]
    fn scatter_gathered_plan_matches_unpartitioned_catalog() {
        // Partition three tenants across two catalogs; the oracle holds all
        // three.  tenant-1 deliberately lands remotely so the union has to
        // interleave local and remote sources to restore key order.
        let local = catalog_with(&[("tenant-0", "events", 0..1000)]);
        let peer = catalog_with(&[
            ("tenant-1", "events", 1000..2000),
            ("tenant-2", "events", 2000..3000),
        ]);
        let oracle = catalog_with(&[
            ("tenant-0", "events", 0..1000),
            ("tenant-1", "events", 1000..2000),
            ("tenant-2", "events", 2000..3000),
        ]);
        let executor = PlanExecutor::new(local).with_scatter(scatter_from(peer));
        let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.5").unwrap();
        let (gathered, recorder) = traced(&executor, &plan);
        let reference = PlanExecutor::new(oracle).execute(&plan).unwrap();
        assert_eq!(gathered, reference, "scatter-gather must be transparent");
        assert_eq!(gathered.sources.len(), 3);
        assert_eq!(count(&recorder, Stage::Scatter), 1);
        // Only the local source gets a snapshot span; remote partials are
        // accounted to the scatter span.
        assert_eq!(count(&recorder, Stage::Snapshot), 1);
    }

    #[test]
    fn scatter_covers_globs_with_no_local_match() {
        let local = catalog_with(&[("other", "events", 0..100)]);
        let peer = catalog_with(&[("tenant-0", "events", 0..500)]);
        let executor = PlanExecutor::new(local).with_scatter(scatter_from(peer));
        let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | rank 250").unwrap();
        let response = executor.execute(&plan).unwrap();
        assert_eq!(response.sources.len(), 1);
        assert_eq!(response.sources[0].tenant.as_str(), "tenant-0");
        // A glob nobody matches is still NoMatch, even with a hook.
        let ghost = QueryPlan::parse("fetch ghost-*/events | coalesce | rank 1").unwrap();
        assert!(matches!(
            executor.execute(&ghost),
            Err(QueryError::NoMatch { .. })
        ));
    }

    #[test]
    fn scatter_prefers_the_higher_version_per_key() {
        let local = catalog_with(&[("dup", "events", 0..100)]);
        let peer = catalog_with(&[("dup", "events", 0..100)]);
        peer_publish(&peer, "dup", "events", 100..300);
        let executor =
            PlanExecutor::new(Arc::clone(&local)).with_scatter(scatter_from(Arc::clone(&peer)));
        let plan = QueryPlan::parse("fetch dup/* | coalesce | quantile 0.5").unwrap();
        let response = executor.execute(&plan).unwrap();
        assert_eq!(response.sources.len(), 1, "same key is deduplicated");
        assert_eq!(response.sources[0].version, 2, "higher version wins");
        assert_eq!(response.total_elements, 200);
        // Tie goes to the local copy: republish locally to version 2.
        peer_publish(&local, "dup", "events", 100..300);
        let tied = executor.execute(&plan).unwrap();
        assert_eq!(tied.sources[0].version, 2);
    }

    fn peer_publish(catalog: &SketchCatalog, tenant: &str, dataset: &str, r: std::ops::Range<u64>) {
        catalog
            .publish(
                &TenantId::from(tenant),
                &DatasetId::from(dataset),
                sketch_of(r),
            )
            .unwrap();
    }

    #[test]
    fn scatter_errors_propagate() {
        let local = catalog_with(&[("a", "events", 0..100)]);
        let executor = PlanExecutor::new(local).with_scatter(Arc::new(|_: &Selector, _| {
            Err(QueryError::Serve(ServeError::Opaq(OpaqError::EmptyDataset)))
        }));
        let plan = QueryPlan::parse("fetch */events | coalesce | quantile 0.5").unwrap();
        assert!(matches!(executor.execute(&plan), Err(QueryError::Serve(_))));
        // Exact plans never scatter, so the failing hook is not consulted.
        let exact = QueryPlan::parse("fetch a/events | quantile 0.5").unwrap();
        assert!(executor.execute(&exact).is_ok());
    }

    #[test]
    fn coalescing_one_source_is_harmless() {
        let catalog = catalog_with(&[("a", "events", 0..100)]);
        let executor = PlanExecutor::new(catalog);
        let plan = QueryPlan::parse("fetch a/* | coalesce | quantile 0.5").unwrap();
        let (response, recorder) = traced(&executor, &plan);
        assert_eq!(response.sources.len(), 1);
        assert_eq!(count(&recorder, Stage::Merge), 0);
        assert_eq!(count(&recorder, Stage::Scatter), 0, "no hook installed");
    }
}
