//! Plan-equivalence suite: a pipeline must be a *refactoring* of the manual
//! workflow, never a different computation.
//!
//! Two equivalences are pinned.  A coalescing plan's answer equals merging
//! the same snapshots by hand (the deterministic tree, and for three
//! sources the plain left-fold it degenerates to) and querying the fused
//! sketch directly.  And a degenerate single-target plan equals
//! `execute_on` over the entry's catalog snapshot, with that snapshot's
//! version and freshness — the guarantee that lets the HTTP layer route its
//! GET family through the plan executor without changing a byte.

use opaq_core::{IncrementalOpaq, OpaqConfig, QuantileSketch};
use opaq_query::{merge_tree, PlanExecutor, QueryPlan};
use opaq_serve::{execute_on, DatasetId, QueryRequest, SketchCatalog, TenantId};
use std::sync::Arc;

fn sketch_of(range: std::ops::Range<u64>) -> QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(1_000)
        .sample_size(100)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run(range.collect()).unwrap();
    inc.into_sketch().unwrap()
}

fn fixture() -> (Arc<SketchCatalog>, Vec<Arc<QuantileSketch<u64>>>) {
    let catalog = Arc::new(SketchCatalog::unbounded());
    let ranges = [0..4_000u64, 4_000..7_000, 7_000..12_000];
    let mut sketches = Vec::new();
    for (i, range) in ranges.into_iter().enumerate() {
        let sketch = sketch_of(range);
        sketches.push(Arc::new(sketch.clone()));
        catalog
            .publish(
                &TenantId::new(format!("tenant-{i}")),
                &DatasetId::new("events"),
                sketch,
            )
            .unwrap();
    }
    // An entry the `tenant-*` glob must not see.
    catalog
        .publish(
            &TenantId::new("other"),
            &DatasetId::new("events"),
            sketch_of(0..50),
        )
        .unwrap();
    (catalog, sketches)
}

fn extracts() -> Vec<(&'static str, QueryRequest)> {
    vec![
        ("quantile 0.5", QueryRequest::Quantile { phi: 0.5 }),
        (
            "quantile 0.1,0.5,0.9",
            QueryRequest::QuantileBatch {
                phis: vec![0.1, 0.5, 0.9],
            },
        ),
        ("rank 6000", QueryRequest::Rank { key: 6_000 }),
        ("profile 16", QueryRequest::Profile { count: 16 }),
    ]
}

#[test]
fn coalescing_plan_equals_manual_merge_plus_direct_query() {
    let (catalog, sketches) = fixture();
    let executor = PlanExecutor::new(catalog);
    // The canonical offline fuse, and the left-fold it must equal for three
    // inputs (the tree is ((0+1)+2) with the odd sketch carried over).
    let fused = merge_tree(&sketches).unwrap();
    let folded = sketches[0]
        .merge(&sketches[1])
        .unwrap()
        .merge(&sketches[2])
        .unwrap();
    assert_eq!(*fused, folded, "tree and fold agree on three inputs");

    for (extract, request) in extracts() {
        let plan =
            QueryPlan::parse(&format!("fetch tenant-*/events | coalesce | {extract}")).unwrap();
        let response = executor.execute(&plan).unwrap();
        assert_eq!(
            response.output,
            execute_on(&fused, &request).unwrap(),
            "plan '{extract}' differs from the manual merge + direct query"
        );
        assert_eq!(response.total_elements, fused.total_elements());
        assert_eq!(
            response.sources.len(),
            3,
            "the glob saw exactly the fan-out"
        );
        assert!(response
            .sources
            .iter()
            .all(|s| s.tenant.as_str().starts_with("tenant-")));
    }
}

#[test]
fn degenerate_plan_equals_execute_on_its_snapshot() {
    let (catalog, _sketches) = fixture();
    let executor = PlanExecutor::new(Arc::clone(&catalog));
    let (tenant, dataset) = (TenantId::new("tenant-1"), DatasetId::new("events"));

    for (extract, request) in extracts() {
        let snapshot = catalog.snapshot(&tenant, &dataset).unwrap();
        let direct = execute_on(&snapshot.sketch, &request).unwrap();
        // Typed single-target construction, as the HTTP GET family uses...
        let plan = QueryPlan::single(tenant.clone(), dataset.clone(), request);
        let via_plan = executor.execute(&plan).unwrap();
        assert_eq!(via_plan.output, direct, "{extract}");
        assert_eq!(via_plan.total_elements, snapshot.sketch.total_elements());
        let source = &via_plan.sources[0];
        assert_eq!(via_plan.sources.len(), 1);
        assert_eq!(source.version, snapshot.version);
        assert_eq!(source.freshness, snapshot.freshness);
        // ...and the parsed text form lands on the same response.
        let parsed = QueryPlan::parse(&format!("fetch tenant-1/events | {extract}")).unwrap();
        assert_eq!(executor.execute(&parsed).unwrap(), via_plan);
    }
}

#[test]
fn plan_answers_are_stable_across_repeated_execution() {
    // Determinism end to end: same catalog, same plan, same bytes-to-be —
    // the property the workload verifier leans on.
    let (catalog, _sketches) = fixture();
    let executor = PlanExecutor::new(catalog);
    let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.25,0.75").unwrap();
    let first = executor.execute(&plan).unwrap();
    for _ in 0..5 {
        assert_eq!(executor.execute(&plan).unwrap(), first);
    }
}
