//! Query-plan microbenchmarks: what the composable pipeline costs next to
//! answering from a catalog snapshot by hand.
//!
//! Before any timing, a consistency gate re-derives the plan answers
//! offline: the coalescing plan's output must equal fusing the same
//! snapshots by hand with `merge_tree` and querying the fused sketch, with
//! every tenant accounted for in the provenance; and the degenerate
//! single-target plan must equal `execute_on` over the entry's snapshot,
//! version included.  A divergence fails `cargo bench` before a single
//! measurement.
//!
//! Then criterion times three things: parsing plan text, the degenerate
//! single-target plan against a snapshot plus `execute_on` by hand (what
//! the executor adds to a GET route's answer), and the glob fan-out +
//! merge-tree coalesce at increasing tenant counts.
//!
//! Set `OPAQ_BENCH_QUICK=1` (per-PR CI smoke) to shrink the datasets; the
//! consistency gate runs at full strength either way.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_core::{IncrementalOpaq, OpaqConfig};
use opaq_datagen::{DatasetSpec, Distribution};
use opaq_query::{merge_tree, PlanExecutor, QueryPlan};
use opaq_serve::{execute_on, DatasetId, QueryRequest, SketchCatalog, TenantId};
use std::sync::Arc;

fn quick_mode() -> bool {
    std::env::var_os("OPAQ_BENCH_QUICK").is_some()
}

fn catalog_with_tenants(tenants: usize) -> Arc<SketchCatalog> {
    let keys_per_tenant = if quick_mode() { 20_000 } else { 100_000 };
    let config = OpaqConfig::builder()
        .run_length(5_000)
        .sample_size(500)
        .build()
        .unwrap();
    let catalog = Arc::new(SketchCatalog::unbounded());
    for tenant_idx in 0..tenants {
        let keys = DatasetSpec {
            n: keys_per_tenant,
            distribution: Distribution::Uniform { domain: 1 << 31 },
            duplicate_fraction: 0.1,
            seed: 42 + tenant_idx as u64,
        }
        .generate();
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run(keys).unwrap();
        catalog
            .publish(
                &TenantId::new(format!("tenant-{tenant_idx}")),
                &DatasetId::new("events"),
                inc.into_sketch().unwrap(),
            )
            .unwrap();
    }
    catalog
}

/// The gate: plan answers must equal the manual merge + direct query, with
/// full provenance, before anything is timed.
fn verify_plan_consistency(tenants: usize) -> (Arc<SketchCatalog>, PlanExecutor) {
    let catalog = catalog_with_tenants(tenants);
    let executor = PlanExecutor::new(Arc::clone(&catalog));

    let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.5,0.99").unwrap();
    let response = executor.execute(&plan).unwrap();
    assert_eq!(
        response.sources.len(),
        tenants,
        "the glob must fan out over every tenant"
    );
    let sketches: Vec<_> = response
        .sources
        .iter()
        .map(|s| {
            catalog
                .snapshot(&s.tenant, &s.dataset)
                .expect("claimed source must exist")
                .sketch
        })
        .collect();
    let fused = merge_tree(&sketches).unwrap();
    assert_eq!(
        response.output,
        execute_on(&fused, &plan.extract).unwrap(),
        "plan answer must equal the offline merge + direct query"
    );
    assert_eq!(response.total_elements, fused.total_elements());

    let (tenant, dataset) = (TenantId::new("tenant-0"), DatasetId::new("events"));
    let request = QueryRequest::Quantile { phi: 0.5 };
    let snapshot = catalog.snapshot(&tenant, &dataset).unwrap();
    let direct = execute_on(&snapshot.sketch, &request).unwrap();
    let degenerate = executor
        .execute(&QueryPlan::single(tenant, dataset, request))
        .unwrap();
    assert_eq!(degenerate.output, direct);
    assert_eq!(degenerate.sources[0].version, snapshot.version);

    (catalog, executor)
}

fn bench_query_plan(c: &mut Criterion) {
    let fan_outs: &[usize] = if quick_mode() { &[4] } else { &[4, 16] };
    let max_tenants = *fan_outs.iter().max().unwrap();
    let (catalog, executor) = verify_plan_consistency(max_tenants);
    println!(
        "== query_plan consistency gate passed ({max_tenants} tenants, \
         plan == offline merge + direct query) =="
    );

    // Parse throughput: the hand-rolled pipeline grammar.
    let mut group = c.benchmark_group("plan_parse");
    for text in [
        "fetch acme/events | quantile 0.5",
        "fetch tenant-*/ev-?? | coalesce | quantile 0.25,0.5,0.75,0.99",
        "fetch */* | coalesce | profile 32",
    ] {
        group.bench_with_input(BenchmarkId::new("text", text), text, |b, text| {
            b.iter(|| QueryPlan::parse(black_box(text)).unwrap())
        });
    }
    group.finish();

    // What the executor adds to a GET route's answer: the degenerate
    // one-target plan against a snapshot plus `execute_on` by hand.
    let (tenant, dataset) = (TenantId::new("tenant-0"), DatasetId::new("events"));
    let request = QueryRequest::Quantile { phi: 0.5 };
    let mut group = c.benchmark_group("single_target");
    group.bench_function("snapshot_execute_on", |b| {
        b.iter(|| {
            let snapshot = catalog
                .snapshot(black_box(&tenant), black_box(&dataset))
                .unwrap();
            black_box(execute_on(&snapshot.sketch, black_box(&request)).unwrap())
        })
    });
    let single = QueryPlan::single(tenant.clone(), dataset.clone(), request.clone());
    group.bench_function("degenerate_plan", |b| {
        b.iter(|| black_box(executor.execute(black_box(&single)).unwrap()))
    });
    group.finish();

    // Glob fan-out + merge-tree coalesce at two fan-out widths against the
    // same catalog: `tenant-?` resolves the single-digit tenants, `tenant-*`
    // all of them.  The measured fan-out is derived from a dry run, not
    // assumed.
    let mut group = c.benchmark_group("glob_coalesce");
    group.sample_size(20);
    for pattern in ["tenant-?/events", "tenant-*/events"] {
        let plan = QueryPlan::parse(&format!("fetch {pattern} | coalesce | quantile 0.5")).unwrap();
        let fan_out = executor.execute(&plan).unwrap().sources.len();
        println!("glob_coalesce: {pattern} fans out over {fan_out} tenants");
        group.bench_with_input(BenchmarkId::new("pattern", pattern), &plan, |b, plan| {
            b.iter(|| black_box(executor.execute(black_box(plan)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_plan);
criterion_main!(benches);
