//! Multi-tenant sketch serving: catalog, typed queries, live refresh.
//!
//! Builds sketches for two tenants, answers typed queries through the plan
//! executor (the path every served answer takes), publishes a live refresh
//! for one tenant mid-stream, and shows that an in-flight reader's snapshot
//! is unaffected by the epoch swap.
//!
//! Run with `cargo run --example multi_tenant_serving`.

use opaq::core::{IncrementalOpaq, OpaqConfig};
use opaq::serve::{DatasetId, QueryOutput, QueryRequest, SketchCatalog, TenantId};
use opaq::{MemRunStore, PlanExecutor, QueryPlan, ShardedOpaq};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = OpaqConfig::builder()
        .run_length(10_000)
        .sample_size(500)
        .build()?;

    // Two tenants, each with their own dataset ingested the sharded way.
    let catalog = Arc::new(SketchCatalog::unbounded());
    let executor = PlanExecutor::new(Arc::clone(&catalog));
    let acme = (TenantId::new("acme"), DatasetId::new("latencies"));
    let globex = (TenantId::new("globex"), DatasetId::new("latencies"));
    for (i, (tenant, dataset)) in [&acme, &globex].into_iter().enumerate() {
        let keys: Vec<u64> = (0..100_000u64)
            .map(|k| (k * 48_271 + i as u64 * 7_919) % 1_000_000)
            .collect();
        let store = MemRunStore::new(keys, 10_000);
        let sketch = ShardedOpaq::new(config, 4)?.build_sketch(&store)?;
        let version = catalog.publish(tenant, dataset, sketch)?;
        println!("published {tenant}/{dataset} as version {version}");
    }

    // Typed queries as one-target plans; each response names the version
    // that answered it.
    let p99 = QueryPlan::single(
        acme.0.clone(),
        acme.1.clone(),
        QueryRequest::Quantile { phi: 0.99 },
    );
    let response = executor.execute(&p99)?;
    if let QueryOutput::Quantile(est) = &response.output {
        println!(
            "acme p99 (version {}): [{}, {}] over {} keys",
            response.sources[0].version, est.lower, est.upper, response.total_elements
        );
    }

    // An in-flight reader keeps its complete snapshot across a refresh.
    let before = catalog.snapshot(&acme.0, &acme.1)?;
    let mut inc = IncrementalOpaq::new(config)?;
    inc.add_run((1_000_000..1_100_000u64).collect())?; // new, much larger keys
    catalog.publish(&acme.0, &acme.1, inc.into_sketch().expect("non-empty"))?;
    let after = catalog.snapshot(&acme.0, &acme.1)?;
    println!(
        "refresh swapped acme from version {} ({} keys) to version {} ({} keys); \
         the old snapshot still answers from its own epoch",
        before.version,
        before.sketch.total_elements(),
        after.version,
        after.sketch.total_elements()
    );
    assert_eq!(before.sketch.total_elements(), 100_000);
    assert_eq!(after.version, before.version + 1);

    // Answers are a pure function of the published version: the same plan
    // gives the same answer until the next publish.
    let profile = QueryPlan::single(
        globex.0.clone(),
        globex.1.clone(),
        QueryRequest::Profile { count: 10 },
    );
    let first = executor.execute(&profile)?;
    let start = Instant::now();
    for _ in 0..1000 {
        assert_eq!(executor.execute(&profile)?, first);
    }
    println!(
        "{}: 1000 profile queries at version {}, {:?} each, all identical",
        globex.0,
        first.sources[0].version,
        start.elapsed() / 1000
    );
    Ok(())
}
