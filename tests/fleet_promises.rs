//! The fleet's two durability promises, pinned through library APIs alone:
//! a catalog reopened from its `data_dir` answers exactly as it did before,
//! and a replica bootstrapped from a live peer answers exactly as the peer.
//! "Exactly" means the same inventory (tenant, dataset, version) and the
//! same response bytes from the renderers the HTTP server uses, for every
//! request type and for a coalesced plan.

use opaq::core::{IncrementalOpaq, OpaqConfig};
use opaq::net::server::{render_plan_response_json, render_response_json};
use opaq::net::{sync, HttpServer, ServerConfig};
use opaq::query::QueryPlan;
use opaq::serve::{CatalogConfig, DatasetId, InventoryEntry, QueryResponse, TenantId};
use opaq::{PlanExecutor, QueryEngine, QueryRequest, SketchCatalog};
use std::path::PathBuf;
use std::sync::Arc;

fn sketch_of(range: std::ops::Range<u64>) -> opaq::QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(1_000)
        .sample_size(100)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run(range.map(|i| (i * 2_654_435_761) % 1_000_003).collect())
        .unwrap();
    inc.into_sketch().unwrap()
}

/// Three tenants; `tenant-1` is republished, so versions differ.
fn publish_tenants(catalog: &SketchCatalog) {
    for t in 0..3u64 {
        catalog
            .publish(
                &TenantId::new(format!("tenant-{t}")),
                &DatasetId::new("events"),
                sketch_of(t * 5_000..(t + 1) * 5_000),
            )
            .unwrap();
    }
    catalog
        .publish(
            &TenantId::new("tenant-1"),
            &DatasetId::new("events"),
            sketch_of(20_000..27_000),
        )
        .unwrap();
}

/// Every request type on every tenant, plus one coalesced plan over all of
/// them, rendered as the server renders them.
fn answers(catalog: &Arc<SketchCatalog>) -> Vec<String> {
    let executor = PlanExecutor::new(Arc::clone(catalog));
    let mut out = Vec::new();
    for entry in catalog.inventory() {
        for request in [
            QueryRequest::Quantile { phi: 0.5 },
            QueryRequest::Rank { key: 400_000 },
            QueryRequest::QuantileBatch {
                phis: vec![0.01, 0.25, 0.99],
            },
            QueryRequest::Profile { count: 8 },
        ] {
            let plan = QueryPlan::single(
                TenantId::new(&entry.tenant),
                DatasetId::new(&entry.dataset),
                request,
            );
            let executed = executor.execute(&plan).unwrap();
            out.push(render_response_json(&QueryResponse {
                output: executed.output,
                version: executed.sources[0].version,
                total_elements: executed.total_elements,
                freshness: executed.sources[0].freshness,
            }));
        }
    }
    let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.1,0.5,0.9").unwrap();
    out.push(render_plan_response_json(&executor.execute(&plan).unwrap()));
    out
}

fn versions(inventory: &[InventoryEntry]) -> Vec<u64> {
    inventory.iter().map(|e| e.version).collect()
}

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "opaq-fleet-promises-{name}-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_reopened_durable_catalog_answers_byte_for_byte() {
    let dir = TempDir::new("reopen");
    let config = CatalogConfig::builder().data_dir(&dir.0).build().unwrap();
    let (inventory, before) = {
        let catalog = Arc::new(SketchCatalog::new(config.clone()).unwrap());
        publish_tenants(&catalog);
        (catalog.inventory(), answers(&catalog))
    };
    assert_eq!(versions(&inventory), vec![1, 2, 1]);

    let reopened = Arc::new(SketchCatalog::new(config).unwrap());
    assert_eq!(reopened.recovery().map(|r| r.entries), Some(3));
    assert_eq!(reopened.inventory(), inventory);
    assert_eq!(answers(&reopened), before);
}

#[test]
fn a_replica_bootstrapped_from_a_live_peer_answers_byte_for_byte() {
    let primary = Arc::new(SketchCatalog::unbounded());
    publish_tenants(&primary);
    let server = HttpServer::start(
        Arc::new(QueryEngine::new(Arc::clone(&primary))),
        ServerConfig::default(),
    )
    .unwrap();

    let replica = Arc::new(SketchCatalog::unbounded());
    let applied = sync::bootstrap(&replica, &server.local_addr().to_string(), None, None).unwrap();
    assert_eq!(applied, 3);
    assert_eq!(replica.inventory(), primary.inventory());
    assert_eq!(versions(&replica.inventory()), vec![1, 2, 1]);
    assert_eq!(answers(&replica), answers(&primary));
}
