//! A new key whose first publish fails must leave no entry behind: a glob
//! plan that would have matched it keeps answering over the entries that
//! really hold a version.

use opaq_core::{IncrementalOpaq, OpaqConfig, QuantileSketch};
use opaq_query::{PlanExecutor, QueryPlan};
use opaq_serve::{CatalogConfig, DatasetId, QueryOutput, ServeError, SketchCatalog, TenantId};
use opaq_storage::AppendFault;
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

#[test]
fn a_failed_first_publish_leaves_glob_plans_answering() {
    let dir = std::env::temp_dir().join(format!("opaq-query-phantom-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let catalog = Arc::new(
        SketchCatalog::new(CatalogConfig::builder().data_dir(&dir).build().unwrap()).unwrap(),
    );
    let data = DatasetId::new("data");
    for t in 0..3u64 {
        let tenant = TenantId::new(format!("tenant-{t}"));
        let range = t * 2_000..(t + 1) * 2_000;
        catalog.publish(&tenant, &data, sketch_of(range)).unwrap();
    }

    // The manifest append of a new key's first publish fails, and so does
    // a replicated first publish offering version 0.
    let ghost = TenantId::new("ghost");
    catalog.inject_manifest_fault(AppendFault::TornWrite { keep_bytes: 0 });
    assert!(catalog.publish(&ghost, &data, sketch_of(0..500)).is_err());
    assert!(matches!(
        catalog.publish_at(&ghost, &data, sketch_of(0..500), 0),
        Err(ServeError::StaleVersion { current: 0, .. })
    ));
    assert!(!catalog.contains(&ghost, &data));
    assert_eq!(catalog.len(), 3);
    assert_eq!(catalog.stats().entries, 3);
    assert!(catalog.keys().iter().all(|(tenant, _)| *tenant != ghost));

    let plan = QueryPlan::parse("fetch */data | coalesce | quantile 0.5").unwrap();
    let response = PlanExecutor::new(Arc::clone(&catalog))
        .execute(&plan)
        .unwrap();
    assert_eq!(response.sources.len(), 3);
    assert_eq!(response.total_elements, 6_000);
    assert!(matches!(response.output, QueryOutput::Quantile(_)));

    // The key is free for a later publish, which starts at version 1.
    assert_eq!(
        catalog.publish(&ghost, &data, sketch_of(0..500)).unwrap(),
        1
    );
    assert_eq!(catalog.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
