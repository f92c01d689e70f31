//! HTTP serving walkthrough: the `opaq-net` front-end over the multi-tenant
//! catalog — versioned responses, TTL staleness, metrics — all over a real
//! loopback socket.
//!
//! Run with `cargo run --example http_serving`.

use opaq::core::{IncrementalOpaq, OpaqConfig};
use opaq::net::{HttpClient, HttpServer, Json, ServerConfig, FRESHNESS_HEADER, VERSION_HEADER};
use opaq::serve::{DatasetId, QueryEngine, RefreshPool, SketchCatalog, TenantId};
use std::sync::Arc;
use std::time::Duration;

fn sketch_of(range: std::ops::Range<u64>) -> opaq::QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(10_000)
        .sample_size(500)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run(range.collect()).unwrap();
    inc.into_sketch().unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One tenant with 100k keys, served over HTTP on an ephemeral port.
    let catalog = Arc::new(SketchCatalog::unbounded());
    let (tenant, dataset) = (TenantId::new("acme"), DatasetId::new("latencies"));
    catalog.publish(&tenant, &dataset, sketch_of(0..100_000))?;
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let mut server = HttpServer::start(Arc::clone(&engine), ServerConfig::default())?;
    let addr = server.local_addr();
    println!("serving on http://{addr}");

    // Every endpoint family, through the plain HTTP client.
    let mut client = HttpClient::new(addr.to_string());
    let response = client.get("/v1/acme/latencies/quantile?phi=0.99")?;
    println!(
        "GET quantile?phi=0.99 -> {} (version {}, {})\n  {}",
        response.status,
        response.header(VERSION_HEADER).unwrap_or("?"),
        response.header(FRESHNESS_HEADER).unwrap_or("?"),
        response.body_str()?
    );
    assert_eq!(response.status, 200);

    let response = client.get("/v1/acme/latencies/rank?key=50000")?;
    let parsed = Json::parse(response.body_str()?)?;
    let rank = parsed.get("rank").expect("rank payload");
    println!(
        "GET rank?key=50000 -> rank in [{}, {}]",
        rank.get("min_rank").and_then(Json::as_u64).unwrap(),
        rank.get("max_rank").and_then(Json::as_u64).unwrap()
    );

    let response = client.post_json(
        "/v1/acme/latencies/quantile_batch",
        "{\"phis\":[0.25,0.5,0.75]}",
    )?;
    let parsed = Json::parse(response.body_str()?)?;
    println!(
        "POST quantile_batch -> {} estimates from one consistent version",
        parsed
            .get("estimates")
            .and_then(Json::as_array)
            .unwrap()
            .len()
    );

    // TTL: age the entry out after 150ms; an expired read serves the old
    // version tagged stale/refreshing while the refresh pool re-ingests.
    let pool = Arc::new(RefreshPool::new(Arc::clone(&catalog), 1, None)?);
    let weak = Arc::downgrade(&pool);
    catalog.set_ttl(&tenant, &dataset, Some(Duration::from_millis(150)))?;
    catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
        let Some(pool) = weak.upgrade() else {
            return false;
        };
        pool.submit(tenant, dataset, || Ok(sketch_of(0..200_000)))
            .is_ok()
    }));
    std::thread::sleep(Duration::from_millis(200));
    let expired = client.get("/v1/acme/latencies/quantile?phi=0.5")?;
    println!(
        "after TTL expiry -> version {} served '{}' (stale-while-refresh)",
        expired.header(VERSION_HEADER).unwrap_or("?"),
        expired.header(FRESHNESS_HEADER).unwrap_or("?"),
    );
    assert_ne!(expired.header(FRESHNESS_HEADER), Some("fresh"));
    assert!(pool.wait_idle(Duration::from_secs(10)));
    let refreshed = client.get("/v1/acme/latencies/quantile?phi=0.5")?;
    println!(
        "after background refresh -> version {} served '{}'",
        refreshed.header(VERSION_HEADER).unwrap_or("?"),
        refreshed.header(FRESHNESS_HEADER).unwrap_or("?"),
    );
    assert_eq!(refreshed.header(VERSION_HEADER), Some("2"));
    assert_eq!(refreshed.header(FRESHNESS_HEADER), Some("fresh"));

    // Observability comes with the front-end.
    let metrics = client.get("/metrics")?;
    let interesting: Vec<&str> = metrics
        .body_str()?
        .lines()
        .filter(|l| l.contains("p99\"") || l.starts_with("opaq_catalog_publishes"))
        .collect();
    println!("metrics excerpt:\n  {}", interesting.join("\n  "));

    server.shutdown();
    pool.shutdown();
    println!("clean shutdown: server drained, refresh pool drained");
    Ok(())
}
