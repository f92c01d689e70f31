//! What the per-stage histograms on `/metrics` mean, pinned over a real
//! loopback socket through the `opaq` facade.
//!
//! Every stage is timed once, by the span it records, and the span recorder
//! feeds that span into `opaq_stage_duration_nanos{stage=…}`.  So the root
//! `request` span counts every answered request, errors included, exactly
//! as `opaq_http_requests` does; `fetch` and `extract` count only plans
//! that resolved; `merge` counts only plans that fused two or more
//! sketches; and the exposition schema is the same before and after
//! traffic.  Child spans nest inside their parents, so their sums do too.

use opaq::core::{IncrementalOpaq, OpaqConfig};
use opaq::metrics::Stage;
use opaq::net::{HttpClient, HttpServer, ServerConfig};
use opaq::serve::{DatasetId, TenantId};
use opaq::{QueryEngine, SketchCatalog};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

const POINT_GETS: u64 = 6;

fn server_over_tenants(tenants: u64) -> HttpServer {
    let config = OpaqConfig::builder()
        .run_length(1_000)
        .sample_size(100)
        .build()
        .unwrap();
    let catalog = Arc::new(SketchCatalog::unbounded());
    for t in 0..tenants {
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run((t * 4_000..(t + 1) * 4_000).collect()).unwrap();
        catalog
            .publish(
                &TenantId::new(format!("tenant-{t}")),
                &DatasetId::new("events"),
                inc.into_sketch().unwrap(),
            )
            .unwrap();
    }
    HttpServer::start(Arc::new(QueryEngine::new(catalog)), ServerConfig::default()).unwrap()
}

/// The value of the one sample line named exactly `series`.
fn sample(scrape: &str, series: &str) -> u64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {series}:\n{scrape}"))
        .parse()
        .unwrap()
}

fn stage_sum(scrape: &str, stage: Stage) -> u64 {
    sample(
        scrape,
        &format!("opaq_stage_duration_nanos_sum{{stage=\"{stage}\"}}"),
    )
}

fn stage_count(scrape: &str, stage: Stage) -> u64 {
    sample(
        scrape,
        &format!("opaq_stage_duration_nanos_count{{stage=\"{stage}\"}}"),
    )
}

fn type_lines(scrape: &str) -> Vec<&str> {
    scrape
        .lines()
        .filter(|line| line.starts_with("# TYPE"))
        .collect()
}

#[test]
fn stage_histograms_count_what_their_spans_time() {
    let server = server_over_tenants(2);
    let mut client = HttpClient::new(server.local_addr().to_string());
    let scrape = |client: &mut HttpClient| {
        let response = client.get("/metrics").unwrap();
        assert_eq!(response.status, 200);
        response.body_str().unwrap().to_string()
    };
    let cold = scrape(&mut client);

    for i in 0..POINT_GETS {
        let target = format!("/v1/tenant-{}/events/quantile?phi=0.5", i % 2);
        assert_eq!(client.get(&target).unwrap().status, 200, "{target}");
    }
    let plan = r#"{"plan":"fetch tenant-*/events | coalesce | quantile 0.5"}"#;
    assert_eq!(client.post_json("/v1/query", plan).unwrap().status, 200);
    let ghost = client.get("/v1/ghost/events/quantile?phi=0.5").unwrap();
    assert_eq!(ghost.status, 404);
    // A malformed request on its own connection; reading to EOF means the
    // worker has finished with it, write span included.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"BANANAS\r\n\r\n").unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer:?}");

    let warm = scrape(&mut client);
    // Cold scrape, point GETs, the plan, the 404 and the 400; the warm
    // scrape is still in flight while it renders, so neither its root nor
    // its write counts yet.
    let answered = POINT_GETS + 4;
    assert_eq!(sample(&warm, "opaq_http_requests"), answered);
    assert_eq!(stage_count(&warm, Stage::Request), answered, "errors count");
    // The warm scrape itself was parsed before it rendered.
    assert_eq!(stage_count(&warm, Stage::Parse), answered + 1);
    assert_eq!(stage_count(&warm, Stage::Write), answered);
    assert_eq!(
        stage_count(&warm, Stage::Queue),
        server.stats().connections,
        "one queue wait per connection"
    );
    // Only resolved plans fetch and extract: the 404 never resolved.
    assert_eq!(stage_count(&warm, Stage::Fetch), POINT_GETS + 1);
    assert_eq!(stage_count(&warm, Stage::Extract), POINT_GETS + 1);
    assert_eq!(stage_count(&warm, Stage::Snapshot), POINT_GETS + 2);
    assert_eq!(stage_count(&warm, Stage::Merge), 1, "only the coalesce");
    for stage in Stage::ALL {
        stage_count(&warm, stage); // one series per stage, even at zero
    }
    assert!(!warm.contains("opaq_plan_stage_"), "{warm}");
    assert!(!warm.contains("opaq_request_duration_nanos"), "{warm}");

    // Schema stability: every family is registered before any traffic.
    assert_eq!(type_lines(&cold), type_lines(&warm));
}

#[test]
fn plan_stage_spans_nest_inside_their_request() {
    const TENANTS: u64 = 8;
    const PLANS: u64 = 20;
    let server = server_over_tenants(TENANTS);
    let mut client = HttpClient::new(server.local_addr().to_string());
    let plan = r#"{"plan":"fetch tenant-*/events | coalesce | quantile 0.5,0.9"}"#;
    for _ in 0..PLANS {
        assert_eq!(client.post_json("/v1/query", plan).unwrap().status, 200);
    }
    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200);
    let scrape = response.body_str().unwrap();

    assert_eq!(stage_count(scrape, Stage::Snapshot), PLANS * TENANTS);
    let snapshots = stage_sum(scrape, Stage::Snapshot);
    let fetch = stage_sum(scrape, Stage::Fetch);
    assert!(
        snapshots <= fetch,
        "snapshot spans sum to {snapshots} ns, more than their fetch spans' {fetch} ns"
    );
    let plan_stages = fetch + stage_sum(scrape, Stage::Merge) + stage_sum(scrape, Stage::Extract);
    let request = stage_sum(scrape, Stage::Request);
    assert!(
        plan_stages <= request,
        "fetch + merge + extract sum to {plan_stages} ns, more than the requests' {request} ns"
    );
}
