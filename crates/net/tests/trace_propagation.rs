//! Trace-id propagation over real sockets: every response carries
//! `x-opaq-trace-id`, a valid incoming id is echoed (not re-minted), the id
//! survives replica failover retries and degraded last-good replay, and the
//! serving replica's `/v1/_debug/trace` turns the id back into a span tree.

use opaq_core::{IncrementalOpaq, OpaqConfig};
use opaq_metrics::{Stage, TraceId, ROOT_SPAN_ID};
use opaq_net::{
    bootstrap, BreakerConfig, GroupConfig, HashRing, HttpClient, HttpServer, ReplicaConfig,
    ReplicaSet, ReplicationStats, RingConfig, RingMembership, RoutedFleet, ServerConfig,
    OWNER_HEADER, TRACE_HEADER,
};
use opaq_serve::{DatasetId, QueryEngine, SketchCatalog, TenantId};
use std::sync::Arc;
use std::time::Duration;

fn sketch_of(seed: u64, n: u64) -> opaq_core::QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(1000)
        .sample_size(100)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run(
        (0..n)
            .map(|i| i.wrapping_mul(seed | 1) % (1 << 20))
            .collect(),
    )
    .unwrap();
    inc.into_sketch().unwrap()
}

fn primary_with(tenants: &[(&str, &str, u64)]) -> (Arc<SketchCatalog>, HttpServer, String) {
    let catalog = Arc::new(SketchCatalog::unbounded());
    for (i, (tenant, dataset, n)) in tenants.iter().enumerate() {
        catalog
            .publish(
                &TenantId::new(*tenant),
                &DatasetId::new(*dataset),
                sketch_of(i as u64 + 3, *n),
            )
            .unwrap();
    }
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (catalog, server, addr)
}

fn fast_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 4,
        min_samples: 1,
        failure_threshold: 0.5,
        cooldown: Duration::from_millis(50),
    }
}

fn fast_replica_config(retry_passes: u32) -> ReplicaConfig {
    ReplicaConfig::builder()
        .breaker(fast_breaker())
        .read_timeout(Duration::from_millis(500))
        .connect_timeout(Duration::from_millis(200))
        .retry_passes(retry_passes)
        .build()
        .unwrap()
}

#[test]
fn server_echoes_a_valid_incoming_trace_id_and_mints_otherwise() {
    let (_catalog, mut server, addr) = primary_with(&[("acme", "events", 4_000)]);
    let mut client = HttpClient::new(addr);

    // No stamp: the front door mints one — present and well-formed.
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.status, 200);
    let minted = response
        .header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .expect("every response carries a parseable trace id");

    // Stamp a fresh id: the response echoes it, byte for byte.
    let stamped = TraceId::mint();
    assert_ne!(stamped, minted);
    client.set_trace_id(Some(stamped));
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header(TRACE_HEADER), Some(&*stamped.to_string()));

    // Errors carry the id too: a 404 and a parse-level 400 both echo it.
    let response = client.get("/v1/ghost/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.status, 404);
    assert_eq!(response.header(TRACE_HEADER), Some(&*stamped.to_string()));
    let response = client.get("/v1/acme/events/quantile?phi=nope").unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.header(TRACE_HEADER), Some(&*stamped.to_string()));

    // A malformed incoming id is never echoed back verbatim.
    client.set_trace_id(None);
    let response = client.get("/healthz").unwrap();
    assert!(response
        .header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .is_some());

    server.shutdown();
}

#[test]
fn debug_trace_renders_the_chain_for_a_stamped_id() {
    let (_catalog, mut server, addr) = primary_with(&[("acme", "events", 4_000)]);
    let mut client = HttpClient::new(addr);

    let stamped = TraceId::mint();
    client.set_trace_id(Some(stamped));
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.status, 200);

    let debug = client
        .get(&format!("/v1/_debug/trace?id={stamped}"))
        .unwrap();
    assert_eq!(debug.status, 200);
    let tree = debug.body_str().unwrap();
    for stage in [
        "request", "parse", "compile", "fetch", "snapshot", "extract", "render",
    ] {
        assert!(tree.contains(stage), "span tree missing {stage}:\n{tree}");
    }

    server.shutdown();
}

#[test]
fn first_request_records_its_queue_wait_and_every_request_its_write() {
    let (_catalog, mut server, addr) = primary_with(&[("acme", "events", 4_000)]);
    let mut client = HttpClient::new(addr);
    let (first, second) = (TraceId::mint(), TraceId::mint());
    for id in [first, second] {
        client.set_trace_id(Some(id));
        let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
        assert_eq!(response.status, 200);
    }
    assert_eq!(server.stats().connections, 1, "one keep-alive connection");

    // The worker records a request's write span before it reads the next
    // request, so the first trace is complete once the second answer
    // arrived.
    let recorder = server.telemetry().recorder();
    let first_spans = recorder.trace(first);
    let of = |spans: &[opaq_metrics::Span], stage: Stage| {
        spans.iter().find(|s| s.stage == stage).copied()
    };
    let root = of(&first_spans, Stage::Request).expect("root span");
    let queue = of(&first_spans, Stage::Queue).expect("first request waited in the queue");
    let write = of(&first_spans, Stage::Write).expect("write span");
    assert_eq!(queue.parent, ROOT_SPAN_ID);
    assert_eq!((queue.start_nanos, write.parent), (0, ROOT_SPAN_ID));
    assert!(
        root.duration_nanos >= queue.duration_nanos,
        "root covers the wait"
    );
    assert!(
        write.start_nanos >= root.duration_nanos,
        "the root closes before the write"
    );

    // The debug endpoint renders both new spans.
    client.set_trace_id(None);
    let debug = client.get(&format!("/v1/_debug/trace?id={first}")).unwrap();
    let tree = debug.body_str().unwrap();
    for stage in ["queue", "write"] {
        assert!(tree.contains(stage), "span tree missing {stage}:\n{tree}");
    }

    // That third request also completed the second trace.
    let second_spans = recorder.trace(second);
    assert!(
        of(&second_spans, Stage::Queue).is_none(),
        "only a connection's first request waited in the queue"
    );
    assert!(of(&second_spans, Stage::Write).is_some());

    server.shutdown();
}

#[test]
fn failover_retries_keep_the_same_trace_id() {
    let fleet = [("acme", "events", 4_000u64)];
    let (_catalog, mut primary, primary_addr) = primary_with(&fleet);
    let secondary_catalog = Arc::new(SketchCatalog::unbounded());
    bootstrap(&secondary_catalog, &primary_addr, None, None).unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&secondary_catalog)));
    let mut secondary = HttpServer::start(engine, ServerConfig::default()).unwrap();
    let secondary_addr = secondary.local_addr().to_string();

    let mut set = ReplicaSet::new(&[primary_addr, secondary_addr], fast_replica_config(3)).unwrap();

    let trace = TraceId::mint();
    set.set_trace_id(Some(trace));
    let target = "/v1/acme/events/quantile?phi=0.5";

    // Served by the preferred (primary) replica, echoing the stamped id.
    let first = set.get(target).unwrap();
    assert!(!first.degraded);
    assert_eq!(
        first.response.header(TRACE_HEADER),
        Some(&*trace.to_string())
    );

    // Kill the preferred replica: the retry lands on the secondary, and the
    // answer still carries the *same* trace — one trace across the hop.
    primary.shutdown();
    let failed_over = set.get(target).unwrap();
    assert!(!failed_over.degraded);
    assert_eq!(
        failed_over.response.header(TRACE_HEADER),
        Some(&*trace.to_string()),
        "failover hop lost the trace id"
    );

    secondary.shutdown();
}

#[test]
fn degraded_replay_is_restamped_with_the_current_trace_id() {
    let (_catalog, mut primary, primary_addr) = primary_with(&[("acme", "events", 4_000)]);
    let mut set = ReplicaSet::new(&[primary_addr], fast_replica_config(1)).unwrap();

    let target = "/v1/acme/events/quantile?phi=0.5";
    let old_trace = TraceId::mint();
    set.set_trace_id(Some(old_trace));
    let live = set.get(target).unwrap();
    assert!(!live.degraded);
    assert_eq!(
        live.response.header(TRACE_HEADER),
        Some(&*old_trace.to_string())
    );

    // Total outage: the cached answer replays, but stamped with the *new*
    // request's trace id — not the one it was recorded under.
    primary.shutdown();
    let new_trace = TraceId::mint();
    assert_ne!(new_trace, old_trace);
    set.set_trace_id(Some(new_trace));
    let degraded = set.get(target).unwrap();
    assert!(degraded.degraded);
    assert_eq!(degraded.response.status, 200);
    assert_eq!(
        degraded.response.header(TRACE_HEADER),
        Some(&*new_trace.to_string()),
        "degraded replay must carry the current trace id"
    );
    assert_eq!(live.response.body, degraded.response.body);
}

/// Two single-replica ring groups over one shared ring; the tenant's data
/// lives only in its owning group's catalog.  Returns the running servers,
/// their addresses in ring-group order, the ring, and the tenant's owner
/// index.
fn ring_pair(tenant: &str) -> (Vec<HttpServer>, Vec<Vec<String>>, Arc<HashRing>, usize) {
    // Ring addresses are routing metadata here — the fleet dials the real
    // ephemeral addresses passed separately, and no glob plan scatters.
    let ring = Arc::new(
        HashRing::new(RingConfig::new(vec![
            GroupConfig {
                name: "group-0".into(),
                addrs: vec!["127.0.0.1:1".into()],
            },
            GroupConfig {
                name: "group-1".into(),
                addrs: vec!["127.0.0.1:1".into()],
            },
        ]))
        .unwrap(),
    );
    let owner = ring.owner_index(tenant);
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for (g, group) in ring.groups().iter().enumerate() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        if g == owner {
            catalog
                .publish(
                    &TenantId::new(tenant),
                    &DatasetId::new("events"),
                    sketch_of(7, 4_000),
                )
                .unwrap();
        }
        let engine = Arc::new(QueryEngine::new(catalog));
        let config = ServerConfig::builder()
            .ring(Arc::new(
                RingMembership::new((*ring).clone(), &group.name).unwrap(),
            ))
            .build()
            .unwrap();
        let server = HttpServer::start(engine, config).unwrap();
        addrs.push(vec![server.local_addr().to_string()]);
        servers.push(server);
    }
    (servers, addrs, ring, owner)
}

#[test]
fn wrong_owner_answers_carry_the_stamped_trace_id() {
    let tenant = "acme";
    let (mut servers, addrs, ring, owner) = ring_pair(tenant);
    let wrong = 1 - owner;

    let mut client = HttpClient::new(addrs[wrong][0].clone());
    let stamped = TraceId::mint();
    client.set_trace_id(Some(stamped));
    let response = client
        .get(&format!("/v1/{tenant}/events/quantile?phi=0.5"))
        .unwrap();
    assert_eq!(response.status, 421, "misdirected request must be refused");
    assert_eq!(
        response.header(TRACE_HEADER),
        Some(&*stamped.to_string()),
        "wrong_owner answer lost the trace id"
    );
    assert_eq!(
        response.header(OWNER_HEADER),
        Some(&*ring.groups()[owner].name.clone()),
        "wrong_owner answer must name the owning group"
    );
    let body = response.body_str().unwrap();
    assert!(
        body.contains("\"wrong_owner\""),
        "typed code missing: {body}"
    );

    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn rerouted_requests_keep_one_trace_id_across_both_hops() {
    let tenant = "acme";
    let (mut servers, addrs, ring, owner) = ring_pair(tenant);

    let stats = ReplicationStats::new();
    let mut fleet = RoutedFleet::new(Arc::clone(&ring), &addrs, &fast_replica_config(1))
        .unwrap()
        .with_stats(Arc::clone(&stats));

    let stamped = TraceId::mint();
    fleet.set_trace_id(Some(stamped));
    let target = format!("/v1/{tenant}/events/quantile?phi=0.5");
    // Deliberately hit the non-owning group: the fleet must follow the
    // typed wrong_owner answer to the owner in exactly one extra hop, with
    // the same trace stamped on both.
    let answer = fleet.get_misrouted(tenant, &target).unwrap();
    assert_eq!(answer.response.status, 200, "re-route did not reach owner");
    assert_eq!(
        answer.response.header(TRACE_HEADER),
        Some(&*stamped.to_string()),
        "re-routed hop lost the trace id"
    );
    assert_eq!(
        answer.response.header(OWNER_HEADER),
        Some(&*ring.groups()[owner].name.clone()),
    );
    assert_eq!(stats.reroutes(), 1, "re-route was not counted");

    // The routed path goes straight to the owner: no extra re-routes.
    let direct = fleet.get(tenant, &target).unwrap();
    assert_eq!(direct.response.status, 200);
    assert_eq!(stats.reroutes(), 1);

    for server in &mut servers {
        server.shutdown();
    }
}
