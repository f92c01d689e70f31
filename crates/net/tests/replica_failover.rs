//! Replication and failover over real sockets: peer bootstrap byte-identity,
//! delta catch-up, circuit-broken client failover with graceful degradation,
//! and the chaos fleet load run end to end.

use opaq_core::{IncrementalOpaq, OpaqConfig};
use opaq_net::{
    bootstrap, run_load, sync_once, BreakerConfig, HttpClient, HttpServer, LoadSpec, ReplicaConfig,
    ReplicaSet, ReplicationStats, Replicator, ServerConfig, Topology, VERSION_HEADER,
};
use opaq_serve::{DatasetId, QueryEngine, SketchCatalog, TenantId};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A primary with `tenants` published entries and its HTTP server.
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

/// Stand a secondary up from a peer bootstrap; returns (catalog, server, addr).
fn secondary_from(peer: &str) -> (Arc<SketchCatalog>, HttpServer, String) {
    let catalog = Arc::new(SketchCatalog::unbounded());
    bootstrap(&catalog, peer, None, None).unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (catalog, server, addr)
}

#[test]
fn bootstrapped_replica_serves_byte_identical_answers() {
    let fleet = [("acme", "events", 10_000u64), ("umbrella", "orders", 4_000)];
    let (_catalog, mut primary, primary_addr) = primary_with(&fleet);
    let (_rep_catalog, mut secondary, secondary_addr) = secondary_from(&primary_addr);

    let mut source = HttpClient::new(primary_addr);
    let mut replica = HttpClient::new(secondary_addr);

    // The sync manifest (the version vector) must agree exactly.
    let manifest_a = source.get("/v1/_sync/manifest").unwrap();
    let manifest_b = replica.get("/v1/_sync/manifest").unwrap();
    assert_eq!(manifest_a.status, 200);
    assert_eq!(manifest_a.body, manifest_b.body);

    // Every query family, on every entry: identical bytes, identical
    // version header — for every (tenant, dataset, version) the source has.
    for (tenant, dataset, _) in &fleet {
        for target in [
            format!("/v1/{tenant}/{dataset}/quantile?phi=0.5"),
            format!("/v1/{tenant}/{dataset}/quantile?phi=0.991"),
            format!("/v1/{tenant}/{dataset}/rank?key=12345"),
            format!("/v1/{tenant}/{dataset}/profile?count=7"),
        ] {
            let a = source.get(&target).unwrap();
            let b = replica.get(&target).unwrap();
            assert_eq!(a.status, 200, "{target}");
            assert_eq!(b.status, 200, "{target}");
            assert_eq!(
                a.header(VERSION_HEADER),
                b.header(VERSION_HEADER),
                "{target}"
            );
            assert_eq!(a.body, b.body, "replica answer differs for {target}");
        }
        // The raw sync frames agree too: same version, same sketch bytes.
        let frame = format!("/v1/_sync/sketch?tenant={tenant}&dataset={dataset}");
        let a = source.get(&frame).unwrap();
        let b = replica.get(&frame).unwrap();
        assert_eq!(a.header(VERSION_HEADER), b.header(VERSION_HEADER));
        assert_eq!(a.body, b.body);
    }

    secondary.shutdown();
    primary.shutdown();
}

#[test]
fn sync_applies_deltas_at_the_peers_exact_version_and_skips_known_entries() {
    let (catalog, mut primary, primary_addr) = primary_with(&[("acme", "events", 5_000)]);
    let replica_catalog = Arc::new(SketchCatalog::unbounded());
    let stats = ReplicationStats::new();
    let mut client = HttpClient::new(primary_addr.clone());

    // Cold bootstrap applies the one entry at version 1.
    assert_eq!(
        sync_once(&replica_catalog, &mut client, Some(&stats), None).unwrap(),
        1
    );
    assert_eq!(stats.sync_deltas_applied(), 1);
    let tenant = TenantId::new("acme");
    let dataset = DatasetId::new("events");
    assert_eq!(
        replica_catalog.snapshot(&tenant, &dataset).unwrap().version,
        1
    );

    // Nothing new: the pass is a no-op.
    assert_eq!(
        sync_once(&replica_catalog, &mut client, Some(&stats), None).unwrap(),
        0
    );

    // Primary publishes twice; one pass catches the replica up to the
    // primary's exact version number, skipping the intermediate one.
    catalog
        .publish(&tenant, &dataset, sketch_of(9, 6_000))
        .unwrap();
    catalog
        .publish(&tenant, &dataset, sketch_of(11, 7_000))
        .unwrap();
    assert_eq!(
        sync_once(&replica_catalog, &mut client, Some(&stats), None).unwrap(),
        1
    );
    assert_eq!(
        replica_catalog.snapshot(&tenant, &dataset).unwrap().version,
        3
    );
    assert_eq!(stats.sync_deltas_applied(), 2);

    primary.shutdown();
}

#[test]
fn replicator_polls_deltas_in_the_background() {
    let (catalog, mut primary, primary_addr) = primary_with(&[("acme", "events", 5_000)]);
    let replica_catalog = Arc::new(SketchCatalog::unbounded());
    bootstrap(&replica_catalog, &primary_addr, None, None).unwrap();
    let mut replicator = Replicator::start(
        Arc::clone(&replica_catalog),
        primary_addr,
        Duration::from_millis(10),
        None,
        None,
    );

    let tenant = TenantId::new("acme");
    let dataset = DatasetId::new("events");
    catalog
        .publish(&tenant, &dataset, sketch_of(21, 6_000))
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if replica_catalog.snapshot(&tenant, &dataset).unwrap().version == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replicator never caught up to version 2"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    replicator.shutdown();
    primary.shutdown();
}

#[test]
fn replica_set_fails_over_and_degrades_gracefully() {
    // Two independent replicas of the same catalog contents.
    let (_catalog, mut primary, primary_addr) = primary_with(&[("acme", "events", 5_000)]);
    let (_rep_catalog, mut secondary, secondary_addr) = secondary_from(&primary_addr);

    let stats = ReplicationStats::new();
    let breaker = BreakerConfig {
        min_samples: 2,
        cooldown: Duration::from_millis(80),
        ..BreakerConfig::default()
    };
    let config = ReplicaConfig::builder()
        .breaker(breaker)
        .read_timeout(Duration::from_millis(500))
        .connect_timeout(Duration::from_millis(200))
        .build()
        .unwrap();
    let mut set = ReplicaSet::new(&[secondary_addr, primary_addr], config)
        .unwrap()
        .with_stats(Arc::clone(&stats));

    let target = "/v1/acme/events/quantile?phi=0.5";
    let healthy = set.get(target).unwrap();
    assert_eq!(healthy.response.status, 200);
    assert!(!healthy.degraded);
    let baseline = healthy.response.body.clone();

    // Kill the preferred replica: the set must fail over to the primary and
    // serve the same bytes.
    secondary.shutdown();
    let over = set.get(target).unwrap();
    assert_eq!(over.response.status, 200);
    assert!(!over.degraded);
    assert_eq!(over.response.body, baseline);
    assert!(stats.failovers() > 0, "failover was not counted");

    // Hammer the dead replica's breaker open via health probes.
    for _ in 0..8 {
        set.probe_health();
    }
    assert!(stats.breaker_opens() > 0, "breaker never opened");

    // Total outage: the last verified answer comes back, tagged degraded.
    primary.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let degraded = loop {
        let answer = set.get(target).unwrap();
        if answer.degraded {
            break answer;
        }
        assert!(
            Instant::now() < deadline,
            "degradation never kicked in after total outage"
        );
    };
    assert_eq!(degraded.response.body, baseline);

    // A target never answered before has nothing cached: an honest error.
    assert!(set.get("/v1/acme/events/rank?key=99").is_err());
}

/// The chaos schedule is keyed on op index: clients past op `total/4` wait
/// for the kill and clients past op `total/2` wait for the restart, so ops
/// run against the dead victim and a failover is forced on every run.  The
/// test asserts only what the harness causes; breaker transitions are
/// pinned by the fake-clock tests in `circuit.rs` and the outage test above.
#[test]
fn chaos_fleet_run_has_zero_torn_answers_through_kill_and_restart() {
    let spec = LoadSpec {
        topology: Topology::Fleet {
            groups: 1,
            replicas: 2,
            chaos: true,
        },
        clients: 3,
        ops_per_client: 60,
        keys_per_tenant: 4_000,
        ..LoadSpec::quick()
    };
    let report = run_load(&spec).unwrap();
    assert_eq!(report.torn_reads, 0, "torn answers:\n{}", report.render());
    assert_eq!(report.mis_owned, 0, "{}", report.render());
    assert_eq!(report.http_errors, 0, "http errors:\n{}", report.render());
    assert_eq!(report.ops, 180);
    assert!(report.verified > 0);
    assert_eq!(
        (report.kills, report.restarts),
        (1, 1),
        "victim not killed and restarted:\n{}",
        report.render()
    );
    assert!(
        report.failovers >= 1,
        "no failover recorded:\n{}",
        report.render()
    );
    assert!(report.sync_deltas_applied > 0);
}

#[test]
fn fleet_without_chaos_is_clean() {
    let spec = LoadSpec {
        topology: Topology::Fleet {
            groups: 1,
            replicas: 2,
            chaos: false,
        },
        clients: 2,
        ops_per_client: 40,
        keys_per_tenant: 4_000,
        refresh_rounds: 2,
        ..LoadSpec::quick()
    };
    let report = run_load(&spec).unwrap();
    assert_eq!(report.torn_reads, 0, "{}", report.render());
    assert_eq!(
        report.http_errors + report.plan_errors,
        0,
        "{}",
        report.render()
    );
    assert_eq!(report.unanswered, 0, "{}", report.render());
    assert_eq!(
        report.verified + report.plan_verified,
        report.ops,
        "{}",
        report.render()
    );
    assert_eq!(report.kills, 0);
    assert_eq!(report.chaos.total(), 0);
}
