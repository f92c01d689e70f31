//! The load harness end to end over real sockets: a single server with a
//! TTL probe, an open-loop run under a declared SLO, and a 2-group × 2-replica
//! ring with and without chaos — every answer verified byte-for-byte, every
//! 200 ownership-checked, every glob plan replayed against the
//! unpartitioned-catalog oracle.

use opaq_metrics::SloThresholds;
use opaq_net::{run_load, LoadSpec, Topology};
use std::time::Duration;

fn fleet(groups: usize, replicas: usize, chaos: bool) -> LoadSpec {
    LoadSpec {
        topology: Topology::Fleet {
            groups,
            replicas,
            chaos,
        },
        ..LoadSpec::quick()
    }
}

fn small_ring(chaos: bool) -> LoadSpec {
    LoadSpec {
        clients: 3,
        ops_per_client: 60,
        tenants: 6,
        keys_per_tenant: 4_000,
        ..fleet(2, 2, chaos)
    }
}

#[test]
fn single_server_serves_everything_untorn_and_sees_a_ttl_cycle() {
    let report = run_load(&LoadSpec {
        ops_per_client: 150,
        ttl: Some(Duration::from_millis(80)),
        ..fleet(1, 1, false)
    })
    .unwrap();
    let rendered = report.render();
    assert_eq!(
        report.torn_reads, 0,
        "torn reads over the wire:\n{rendered}"
    );
    assert_eq!(report.http_errors + report.plan_errors, 0, "{rendered}");
    assert_eq!(
        (report.mis_owned, report.trace_violations),
        (0, 0),
        "{rendered}"
    );
    // Every fifth op is a POST /v1/query pipeline; both legs verify fully.
    assert_eq!(report.ops, 4 * 150, "{rendered}");
    assert_eq!(report.plan_ops, 4 * 150 / 5, "{rendered}");
    assert_eq!(report.verified, report.ops - report.plan_ops, "{rendered}");
    assert_eq!(report.plan_verified, report.plan_ops, "{rendered}");
    assert_eq!(report.refreshes_published, 2 * 3);
    assert!(report.non_fresh_served > 0, "{rendered}");
    assert!(report.ttl_refreshes_observed >= 1, "{rendered}");
    assert!(report.catalog.ttl_refreshes >= 1);
    assert_eq!(report.reroutes, 0, "one group has nowhere to re-route");
    assert!(report.latency.p50 <= report.latency.p999);
}

#[test]
fn open_loop_holds_the_offered_rate_and_reports_slo_verdicts() {
    let report = run_load(&LoadSpec {
        clients: 2,
        ops_per_client: 60,
        refresh_rounds: 1,
        target_qps: Some(1_000.0),
        slo: SloThresholds {
            // Generous enough that a loopback run can't breach latency,
            // strict enough that any error or shed is a breach.
            p99: Some(Duration::from_secs(5)),
            p999: Some(Duration::from_secs(10)),
            max_error_rate: Some(0.0),
            max_shed_rate: Some(0.0),
            ..Default::default()
        },
        ..fleet(1, 1, false)
    })
    .unwrap();
    let rendered = report.render();
    // 120 ops at 1000 qps aggregate: the schedule alone takes ≥ ~118 ms.
    assert!(
        report.wall >= Duration::from_millis(100),
        "{:?}",
        report.wall
    );
    assert_eq!(
        (report.torn_reads, report.http_errors, report.sheds),
        (0, 0, 0)
    );
    assert_eq!(
        report.verified + report.plan_verified,
        report.ops,
        "{rendered}"
    );
    assert!(report.plan_ops > 0, "{rendered}");
    assert_eq!(report.refreshes_published, 2, "{rendered}");
    assert_eq!(report.slo.checks.len(), 4);
    assert_eq!(report.slo.breaches(), 0, "{rendered}");
    assert!(
        rendered.contains("target qps (open loop): 1000"),
        "{rendered}"
    );
}

#[test]
fn ring_without_chaos_is_clean_owned_and_balanced() {
    let spec = small_ring(false);
    let report = run_load(&spec).unwrap();
    let rendered = report.render();
    assert_eq!((report.torn_reads, report.mis_owned), (0, 0), "{rendered}");
    assert_eq!(report.http_errors + report.plan_errors, 0, "{rendered}");
    assert_eq!(
        (report.unanswered, report.trace_violations),
        (0, 0),
        "{rendered}"
    );
    assert_eq!(report.verified + report.plan_ops, report.ops, "{rendered}");
    assert!(report.plan_ops > 0, "{rendered}");
    assert_eq!(
        report.plan_verified, report.plan_ops,
        "a plan answer diverged from the single-catalog oracle:\n{rendered}"
    );
    // Deliberate misroutes (every 7th single-target op) force the
    // wrong_owner arc.
    assert!(report.reroutes > 0, "{rendered}");
    assert_eq!(report.shares.len(), 2);
    let tenants: u64 = report.shares.iter().map(|s| s.tenants).sum();
    assert_eq!(tenants, spec.tenants as u64);
    assert!(report.shares.iter().all(|s| s.tenants > 0), "{rendered}");
}

#[test]
fn ring_chaos_run_survives_kill_and_restart_with_zero_torn_or_mis_owned() {
    let report = run_load(&small_ring(true)).unwrap();
    let rendered = report.render();
    assert_eq!(report.torn_reads, 0, "torn:\n{rendered}");
    assert_eq!(report.mis_owned, 0, "mis-owned:\n{rendered}");
    assert_eq!(report.trace_violations, 0, "{rendered}");
    assert!(
        report.verified > 0 && report.plan_verified > 0,
        "{rendered}"
    );
    assert_eq!((report.kills, report.restarts), (1, 1), "{rendered}");
    assert!(report.failovers >= 1, "{rendered}");
    assert!(report.reroutes > 0, "{rendered}");
    assert!(
        report.chaos.total() > 0,
        "chaos proxies injected nothing:\n{rendered}"
    );
    assert!(report.sync_deltas_applied > 0, "{rendered}");
}
