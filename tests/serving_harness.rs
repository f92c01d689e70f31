//! Serving under tier-1: the one load harness at toy size on four
//! topologies, through the `opaq` facade.
//!
//! Every answer — in process or over loopback TCP — is re-rendered from the
//! registered sketch of the version it claims and compared byte-for-byte,
//! so a passing run means every served estimate came from exactly one
//! complete published sketch, and so carries that sketch's deterministic
//! bounds.

use opaq::net::{run_load, LoadReport, LoadSpec, Topology};
use std::time::Duration;

fn toy(topology: Topology) -> LoadSpec {
    LoadSpec {
        topology,
        tenants: 2,
        clients: 3,
        ops_per_client: 40,
        keys_per_tenant: 4_000,
        run_length: 1_000,
        sample_size: 100,
        refresh_rounds: 2,
        ..LoadSpec::default()
    }
}

fn fleet(groups: usize, replicas: usize, chaos: bool) -> Topology {
    Topology::Fleet {
        groups,
        replicas,
        chaos,
    }
}

/// Zero torn, mis-owned and trace-violating answers, and every answered
/// single-target op verified: an answered op ends verified, torn, shed or as
/// an HTTP error, so with the last three at zero it verified.
fn assert_untorn(report: &LoadReport) {
    let rendered = report.render();
    assert_eq!(report.ops, 3 * 40, "{rendered}");
    assert_eq!(report.torn_reads, 0, "{rendered}");
    assert_eq!(report.mis_owned, 0, "{rendered}");
    assert_eq!(report.trace_violations, 0, "{rendered}");
    assert_eq!((report.sheds, report.http_errors), (0, 0), "{rendered}");
    assert!(report.verified > 0, "{rendered}");
}

/// A fault-free run answers everything and replays every plan exactly.
fn assert_fault_free(report: &LoadReport) {
    let rendered = report.render();
    assert_eq!(report.unanswered, 0, "{rendered}");
    assert_eq!(report.verified, report.ops - report.plan_ops, "{rendered}");
    assert!(report.plan_ops > 0, "{rendered}");
    assert_eq!(report.plan_verified, report.plan_ops, "{rendered}");
}

#[test]
fn in_process_run_on_an_unbounded_catalog_lands_every_refresh() {
    let report = run_load(&toy(Topology::InProcess)).unwrap();
    assert_untorn(&report);
    assert_fault_free(&report);
    assert_eq!(report.refreshes_published, 2 * 2, "{}", report.render());
    assert_eq!(report.catalog.evictions, 0, "{}", report.render());
}

#[test]
fn in_process_run_under_an_eviction_budget_verifies_every_answer() {
    // Each initial sketch holds (4000 / 1000) · 100 = 400 sample points and
    // refreshes grow them, so a 500-point budget forces spill churn.
    let report = run_load(&LoadSpec {
        budget_sample_points: Some(500),
        ..toy(Topology::InProcess)
    })
    .unwrap();
    assert_untorn(&report);
    assert_fault_free(&report);
    assert!(report.catalog.evictions > 0, "{}", report.render());
}

#[test]
fn single_server_sees_a_ttl_cycle() {
    let report = run_load(&LoadSpec {
        ttl: Some(Duration::from_millis(40)),
        ..toy(fleet(1, 1, false))
    })
    .unwrap();
    assert_untorn(&report);
    assert_fault_free(&report);
    assert!(report.ttl_refreshes_observed >= 1, "{}", report.render());
}

#[test]
fn replica_pair_fails_over_through_a_kill_and_restart() {
    let report = run_load(&toy(fleet(1, 2, true))).unwrap();
    assert_untorn(&report);
    assert_eq!(
        (report.kills, report.restarts),
        (1, 1),
        "{}",
        report.render()
    );
    assert!(report.failovers >= 1, "{}", report.render());
}

#[test]
fn two_group_ring_matches_the_unpartitioned_oracle() {
    let report = run_load(&LoadSpec {
        tenants: 4,
        ..toy(fleet(2, 2, false))
    })
    .unwrap();
    assert_untorn(&report);
    assert_fault_free(&report);
    assert!(report.reroutes > 0, "{}", report.render());
}
