//! Serving load benchmark: the mixed read/refresh workload replayed through
//! `opaq_net::run_load`, in process and over loopback TCP.
//!
//! Two halves:
//!
//! 1. **Workload replay + report.**  Before any timing, the bench replays
//!    the workload on each topology it times — in process (unbounded and
//!    under an eviction budget), a single HTTP server with the TTL probe
//!    on, and that server open loop under a declared SLO — prints each
//!    report, and **asserts** zero torn reads, every answer and plan
//!    verified byte-for-byte, refreshes landing mid-run, a TTL cycle where
//!    a TTL is set, and no SLO breach.  A consistency regression fails
//!    `cargo bench` before a single timing is taken.
//! 2. **Criterion timings.**  Per-request-type latency against a resident
//!    snapshot, and whole-workload replays at 4 and 8 clients on both
//!    topologies, giving the over-the-wire cost next to the in-process one.
//!
//! Set `OPAQ_BENCH_QUICK=1` (the per-PR CI smoke mode) to shrink the
//! datasets; the consistency assertions run at full strength either way.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_metrics::SloThresholds;
use opaq_net::{run_load, LoadSpec, Topology};
use opaq_serve::{DatasetId, QueryEngine, QueryRequest, SketchCatalog, TenantId};
use std::sync::Arc;
use std::time::Duration;

const SERVER: Topology = Topology::Fleet {
    groups: 1,
    replicas: 1,
    chaos: false,
};

fn quick_mode() -> bool {
    std::env::var_os("OPAQ_BENCH_QUICK").is_some()
}

/// The workload replayed for the reports and the throughput timings.
fn spec(topology: Topology, clients: usize) -> LoadSpec {
    let base = if quick_mode() {
        LoadSpec::quick()
    } else {
        LoadSpec::default()
    };
    LoadSpec {
        topology,
        tenants: base.tenants.max(2),
        clients,
        ..base
    }
}

/// Replay one workload, print its report, and fail hard on any consistency
/// or objective breach.
fn replay_and_verify(label: &str, spec: &LoadSpec) {
    let report = run_load(spec).expect("workload must run cleanly");
    println!(
        "== serve_load workload: {label} ({} tenants, {} clients) ==",
        spec.tenants, spec.clients
    );
    println!("{}", report.render());
    assert_eq!(
        report.torn_reads, 0,
        "{label}: torn read — an answer matched no published sketch version"
    );
    assert_eq!(
        report.verified + report.plan_verified,
        report.ops,
        "{label}: every answer and plan must verify against its claimed versions"
    );
    assert!(report.plan_ops > 0, "{label}: the mix must include plans");
    assert!(
        report.refreshes_published > 0,
        "{label}: refreshes must land mid-workload"
    );
    if spec.ttl.is_some() {
        assert!(
            report.ttl_refreshes_observed >= 1,
            "{label}: the TTL probe must observe an expiry→refresh→publish cycle"
        );
    }
    assert_eq!(report.slo.breaches(), 0, "{label}: declared SLO breached");
}

fn bench_serve_load(c: &mut Criterion) {
    replay_and_verify(
        "in-process, unbounded catalog",
        &spec(Topology::InProcess, 4),
    );
    // Tight enough to force spill/reload churn between tenants: each
    // initial sketch is (keys/run_length)·s sample points; allow ~1.5.
    let churn = {
        let s = spec(Topology::InProcess, 4);
        let one_sketch = (s.keys_per_tenant / s.run_length) * s.sample_size;
        LoadSpec {
            budget_sample_points: Some(one_sketch * 3 / 2),
            ..s
        }
    };
    replay_and_verify("in-process, eviction budget", &churn);
    replay_and_verify(
        "http server + ttl probe",
        &LoadSpec {
            ttl: Some(Duration::from_millis(100)),
            ..spec(SERVER, 4)
        },
    );
    // Open loop: latency from each op's scheduled send time, 503s as sheds.
    replay_and_verify(
        "http server, open loop",
        &LoadSpec {
            refresh_rounds: 1,
            target_qps: Some(if quick_mode() { 2_000.0 } else { 5_000.0 }),
            slo: SloThresholds {
                p99: Some(Duration::from_secs(5)),
                max_error_rate: Some(0.0),
                max_shed_rate: Some(0.0),
                ..Default::default()
            },
            ..spec(SERVER, 4)
        },
    );

    // Per-request-type latency against a resident snapshot.
    let base = spec(Topology::InProcess, 1);
    let catalog = Arc::new(SketchCatalog::unbounded());
    let (tenant, dataset) = (TenantId::new("bench"), DatasetId::new("events"));
    {
        let mut inc = opaq_core::IncrementalOpaq::new(
            opaq_core::OpaqConfig::builder()
                .run_length(base.run_length)
                .sample_size(base.sample_size)
                .build()
                .unwrap(),
        )
        .unwrap();
        inc.add_run(
            opaq_datagen::DatasetSpec {
                n: base.keys_per_tenant,
                distribution: opaq_datagen::Distribution::Uniform { domain: 1 << 31 },
                duplicate_fraction: 0.1,
                seed: 41,
            }
            .generate(),
        )
        .unwrap();
        catalog
            .publish(&tenant, &dataset, inc.into_sketch().unwrap())
            .unwrap();
    }
    let engine = QueryEngine::new(Arc::clone(&catalog));
    let mut group = c.benchmark_group("serve_query_latency");
    group.sample_size(20);
    for (name, request) in [
        ("quantile", QueryRequest::Quantile { phi: 0.5 }),
        ("rank", QueryRequest::Rank { key: 1 << 30 }),
        (
            "batch3",
            QueryRequest::QuantileBatch {
                phis: vec![0.1, 0.5, 0.9],
            },
        ),
        ("profile16", QueryRequest::Profile { count: 16 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.execute(&tenant, &dataset, &request).unwrap()))
        });
    }
    group.finish();

    // Whole-workload throughput trend over client counts, per topology.
    for (name, topology) in [
        ("serve_mixed_workload", Topology::InProcess),
        ("http_mixed_workload", SERVER),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for clients in [4usize, 8] {
            let spec = spec(topology, clients);
            group.bench_with_input(BenchmarkId::new("clients", clients), &spec, |b, spec| {
                b.iter(|| black_box(run_load(spec).unwrap().ops))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
