//! The `opaq` sub-commands.
//!
//! Every command is a function from parsed [`Args`] to an output string.
//! `serve` alone blocks on stdin, so its live checks spawn the binary
//! (`tests/serve_process.rs`).

use crate::args::Args;
use crate::{persist, CliError, CliResult};
use opaq_core::{exact_quantile, IncrementalOpaq, OpaqConfig, OpaqEstimator};
use opaq_datagen::{DatasetSpec, Distribution};
use opaq_metrics::trace::{format_nanos, Stage};
use opaq_metrics::{SloThresholds, TextTable};
use opaq_net::json::write_escaped;
use opaq_net::{
    bootstrap, run_load, HashRing, HttpClient, HttpServer, Json, LoadReport, LoadSpec,
    ReplicationStats, Replicator, RingConfig, RingMembership, ServerConfig, Telemetry, Topology,
};
use opaq_parallel::ShardedOpaq;
use opaq_query::QueryPlan;
use opaq_serve::{
    execute_on, DatasetId, QueryEngine, QueryOutput, QueryRequest, RefreshPool, SketchCatalog,
    TenantId,
};
use opaq_storage::{FileRunStore, FileRunStoreBuilder, RunStore};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// The most worker threads `--threads` (sketch) and `--refresh-threads`
/// (serve) accept.  Each is one OS thread, so a mistyped count is refused
/// as a usage error before anything starts rather than asked of the OS.
pub const MAX_THREADS: u64 = 256;

/// Parse the thread-count option `key` (at most [`MAX_THREADS`]), with a
/// default.
fn thread_count(args: &Args, key: &str, default: u64) -> CliResult<u64> {
    let threads = args.u64_or(key, default)?;
    if threads > MAX_THREADS {
        return Err(CliError::Usage(format!(
            "--{key} must be at most {MAX_THREADS}, got {threads}"
        )));
    }
    Ok(threads)
}

/// The usage text printed by `opaq help`.
pub fn usage() -> String {
    "opaq — one-pass quantile estimation for disk-resident data (VLDB 1997 reproduction)

USAGE: opaq <command> [--key value ...]

COMMANDS:
  generate   --out FILE --n N [--dist uniform|zipf|normal|sorted|reverse] [--param P]
             [--domain D] [--dup FRACTION] [--seed S]
             write N u64 keys (little-endian) to FILE
  sketch     --data FILE --n N [--run-length M] [--sample-size S] [--out SKETCH]
             [--threads T]
             one pass over FILE; print dectiles and optionally save the sketch.
             --threads > 1 shards the ingest over T worker threads (at most
             256); selection is exact, so the sketch is bit-identical for
             every thread count
  query      --sketch SKETCH [--q Q] [--phi P1,P2,...]
             estimate quantiles from a saved sketch (no data access)
             --expr 'fetch T/D | coalesce | quantile 0.5' --addr HOST:PORT
             compile a pipeline expression (see opaq-query: fetch by
             tenant/dataset glob, coalesce, then quantile/rank/profile) and
             run it against a serving front-end's POST /v1/query; prints
             the per-source (tenant, dataset, version, freshness)
             provenance alongside the estimates
  rank       --sketch SKETCH --value V
             bound the rank of an arbitrary value from a saved sketch
  histogram  --sketch SKETCH [--buckets B]
             print equi-depth histogram boundaries from a saved sketch
  exact      --data FILE --n N --phi P [--run-length M] [--sample-size S]
             exact quantile with one estimation pass plus one refinement pass
  serve-bench [--tenants M] [--clients N] [--ops K] [--keys-per-tenant D]
             [--run-length M] [--sample-size S] [--refreshes R] [--seed S]
             [--quick] [--http [--groups G] [--replicas R] [--chaos]]
             [--budget B] [--ttl-ms T] [--qps Q] [--slo-p99-ms M]
             [--bench-out FILE]
             replay a mixed read/refresh workload against the serving stack:
             N client threads issue K requests each across M tenants (every
             fifth a tenant-* coalesce plan) while refreshes publish new
             sketch versions live.  Every answer is verified byte-for-byte
             against the sketch version it claims; prints per-tenant
             p50/p90/p99/p999 latencies, throughput and the torn-read count.
             --quick shrinks everything for smoke runs.
             Topology: in-process by default: the server's router without
             the socket, so each request is framed, parsed, routed, and its
             response framed and parsed back exactly as over TCP, trace id
             included.  --http serves a fleet over loopback TCP instead: G ring groups (default 1) of R replicas
             (default 1: the plain server) — one primary plus R-1
             peer-bootstrapped secondaries each.  A consistent-hash ring
             splits the tenants across the groups, clients route by ring
             ownership (every 7th request deliberately misrouted to exercise
             the wrong_owner re-route), and every 200 must name its owner.
             --chaos fronts every replica with a fault-injecting proxy and,
             with R >= 2, kills one replica a quarter into the run and
             restarts it at the half.
             --budget B caps resident sample points to force evict/reload
             via a temporary data dir (in-process only).  --ttl-ms T gives
             a probe tenant that max-age; a watcher must see it go stale and
             refresh (default 150 with --http and one replica, else off;
             needs one replica per group: TTLs are not replicated).  --qps Q
             holds an aggregate open-loop offered rate, latency measured from
             each op's scheduled send time (coordinated-omission-safe).
             --slo-p99-ms M declares 'p99 <= M ms, zero errors, zero
             sheds'.  --bench-out FILE writes the BENCH_serve.json report.
             Fails on any torn, mis-owned or trace-violating answer, http
             error, breached SLO, missing TTL cycle or incomplete
             kill/restart, and on a fault-free run on any failed plan
             replay or unanswered request
  serve      --addr HOST:PORT [--tenants M] [--keys-per-tenant D]
             [--run-length M] [--sample-size S] [--ttl-ms T]
             [--refresh-threads R] [--workers W] [--seed S]
             [--data-dir DIR] [--slo-p99-ms M] [--peer ADDR]
             [--peer-poll-ms P] [--ring FILE --group NAME]
             run the HTTP front-end over M synthetic tenants
             (tenant-0..M-1, dataset 'events').  Endpoints:
               GET  /v1/{tenant}/{dataset}/quantile?phi=0.5
               GET  /v1/{tenant}/{dataset}/rank?key=K
               GET  /v1/{tenant}/{dataset}/profile?count=B
               POST /v1/{tenant}/{dataset}/quantile_batch  {\"phis\":[...]}
               POST /v1/query  {\"plan\":\"fetch t-*/d | coalesce | ...\"}
               GET  /healthz | GET /metrics (Prometheus text)
               GET  /v1/_debug/trace?id=HEX | GET /v1/_debug/slow?n=N
             every response carries x-opaq-version, x-opaq-freshness and
             x-opaq-trace-id (echoed when the request sent a valid one,
             minted at the front door otherwise).
             --ttl-ms T ages entries: expired tenants serve stale until a
             background re-ingest (--refresh-threads workers, at most 256)
             republishes.
             --data-dir DIR makes the catalog durable: every publish is
             committed to a write-ahead manifest + per-version sketch files
             under DIR, and a restart over the same DIR rebuilds the exact
             catalog (entries, versions, TTLs) instead of re-seeding.
             --slo-p99-ms M arms the server-side opaq_slo_breaches counter:
             each answered point query or plan whose execution (fetch to
             extract) takes longer than M ms is one breach (the shutdown
             banner reports the total).
             --ring FILE --group NAME joins a partitioned fleet: FILE is
             the shared ring config ({\"vnodes\":128,\"groups\":[{\"name\":...,
             \"addrs\":[...]},...]}), NAME picks this server's group.  Ingest
             and TTL refresh are scoped to the tenants the group owns,
             every response carries x-opaq-owner, a single-tenant request
             for a peer's tenant is refused with the typed wrong_owner
             error (naming the owner and its addrs), and glob /v1/query
             plans scatter to the peer groups and fuse deterministically.
             --peer ADDR replicates instead of seeding: the catalog is
             bootstrapped from the peer's /v1/_sync endpoints before the
             server binds, then a background replicator polls for deltas
             every --peer-poll-ms (default 500); every entry is applied at
             the peer's exact version, so answers are byte-identical to
             the source.
             The server runs until stdin reaches EOF (or a 'quit' line),
             then shuts down cleanly and prints a summary (including the
             slowest request's trace id and its per-stage breakdown)
  trace      --addr HOST:PORT [--id HEX] [--slow N]
             observability client for a running front-end: --id HEX fetches
             /v1/_debug/trace and prints the request's span tree; --slow N
             (the default, N=10) fetches /v1/_debug/slow and prints the
             top-N slowest requests with their plan provenance — feed a
             printed trace id back through --id to drill into one
  help       print this text
"
    .to_string()
}

/// Dispatch a sub-command.
pub fn run(command: &str, args: &Args) -> CliResult<String> {
    match command {
        "generate" => generate(args),
        "sketch" => sketch(args),
        "query" => query(args),
        "rank" => rank(args),
        "histogram" => histogram(args),
        "exact" => exact(args),
        "serve-bench" => serve_bench(args),
        "serve" => serve(args),
        "trace" => trace(args),
        "help" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}' (run `opaq help` for the command list)"
        ))),
    }
}

fn parse_spec(args: &Args) -> CliResult<DatasetSpec> {
    let n = args.require_u64("n")?;
    let domain = args.u64_or("domain", 1 << 31)?;
    let seed = args.u64_or("seed", 42)?;
    let duplicate_fraction = args.f64_or("dup", 0.1)?;
    let distribution = match args.get("dist").unwrap_or("uniform") {
        "uniform" => Distribution::Uniform { domain },
        "zipf" => Distribution::Zipf {
            domain,
            parameter: args.f64_or("param", 0.86)?,
        },
        "normal" => Distribution::Normal {
            domain,
            mean: args.f64_or("mean", domain as f64 / 2.0)?,
            std_dev: args.f64_or("std-dev", domain as f64 / 8.0)?,
        },
        "sorted" => Distribution::Sorted,
        "reverse" => Distribution::ReverseSorted,
        other => {
            return Err(CliError::Usage(format!(
                "unknown distribution '{other}' (expected uniform, zipf, normal, sorted or reverse)"
            )))
        }
    };
    Ok(DatasetSpec {
        n,
        distribution,
        duplicate_fraction,
        seed,
    })
}

/// `opaq generate`: write a synthetic dataset file.
pub fn generate(args: &Args) -> CliResult<String> {
    args.validate(
        "generate",
        &[
            "out",
            "n",
            "dist",
            "param",
            "domain",
            "dup",
            "seed",
            "run-length",
            "mean",
            "std-dev",
        ],
        &[],
    )?;
    let out = args.require("out")?;
    let spec = parse_spec(args)?;
    let run_length = args.u64_or("run-length", (spec.n / 10).max(1))?;
    let keys = spec.generate();
    let store = FileRunStoreBuilder::<u64>::new(out, run_length)?
        .append(&keys)?
        .finish()?;
    Ok(format!(
        "wrote {} keys ({}) to {} as {} runs of up to {} keys\n",
        spec.n,
        spec.label(),
        out,
        store.layout().runs(),
        run_length
    ))
}

fn open_store(args: &Args) -> CliResult<(FileRunStore<u64>, u64, u64)> {
    let data = args.require("data")?;
    let n = args.require_u64("n")?;
    let run_length = args.u64_or("run-length", (n / 10).max(1))?;
    let sample_size = args.u64_or("sample-size", 1000)?.min(run_length);
    let store = FileRunStore::<u64>::open(data, n, run_length)?;
    Ok((store, run_length, sample_size))
}

/// `opaq sketch`: one pass over a data file, print dectiles, optionally save.
///
/// The ingest is sharded over `--threads T` worker threads (default 1), each
/// reading and sampling its own contiguous runs; the resulting sketch is
/// bit-identical for every `T`, so `--out` files are byte-for-byte
/// reproducible across thread counts.
pub fn sketch(args: &Args) -> CliResult<String> {
    args.validate(
        "sketch",
        &["data", "n", "run-length", "sample-size", "out", "threads"],
        &[],
    )?;
    let threads = thread_count(args, "threads", 1)?;
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".to_string()));
    }
    let (store, run_length, sample_size) = open_store(args)?;
    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(sample_size)
        .build()?;

    let (sketch, report) =
        ShardedOpaq::new(config, threads as usize)?.build_sketch_with_report(&store)?;
    let mut out = format!(
        "built sketch: {} sample points over {} runs ({} keys); {} shards, merge {:?}, total {:?}, io {:?}, buffers {} reused / {} allocated\n{}",
        sketch.len(),
        sketch.runs(),
        sketch.total_elements(),
        report.shards.len(),
        report.merge,
        report.total,
        report.io.effective_io_time(),
        report.io.buffer_reuses,
        report.io.buffer_allocs,
        report.render_table()
    );
    out.push_str(&render_quantiles(&sketch, 10)?);
    if let Some(path) = args.get("out") {
        persist::save(&sketch, path)?;
        out.push_str(&format!("sketch saved to {path}\n"));
    }
    Ok(out)
}

fn render_quantiles(sketch: &opaq_core::QuantileSketch<u64>, q: u64) -> CliResult<String> {
    let mut table = TextTable::new(format!("{q}-quantile estimates (deterministic bounds)"))
        .header(["phi", "lower", "upper", "max slack (elements)"]);
    for est in profile_of(sketch, q)? {
        table.row([
            format!("{:.3}", est.phi),
            est.lower.to_string(),
            est.upper.to_string(),
            est.max_rank_slack.to_string(),
        ]);
    }
    Ok(table.render())
}

/// Run one typed request against a local sketch — the same
/// `QueryRequest`/`execute_on` model the HTTP routes and plan executor use,
/// so local and served answers can never drift.
fn execute_local(
    sketch: &opaq_core::QuantileSketch<u64>,
    request: &QueryRequest,
) -> CliResult<QueryOutput> {
    Ok(execute_on(sketch, request)?)
}

fn profile_of(
    sketch: &opaq_core::QuantileSketch<u64>,
    count: u64,
) -> CliResult<Vec<opaq_core::QuantileEstimate<u64>>> {
    match execute_local(sketch, &QueryRequest::Profile { count })? {
        QueryOutput::Profile(estimates) => Ok(estimates),
        other => Err(CliError::Usage(format!(
            "profile request answered with a non-profile output {other:?}"
        ))),
    }
}

/// `opaq query`: estimate quantiles from a saved sketch, or run a pipeline
/// expression against a remote serving front-end.
pub fn query(args: &Args) -> CliResult<String> {
    args.validate("query", &["sketch", "q", "phi", "expr", "addr"], &[])?;
    match (args.get("expr"), args.get("sketch")) {
        (Some(expr), None) => return query_remote(args, expr),
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--sketch (local) and --expr (remote pipeline) are mutually exclusive".to_string(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "query needs either --sketch SKETCH (local) or --expr 'PLAN' --addr HOST:PORT \
                 (remote pipeline)"
                    .to_string(),
            ))
        }
        (None, Some(_)) => {}
    }
    if args.get("addr").is_some() {
        return Err(CliError::Usage(
            "--addr only applies to --expr (remote pipeline) queries".to_string(),
        ));
    }
    let sketch = persist::load(args.require("sketch")?)?;
    if let Some(phis) = args.f64_list("phi")? {
        let output = execute_local(&sketch, &QueryRequest::QuantileBatch { phis })?;
        let QueryOutput::QuantileBatch(estimates) = output else {
            return Err(CliError::Usage(format!(
                "batch request answered with a non-batch output {output:?}"
            )));
        };
        let mut table = TextTable::new("quantile estimates").header(["phi", "lower", "upper"]);
        for est in estimates {
            table.row([
                format!("{:.4}", est.phi),
                est.lower.to_string(),
                est.upper.to_string(),
            ]);
        }
        Ok(table.render())
    } else {
        let q = args.u64_or("q", 10)?;
        render_quantiles(&sketch, q)
    }
}

/// `opaq query --expr`: POST the pipeline to a front-end's `/v1/query` and
/// render the provenance-tagged answer.
fn query_remote(args: &Args, expr: &str) -> CliResult<String> {
    let Some(addr) = args.get("addr") else {
        return Err(CliError::Usage(
            "--expr needs --addr HOST:PORT (the serving front-end to query)".to_string(),
        ));
    };
    // Compile locally first: same grammar, same typed stage errors — a bad
    // plan fails here without a round trip.
    QueryPlan::parse(expr).map_err(|e| CliError::Usage(format!("invalid plan: {e}")))?;
    let mut body = String::from("{\"plan\":");
    write_escaped(&mut body, expr);
    body.push('}');
    let mut client = HttpClient::new(addr.to_string());
    let response = client
        .post_json("/v1/query", &body)
        .map_err(|e| CliError::Usage(format!("could not query {addr}: {e}")))?;
    let text = response
        .body_str()
        .map_err(|e| CliError::Usage(format!("non-UTF-8 response body: {e}")))?;
    if response.status != 200 {
        return Err(CliError::Usage(format!(
            "{addr} answered HTTP {}: {text}",
            response.status
        )));
    }
    let parsed =
        Json::parse(text).map_err(|e| CliError::Usage(format!("malformed response: {e}")))?;
    render_plan_answer(&parsed, text)
}

/// Text rendering of a `/v1/query` response: the source provenance table,
/// then the estimates in the same shape the local commands print.
fn render_plan_answer(parsed: &Json, raw: &str) -> CliResult<String> {
    let malformed = || CliError::Usage(format!("malformed plan response: {raw}"));
    let sources = parsed
        .get("sources")
        .and_then(Json::as_array)
        .ok_or_else(malformed)?;
    let total = parsed
        .get("total_elements")
        .and_then(Json::as_u64)
        .ok_or_else(malformed)?;
    let mut table = TextTable::new(format!(
        "plan sources ({} entries, {total} elements fused)",
        sources.len()
    ))
    .header(["tenant", "dataset", "version", "freshness"]);
    for source in sources {
        table.row([
            source
                .get("tenant")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?
                .to_string(),
            source
                .get("dataset")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?
                .to_string(),
            source
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?
                .to_string(),
            source
                .get("freshness")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?
                .to_string(),
        ]);
    }
    let mut out = table.render();
    let estimate_row = |table: &mut TextTable, est: &Json| -> CliResult<()> {
        table.row([
            format!(
                "{:.4}",
                est.get("phi")
                    .and_then(Json::as_f64)
                    .ok_or_else(malformed)?
            ),
            est.get("lower")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?
                .to_string(),
            est.get("upper")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?
                .to_string(),
        ]);
        Ok(())
    };
    if let Some(est) = parsed.get("estimate") {
        let mut table = TextTable::new("quantile estimate").header(["phi", "lower", "upper"]);
        estimate_row(&mut table, est)?;
        out.push_str(&table.render());
    } else if let Some(estimates) = parsed.get("estimates").and_then(Json::as_array) {
        let mut table = TextTable::new("quantile estimates").header(["phi", "lower", "upper"]);
        for est in estimates {
            estimate_row(&mut table, est)?;
        }
        out.push_str(&table.render());
    } else if let Some(rank) = parsed.get("rank") {
        out.push_str(&format!(
            "rank: between {} and {} of {total} elements\n",
            rank.get("min_rank")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?,
            rank.get("max_rank")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?,
        ));
    } else {
        return Err(malformed());
    }
    Ok(out)
}

/// `opaq rank`: bound the rank of a value from a saved sketch.
pub fn rank(args: &Args) -> CliResult<String> {
    args.validate("rank", &["sketch", "value"], &[])?;
    let sketch = persist::load(args.require("sketch")?)?;
    let value = args.require_u64("value")?;
    let output = execute_local(&sketch, &QueryRequest::Rank { key: value })?;
    let QueryOutput::Rank(bounds) = output else {
        return Err(CliError::Usage(format!(
            "rank request answered with a non-rank output {output:?}"
        )));
    };
    let (phi_lo, phi_hi) = bounds.phi_bounds(sketch.total_elements());
    Ok(format!(
        "rank of {value}: between {} and {} of {} elements (phi in [{:.4}, {:.4}])\n",
        bounds.min_rank,
        bounds.max_rank,
        sketch.total_elements(),
        phi_lo,
        phi_hi
    ))
}

/// `opaq histogram`: equi-depth bucket boundaries from a saved sketch.
pub fn histogram(args: &Args) -> CliResult<String> {
    args.validate("histogram", &["sketch", "buckets"], &[])?;
    let sketch = persist::load(args.require("sketch")?)?;
    let buckets = args.u64_or("buckets", 32)?;
    if buckets < 2 {
        return Err(CliError::Usage("--buckets must be at least 2".to_string()));
    }
    let mut table = TextTable::new(format!("{buckets}-bucket equi-depth histogram")).header([
        "bucket",
        "upper boundary (<=)",
        "approx depth",
    ]);
    let depth = sketch.total_elements() / buckets;
    let estimates = profile_of(&sketch, buckets)?;
    for (i, est) in estimates.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            est.upper.to_string(),
            depth.to_string(),
        ]);
    }
    table.row([
        buckets.to_string(),
        sketch.dataset_max().to_string(),
        depth.to_string(),
    ]);
    Ok(table.render())
}

/// `opaq exact`: exact quantile via the §4 two-pass extension.
pub fn exact(args: &Args) -> CliResult<String> {
    args.validate(
        "exact",
        &["data", "n", "phi", "run-length", "sample-size"],
        &[],
    )?;
    let (store, run_length, sample_size) = open_store(args)?;
    let phi = args.f64_or("phi", 0.5)?;
    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(sample_size)
        .build()?;
    let sketch = OpaqEstimator::new(config).build_sketch(&store)?;
    let result = exact_quantile(&store, &sketch, phi)?;
    Ok(format!(
        "exact {phi}-quantile = {} (rank {} of {}; second pass buffered {} candidates, bound {})\n",
        result.value,
        result.target_rank,
        store.len(),
        result.candidates_kept,
        sketch.max_elements_between_bounds()
    ))
}

/// `opaq serve-bench`: drive the serving stack under load on one topology.
///
/// Every answer is verified byte-for-byte against the published sketch
/// version it claims, so the command doubles as a consistency check: a torn
/// or mis-owned answer, a trace violation, an HTTP error, a breached SLO, a
/// missing TTL cycle (when a TTL is set), an incomplete kill/restart (on a
/// chaos fleet) or — on a fault-free run — a failed plan replay or an
/// unanswered op makes it fail.
pub fn serve_bench(args: &Args) -> CliResult<String> {
    args.validate(
        "serve-bench",
        &[
            "tenants",
            "clients",
            "ops",
            "keys-per-tenant",
            "run-length",
            "sample-size",
            "refreshes",
            "budget",
            "seed",
            "ttl-ms",
            "qps",
            "slo-p99-ms",
            "bench-out",
            "replicas",
            "groups",
        ],
        &["quick", "http", "chaos"],
    )?;
    let base = if args.flag("quick") {
        LoadSpec::quick()
    } else {
        LoadSpec::default()
    };
    let replicas = args.u64_or("replicas", 1)? as usize;
    let topology = if args.flag("http") {
        Topology::Fleet {
            groups: args.u64_or("groups", 1)? as usize,
            replicas,
            chaos: args.flag("chaos"),
        }
    } else if ["groups", "replicas"].iter().any(|o| args.get(o).is_some()) || args.flag("chaos") {
        return Err(CliError::Usage(
            "--groups/--replicas/--chaos drive a fleet over real sockets — add --http".to_string(),
        ));
    } else {
        Topology::InProcess
    };
    // The TTL probe is on by default wherever it can run over the wire.
    let default_ttl_ms = if args.flag("http") && replicas == 1 {
        150
    } else {
        0
    };
    let ttl_ms = args.u64_or("ttl-ms", default_ttl_ms)?;
    let budget = args.u64_or("budget", 0)?;
    let target_qps = match args.get("qps") {
        Some(_) => Some(args.f64_or("qps", 0.0)?),
        None => None,
    };
    // `--slo-p99-ms M` declares "p99 under M ms, zero errors, zero sheds" —
    // the conservative gate CI holds the open-loop bench to.
    let slo = match args.get("slo-p99-ms") {
        Some(_) => SloThresholds {
            p99: Some(Duration::from_millis(args.u64_or("slo-p99-ms", 0)?)),
            max_error_rate: Some(0.0),
            max_shed_rate: Some(0.0),
            ..Default::default()
        },
        None => SloThresholds::default(),
    };
    let spec = LoadSpec {
        topology,
        tenants: args.u64_or("tenants", base.tenants as u64)? as usize,
        clients: args.u64_or("clients", base.clients as u64)? as usize,
        ops_per_client: args.u64_or("ops", base.ops_per_client)?,
        keys_per_tenant: args.u64_or("keys-per-tenant", base.keys_per_tenant)?,
        run_length: args.u64_or("run-length", base.run_length)?,
        sample_size: args.u64_or("sample-size", base.sample_size)?,
        refresh_rounds: args.u64_or("refreshes", base.refresh_rounds)?,
        seed: args.u64_or("seed", base.seed)?,
        budget_sample_points: (budget > 0).then_some(budget),
        ttl: (ttl_ms > 0).then(|| Duration::from_millis(ttl_ms)),
        target_qps,
        slo,
    };
    let report =
        run_load(&spec).map_err(|e| CliError::Usage(format!("serve workload failed: {e}")))?;
    let mut out = format!(
        "served {} requests from {} clients over {} tenants ({}) in {:?} ({:.0} ops/s); {} \
         refreshes published mid-workload, {} responses verified byte-for-byte, {} /v1/query \
         plans replayed offline and verified (of {}), {} torn reads, {} mis-owned, {} http \
         errors, {} sheds, {} unanswered\n",
        report.ops,
        spec.clients,
        spec.tenants,
        spec.topology,
        report.wall,
        report.throughput(),
        report.refreshes_published,
        report.verified,
        report.plan_verified,
        report.plan_ops,
        report.torn_reads,
        report.mis_owned,
        report.http_errors,
        report.sheds,
        report.unanswered,
    );
    out.push_str(&report.render());
    if let Some(path) = args.get("bench-out") {
        std::fs::write(path, render_bench_serve_json(&spec, &report))
            .map_err(|e| CliError::Usage(format!("could not write {path}: {e}")))?;
        out.push_str(&format!("bench report written to {path}\n"));
    }

    let fault_free = !matches!(spec.topology, Topology::Fleet { chaos: true, .. });
    let mut failures = Vec::new();
    if report.torn_reads > 0 || report.mis_owned > 0 {
        failures.push(format!(
            "{} torn / {} mis-owned answers — an answer's bytes or its x-opaq-owner header \
             diverged from every published sketch version",
            report.torn_reads, report.mis_owned
        ));
    }
    if report.http_errors > 0 {
        failures.push(format!(
            "{} http errors on single-target requests",
            report.http_errors
        ));
    }
    if report.trace_violations > 0 {
        failures.push(format!(
            "{} responses missed (or mis-echoed) x-opaq-trace-id",
            report.trace_violations
        ));
    }
    if fault_free && (report.plan_verified < report.plan_ops || report.unanswered > 0) {
        failures.push(format!(
            "{} of {} /v1/query plans failed their offline byte replay and {} ops went \
             unanswered — on a fault-free run both must be zero",
            report.plan_ops - report.plan_verified,
            report.plan_ops,
            report.unanswered
        ));
    }
    if spec.ttl.is_some() && report.ttl_refreshes_observed == 0 {
        failures.push(
            "no TTL expiry-refresh cycle observed — staleness plumbing is broken".to_string(),
        );
    }
    if spec.topology.kills() && (report.kills == 0 || report.restarts < report.kills) {
        failures.push(format!(
            "chaos run never completed the kill/restart cycle ({} kills, {} restarts)",
            report.kills, report.restarts
        ));
    }
    if report.slo.is_breached() {
        failures.push(format!(
            "{} of {} declared SLO objectives breached",
            report.slo.breaches(),
            report.slo.checks.len()
        ));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(CliError::Usage(format!("{}\n{out}", failures.join("; "))))
    }
}

/// Render the machine-readable bench report (the `BENCH_serve.json` format:
/// same sections as `BENCH_select.json` — benchmark/command/recorded/host/
/// input/results/acceptance — hand-rolled like everything else JSON here).
fn render_bench_serve_json(spec: &LoadSpec, report: &LoadReport) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1_000.0;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let qps_note = match spec.target_qps {
        Some(qps) => format!("{qps:.0}"),
        None => "null".to_string(),
    };
    let slo_note = match spec.slo.p99 {
        Some(p99) => format!("\"p99 <= {:.0} ms, zero errors, zero sheds\"", ms(p99)),
        None => "\"none declared\"".to_string(),
    };
    let flags = match spec.topology {
        Topology::InProcess => String::new(),
        Topology::Fleet {
            groups,
            replicas,
            chaos,
        } => format!(
            " --http{}{}{}",
            if groups > 1 {
                format!(" --groups {groups}")
            } else {
                String::new()
            },
            if replicas > 1 {
                format!(" --replicas {replicas}")
            } else {
                String::new()
            },
            if chaos { " --chaos" } else { "" }
        ),
    };
    let mut command = format!(
        "opaq serve-bench{flags} --tenants {} --clients {} --ops {} --seed {}",
        spec.tenants, spec.clients, spec.ops_per_client, spec.seed,
    );
    if let Some(qps) = spec.target_qps {
        command.push_str(&format!(" --qps {qps:.0}"));
    }
    if let Some(p99) = spec.slo.p99 {
        command.push_str(&format!(" --slo-p99-ms {:.0}", ms(p99)));
    }
    let latency = &report.latency;
    format!(
        "{{\n  \"benchmark\": \"opaq serve-bench{flags} ({}, open-loop)\",\n  \"command\": \"{command}\",\n  \"recorded\": \"{}\",\n  \"host\": {{\n    \"cores\": {cores},\n    \"arch\": \"{}\",\n    \"note\": \"open-loop offered rate; latency measured from scheduled send times (coordinated-omission-safe)\"\n  }},\n  \"input\": {{\n    \"tenants\": {},\n    \"clients\": {},\n    \"ops_per_client\": {},\n    \"keys_per_tenant\": {},\n    \"run_length\": {},\n    \"sample_size\": {},\n    \"refresh_rounds\": {},\n    \"target_qps\": {qps_note},\n    \"seed\": {}\n  }},\n  \"results\": {{\n    \"ops\": {},\n    \"verified\": {},\n    \"torn_reads\": {},\n    \"wall_ms\": {:.3},\n    \"throughput_ops_s\": {:.1},\n    \"p50_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \"p999_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \"error_rate\": {:.6},\n    \"shed_rate\": {:.6}\n  }},\n  \"acceptance\": {{\n    \"criterion\": {slo_note},\n    \"slo_checks\": {},\n    \"slo_breaches\": {},\n    \"met\": {}\n  }}\n}}\n",
        spec.topology,
        today_utc(),
        std::env::consts::ARCH,
        spec.tenants,
        spec.clients,
        spec.ops_per_client,
        spec.keys_per_tenant,
        spec.run_length,
        spec.sample_size,
        spec.refresh_rounds,
        spec.seed,
        report.ops,
        report.verified + report.plan_verified,
        report.torn_reads,
        ms(report.wall),
        report.throughput(),
        ms(latency.p50),
        ms(latency.p99),
        ms(latency.p999),
        ms(latency.max),
        report.error_rate(),
        report.shed_rate(),
        report.slo.checks.len(),
        report.slo.breaches(),
        report.torn_reads == 0 && !report.slo.is_breached(),
    )
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm —
/// no clock/locale dependencies beyond `SystemTime`).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// `opaq serve`: the HTTP front-end over synthetic tenants.  The server runs
/// until stdin reaches EOF or a line saying `quit`/`stop`, then tears down
/// in order: HTTP server, refresh pool, catalog.
pub fn serve(args: &Args) -> CliResult<String> {
    args.validate(
        "serve",
        &[
            "addr",
            "tenants",
            "keys-per-tenant",
            "run-length",
            "sample-size",
            "ttl-ms",
            "refresh-threads",
            "workers",
            "seed",
            "data-dir",
            "slo-p99-ms",
            "peer",
            "peer-poll-ms",
            "ring",
            "group",
        ],
        &[],
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let tenants = args.u64_or("tenants", 2)?;
    if tenants == 0 {
        return Err(CliError::Usage("--tenants must be at least 1".to_string()));
    }
    let keys_per_tenant = args.u64_or("keys-per-tenant", 100_000)?;
    let run_length = args.u64_or("run-length", 10_000)?;
    let sample_size = args.u64_or("sample-size", 500)?.min(run_length);
    let ttl_ms = args.u64_or("ttl-ms", 0)?;
    let refresh_threads = thread_count(args, "refresh-threads", 1)?.max(1);
    let workers = args.u64_or("workers", 8)?.max(1);
    let seed = args.u64_or("seed", 42)?;
    let peer = args.get("peer").map(str::to_string);
    let peer_poll_ms = args.u64_or("peer-poll-ms", 500)?.max(10);
    if peer.is_none() && args.get("peer-poll-ms").is_some() {
        return Err(CliError::Usage(
            "--peer-poll-ms only makes sense with --peer".to_string(),
        ));
    }
    if peer.is_some() && ttl_ms > 0 {
        return Err(CliError::Usage(
            "--ttl-ms cannot be combined with --peer: a replica's content comes from its \
             peer, and a local TTL re-ingest would fork it from the source"
                .to_string(),
        ));
    }
    // Ring membership: `--ring FILE --group NAME` scopes this server to the
    // tenants its group owns and arms the wrong_owner/scatter machinery.
    let membership = match (args.get("ring"), args.get("group")) {
        (Some(path), Some(group)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Usage(format!("could not read ring file {path}: {e}")))?;
            let parsed = RingConfig::parse(&text)
                .map_err(|e| CliError::Usage(format!("invalid ring file {path}: {e}")))?;
            let ring = HashRing::new(parsed)
                .map_err(|e| CliError::Usage(format!("invalid ring file {path}: {e}")))?;
            Some(Arc::new(RingMembership::new(ring, group).map_err(|e| {
                CliError::Usage(format!("--group does not name a ring group: {e}"))
            })?))
        }
        (None, None) => None,
        _ => {
            return Err(CliError::Usage(
                "--ring FILE and --group NAME come as a pair: the file names the fleet's \
                 groups, the name says which one this server is"
                    .to_string(),
            ));
        }
    };
    // Shared replication counters, exposed via /metrics and the shutdown
    // summary when this server is a replica.
    let replication = peer.as_ref().map(|_| ReplicationStats::new());

    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(sample_size)
        .build()?;
    let catalog = match args.get("data-dir") {
        // Durable mode: every publish commits to the write-ahead manifest
        // under DIR before the epoch swap; a restart over the same DIR
        // replays it (see the durability model in opaq-serve's docs).
        Some(dir) => Arc::new(SketchCatalog::new(
            opaq_serve::CatalogConfig::builder().data_dir(dir).build()?,
        )?),
        None => Arc::new(SketchCatalog::unbounded()),
    };
    // One telemetry block for the whole process: the HTTP server records
    // request spans into it, the refresh pool and replicator record their
    // background work, and the shutdown banner reads the slow log back.
    let telemetry = Arc::new(Telemetry::new());
    let mut recovery_banner = String::new();
    let recovered_entries = catalog.recovery().map_or(0, |r| r.entries);
    if let Some(recovery) = catalog.recovery().filter(|r| r.entries > 0) {
        // A recovered catalog IS the state: re-seeding would bump every
        // version and break byte-for-byte continuity across the restart.
        recovery_banner = format!(
            "opaq serve: recovered {} entries from {} manifest records ({} torn tail bytes \
             truncated, {} orphan sketch files removed)\n",
            recovery.entries,
            recovery.records_replayed,
            recovery.torn_tail_bytes,
            recovery.orphan_spills_removed,
        );
        print!("{recovery_banner}");
    }
    if let Some(peer) = peer.as_deref() {
        // Replica mode: the peer's catalog IS the state.  Bootstrap before
        // binding so the server never exposes an empty (or stale-recovered)
        // catalog it is about to overwrite; every entry lands at the peer's
        // exact version, so answers are byte-identical to the source.
        let applied = bootstrap(
            &catalog,
            peer,
            replication.as_ref(),
            Some(telemetry.recorder()),
        )
        .map_err(|e| CliError::Usage(format!("could not bootstrap from peer {peer}: {e}")))?;
        println!("opaq serve: bootstrapped {applied} entries from peer {peer}");
    } else if recovered_entries == 0 {
        for tenant_idx in 0..tenants {
            // Ring-scoped ingest: a partitioned server seeds only the
            // tenants its group owns — peers own (and seed) the rest.
            if let Some(membership) = &membership {
                if !membership.owns(&format!("tenant-{tenant_idx}")) {
                    continue;
                }
            }
            let keys = DatasetSpec {
                n: keys_per_tenant,
                distribution: Distribution::Uniform { domain: 1 << 31 },
                duplicate_fraction: 0.1,
                seed: seed.wrapping_add(tenant_idx),
            }
            .generate();
            let mut inc = IncrementalOpaq::new(config)?;
            inc.add_run(keys)?;
            let sketch = inc
                .into_sketch()
                .ok_or(CliError::Usage("empty tenant dataset".to_string()))?;
            catalog.publish(
                &TenantId::new(format!("tenant-{tenant_idx}")),
                &DatasetId::new("events"),
                sketch,
            )?;
        }
    }

    // TTL: entries age out after --ttl-ms and are re-ingested (fresh
    // synthetic chunk, next version) by the refresh pool; until the publish
    // lands they keep serving the old version tagged stale/refreshing.
    let pool = Arc::new(RefreshPool::new(
        Arc::clone(&catalog),
        refresh_threads as usize,
        Some(Arc::clone(telemetry.recorder())),
    )?);
    if ttl_ms > 0 {
        // Recovered entries keep the TTLs the manifest restored (their names
        // need not match the synthetic tenant-N scheme); only freshly seeded
        // tenants get --ttl-ms applied.
        if recovered_entries == 0 {
            for tenant_idx in 0..tenants {
                if let Some(membership) = &membership {
                    if !membership.owns(&format!("tenant-{tenant_idx}")) {
                        continue;
                    }
                }
                catalog.set_ttl(
                    &TenantId::new(format!("tenant-{tenant_idx}")),
                    &DatasetId::new("events"),
                    Some(Duration::from_millis(ttl_ms)),
                )?;
            }
        }
        let weak = Arc::downgrade(&pool);
        let refresh_round = Arc::new(std::sync::atomic::AtomicU64::new(0));
        catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
            let Some(pool) = weak.upgrade() else {
                return false;
            };
            let round = refresh_round.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            let tenant_seed = seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(round)
                .wrapping_add(tenant.as_str().len() as u64);
            pool.submit(tenant, dataset, move || {
                let keys = DatasetSpec {
                    n: keys_per_tenant,
                    distribution: Distribution::Uniform { domain: 1 << 31 },
                    duplicate_fraction: 0.1,
                    seed: tenant_seed,
                }
                .generate();
                let mut inc = IncrementalOpaq::new(config)?;
                inc.add_run(keys)?;
                inc.into_sketch().ok_or(opaq_serve::ServeError::Opaq(
                    opaq_core::OpaqError::EmptyDataset,
                ))
            })
            .is_ok()
        }));
    }

    let slo_threshold = args
        .get("slo-p99-ms")
        .map(|_| args.u64_or("slo-p99-ms", 0).map(Duration::from_millis))
        .transpose()?;
    let mut server_builder = ServerConfig::builder()
        .addr(addr)
        .workers(workers as usize)
        .telemetry(Arc::clone(&telemetry))
        .slo_threshold(slo_threshold);
    if let Some(stats) = &replication {
        server_builder = server_builder.replication(Arc::clone(stats));
    }
    if let Some(membership) = &membership {
        server_builder = server_builder.ring(Arc::clone(membership));
    }
    let server_config = server_builder
        .build()
        .map_err(|e| CliError::Usage(format!("invalid server configuration: {e}")))?;
    let mut server = HttpServer::start(
        Arc::new(QueryEngine::new(Arc::clone(&catalog))),
        server_config,
    )
    .map_err(|e| CliError::Usage(format!("could not start the HTTP server: {e}")))?;
    let bound = server.local_addr();
    // Keep trailing the peer for deltas; backoff inside the replicator
    // rides out peer outages and reconnects when it comes back.
    let mut replicator = peer.as_ref().map(|peer| {
        Replicator::start(
            Arc::clone(&catalog),
            peer.clone(),
            Duration::from_millis(peer_poll_ms),
            replication.clone(),
            Some(Arc::clone(telemetry.recorder())),
        )
    });

    println!(
        "opaq serve: listening on http://{bound} ({} tenants, {keys_per_tenant} keys \
         each{}{}{}{}); close stdin or send 'quit' to stop",
        if recovered_entries > 0 {
            recovered_entries
        } else {
            tenants
        },
        if ttl_ms > 0 {
            format!(", ttl {ttl_ms}ms")
        } else {
            String::new()
        },
        match args.get("data-dir") {
            Some(dir) => format!(", durable in {dir}"),
            None => String::new(),
        },
        match &peer {
            Some(peer) => format!(", replicating from {peer} every {peer_poll_ms}ms"),
            None => String::new(),
        },
        match &membership {
            Some(m) => format!(
                ", ring group '{}' of {} (ingest scoped to owned tenants)",
                m.group_name(),
                m.ring().groups().len()
            ),
            None => String::new(),
        }
    );
    let _ = std::io::stdout().flush();

    // Block on stdin: each line is a command (only quit/stop for now); EOF
    // means the operator hung up — shut down cleanly.
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "quit" | "stop" => break,
            "" => continue,
            other => println!("opaq serve: ignoring unknown control line '{other}'"),
        }
    }

    // Snapshot counters only after the drain: a request in flight at EOF
    // still completes (and counts) during shutdown.
    server.shutdown();
    let stats = server.stats();
    if let Some(replicator) = replicator.as_mut() {
        replicator.shutdown();
    }
    pool.shutdown();
    let catalog_stats = catalog.stats();
    let replication_summary = match (&peer, &replication) {
        (Some(peer), Some(stats)) => format!(
            "; replication: {} sync deltas applied from peer {peer}, {} failovers, \
             {} breaker opens",
            stats.sync_deltas_applied(),
            stats.failovers(),
            stats.breaker_opens(),
        ),
        _ => String::new(),
    };
    // The observability postscript: the slowest request the slow log kept,
    // with its trace id (resolvable via `opaq trace --id` against a live
    // server) and how its time split across the pipeline stages.
    let trace_summary = match telemetry.slow().slowest() {
        Some(slowest) => {
            let spans = telemetry.recorder().trace(slowest.trace);
            let mut per_stage: Vec<(Stage, u64)> = Vec::new();
            for span in &spans {
                match per_stage.iter_mut().find(|(s, _)| *s == span.stage) {
                    Some((_, total)) => *total += span.duration_nanos,
                    None => per_stage.push((span.stage, span.duration_nanos)),
                }
            }
            let breakdown = per_stage
                .iter()
                .filter(|(stage, _)| *stage != Stage::Request)
                .map(|(stage, nanos)| format!("{} {}", stage.as_str(), format_nanos(*nanos)))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "; slowest request: trace {} {} ({}){}",
                slowest.trace,
                format_nanos(slowest.duration_nanos),
                slowest.detail,
                if breakdown.is_empty() {
                    String::new()
                } else {
                    format!(" — stages: {breakdown}")
                },
            )
        }
        None => String::new(),
    };
    Ok(format!(
        "opaq serve: shutdown complete (bound {bound}); served {} requests over {} connections \
         ({} rejected, {} parse errors); catalog: {} publishes, {} snapshots, {} stale, \
         {} ttl refreshes; durability: {} manifest records, {} recoveries, {} orphans reaped; \
         slo breaches: {}{replication_summary}{trace_summary}\n{recovery_banner}",
        stats.requests,
        stats.connections,
        stats.rejected,
        stats.parse_errors,
        catalog_stats.publishes,
        catalog_stats.snapshots,
        catalog_stats.stale_snapshots,
        catalog_stats.ttl_refreshes,
        catalog_stats.manifest_records,
        catalog_stats.recoveries,
        catalog_stats.orphan_spills_removed,
        server.executor().slo_breaches(),
    ))
}

/// `opaq trace`: observability client for a running front-end.
///
/// `--id HEX` prints one request's span tree from `/v1/_debug/trace`;
/// otherwise the top `--slow N` (default 10) slowest requests from
/// `/v1/_debug/slow`, whose trace ids feed back into `--id`.
pub fn trace(args: &Args) -> CliResult<String> {
    args.validate("trace", &["addr", "id", "slow"], &[])?;
    let addr = args.require("addr")?;
    if args.get("id").is_some() && args.get("slow").is_some() {
        return Err(CliError::Usage(
            "--id and --slow are mutually exclusive: one trace or the slow log".to_string(),
        ));
    }
    let mut client = HttpClient::new(addr);
    let fetch = |client: &mut HttpClient, target: &str| -> CliResult<String> {
        let response = client
            .get(target)
            .map_err(|e| CliError::Usage(format!("could not reach {addr}: {e}")))?;
        let body = response
            .body_str()
            .map_err(|e| CliError::Usage(format!("malformed response from {addr}: {e}")))?
            .to_string();
        if response.status != 200 {
            return Err(CliError::Usage(format!(
                "{addr} answered {} for {target}: {}",
                response.status,
                body.trim()
            )));
        }
        Ok(body)
    };
    if let Some(id) = args.get("id") {
        // The server renders the tree; the CLI is a dumb pipe so the two
        // never disagree about span semantics.
        return fetch(&mut client, &format!("/v1/_debug/trace?id={id}"));
    }
    let n = args.u64_or("slow", 10)?;
    let body = fetch(&mut client, &format!("/v1/_debug/slow?n={n}"))?;
    let parsed = Json::parse(&body)
        .map_err(|e| CliError::Usage(format!("malformed slow log from {addr}: {e}")))?;
    let threshold = parsed
        .get("threshold_nanos")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let entries = parsed
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::Usage(format!("slow log from {addr} has no entries array")))?;
    let mut out = format!(
        "slow log from {addr} (threshold {}, {} entr{}):\n",
        if threshold == 0 {
            "none — keeping the slowest".to_string()
        } else {
            format_nanos(threshold)
        },
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" },
    );
    for entry in entries {
        let (Some(trace), Some(duration), Some(detail)) = (
            entry.get("trace").and_then(Json::as_str),
            entry.get("duration_nanos").and_then(Json::as_u64),
            entry.get("detail").and_then(Json::as_str),
        ) else {
            return Err(CliError::Usage(format!(
                "slow log entry from {addr} is missing trace/duration_nanos/detail"
            )));
        };
        out.push_str(&format!(
            "  {:>10}  trace {trace}  {detail}\n",
            format_nanos(duration)
        ));
    }
    if entries.is_empty() {
        out.push_str("  (no requests recorded yet)\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn temp(tag: &str, ext: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("opaq-cli-cmd-{tag}-{}.{ext}", std::process::id()));
        p
    }

    #[test]
    fn generate_sketch_query_round_trip() {
        let data_path = temp("roundtrip", "bin");
        let sketch_path = temp("roundtrip", "sketch");
        let data_str = data_path.to_str().unwrap();
        let sketch_str = sketch_path.to_str().unwrap();

        let out = run(
            "generate",
            &args(&[
                "--out", data_str, "--n", "50000", "--dist", "zipf", "--seed", "3",
            ]),
        )
        .unwrap();
        assert!(out.contains("50000 keys"));

        let out = run(
            "sketch",
            &args(&[
                "--data",
                data_str,
                "--n",
                "50000",
                "--run-length",
                "5000",
                "--sample-size",
                "500",
                "--out",
                sketch_str,
            ]),
        )
        .unwrap();
        assert!(out.contains("built sketch: 5000 sample points"));
        assert!(out.contains("sketch saved"));

        let out = run(
            "query",
            &args(&["--sketch", sketch_str, "--phi", "0.5,0.9"]),
        )
        .unwrap();
        assert!(out.contains("0.5000"));
        assert!(out.contains("0.9000"));

        let out = run("rank", &args(&["--sketch", sketch_str, "--value", "100"])).unwrap();
        assert!(out.contains("rank of 100"));

        let out = run(
            "histogram",
            &args(&["--sketch", sketch_str, "--buckets", "8"]),
        )
        .unwrap();
        assert!(out.contains("8-bucket equi-depth histogram"));

        std::fs::remove_file(data_path).unwrap();
        std::fs::remove_file(sketch_path).unwrap();
    }

    #[test]
    fn exact_command_matches_full_sort() {
        let data_path = temp("exact", "bin");
        let data_str = data_path.to_str().unwrap();
        run(
            "generate",
            &args(&[
                "--out", data_str, "--n", "20000", "--dist", "uniform", "--seed", "9",
            ]),
        )
        .unwrap();
        let out = run(
            "exact",
            &args(&[
                "--data",
                data_str,
                "--n",
                "20000",
                "--phi",
                "0.25",
                "--sample-size",
                "200",
            ]),
        )
        .unwrap();
        assert!(out.contains("exact 0.25-quantile"), "{out}");

        // Independent verification against the generator + a sort.
        let spec = DatasetSpec {
            n: 20000,
            distribution: Distribution::Uniform { domain: 1 << 31 },
            duplicate_fraction: 0.1,
            seed: 9,
        };
        let mut data = spec.generate();
        data.sort_unstable();
        let truth = data[((0.25f64 * 20000.0).ceil() as usize) - 1];
        assert!(
            out.contains(&format!("= {truth} ")),
            "output {out} vs truth {truth}"
        );
        std::fs::remove_file(data_path).unwrap();
    }

    #[test]
    fn sharded_sketch_is_byte_identical_to_sequential() {
        let data_path = temp("sharded", "bin");
        let data_str = data_path.to_str().unwrap();
        run(
            "generate",
            &args(&[
                "--out", data_str, "--n", "30000", "--dist", "zipf", "--seed", "17",
            ]),
        )
        .unwrap();

        let mut saved = Vec::new();
        for threads in ["1", "2", "4", "8"] {
            let sketch_path = temp(&format!("sharded-t{threads}"), "sketch");
            let out = run(
                "sketch",
                &args(&[
                    "--data",
                    data_str,
                    "--n",
                    "30000",
                    "--run-length",
                    "3000",
                    "--sample-size",
                    "300",
                    "--threads",
                    threads,
                    "--out",
                    sketch_path.to_str().unwrap(),
                ]),
            )
            .unwrap();
            assert!(out.contains("built sketch: 3000 sample points"), "{out}");
            if threads != "1" {
                assert!(out.contains("shards"), "{out}");
            }
            saved.push(std::fs::read(&sketch_path).unwrap());
            std::fs::remove_file(sketch_path).unwrap();
        }
        for other in &saved[1..] {
            assert_eq!(
                &saved[0], other,
                "sharded sketch files must be byte-identical to sequential"
            );
        }

        assert!(run(
            "sketch",
            &args(&["--data", data_str, "--n", "30000", "--threads", "0"]),
        )
        .is_err());
        // There is one selector, so there is no flag to choose it.
        for command in ["sketch", "exact"] {
            let argv = [
                "--data",
                data_str,
                "--n",
                "30000",
                "--strategy",
                "introselect",
            ];
            let msg = run(command, &args(&argv)).unwrap_err().to_string();
            assert!(msg.contains("unknown option --strategy"), "{msg}");
        }
        std::fs::remove_file(data_path).unwrap();
    }

    #[test]
    fn unknown_command_and_missing_options_error() {
        assert!(run("frobnicate", &Args::default()).is_err());
        assert!(run("generate", &Args::default()).is_err());
        assert!(run("query", &Args::default()).is_err());
        assert!(run("histogram", &args(&["--sketch", "/nonexistent"])).is_err());
    }

    #[test]
    fn thread_counts_above_the_maximum_are_usage_errors() {
        // The data file does not exist and no address is bound: the count
        // is refused where the flag is parsed, before a store is opened or
        // a thread started.
        let too_many = (MAX_THREADS + 1).to_string();
        let sketch = args(&[
            "--data",
            "/nonexistent",
            "--n",
            "10",
            "--threads",
            &too_many,
        ]);
        let serve = args(&["--addr", "127.0.0.1:0", "--refresh-threads", &too_many]);
        for (command, argv, flag) in [
            ("sketch", sketch, "threads"),
            ("serve", serve, "refresh-threads"),
        ] {
            let err = run(command, &argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{command}: {err}");
            let expected = format!("--{flag} must be at most {MAX_THREADS}");
            assert!(err.to_string().contains(&expected), "{command}: {err}");
        }
    }

    #[test]
    fn unknown_distribution_rejected() {
        let data_path = temp("baddist", "bin");
        let err = run(
            "generate",
            &args(&[
                "--out",
                data_path.to_str().unwrap(),
                "--n",
                "100",
                "--dist",
                "cauchy",
            ]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown distribution"));
    }

    #[test]
    fn usage_mentions_every_command() {
        let text = usage();
        for cmd in [
            "generate",
            "sketch",
            "query",
            "rank",
            "histogram",
            "exact",
            "serve-bench",
        ] {
            assert!(text.contains(cmd), "usage must mention {cmd}");
        }
        assert_eq!(run("help", &Args::default()).unwrap(), text);
    }

    #[test]
    fn serve_bench_quick_serves_and_verifies() {
        let out = run(
            "serve-bench",
            &args(&[
                "--quick",
                "--tenants",
                "2",
                "--clients",
                "4",
                "--ops",
                "100",
                "--seed",
                "5",
            ]),
        )
        .unwrap();
        assert!(out.contains("served 400 requests"), "{out}");
        assert!(out.contains(", 0 torn reads"), "{out}");
        assert!(out.contains("p999"), "{out}");
        assert!(out.contains("tenant-1"), "{out}");
    }

    #[test]
    fn serve_bench_rejects_degenerate_shapes() {
        assert!(run("serve-bench", &args(&["--quick", "--clients", "0"])).is_err());
        assert!(run("serve-bench", &args(&["--quick", "--ops", "0"])).is_err());
    }

    #[test]
    fn every_command_rejects_unknown_and_misused_options() {
        // The `--theads 4` class of bug: a typo must be a hard error with a
        // suggestion, not a silent fall-back to defaults.
        let err = run(
            "sketch",
            &args(&["--data", "x", "--n", "10", "--theads", "4"]),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown option --theads"), "{msg}");
        assert!(msg.contains("did you mean --threads?"), "{msg}");

        for (cmd, bad) in [
            ("generate", vec!["--out", "x", "--n", "5", "--bogus", "1"]),
            ("query", vec!["--sketch", "x", "--quantile", "0.5"]),
            ("rank", vec!["--sketch", "x", "--val", "3"]),
            ("histogram", vec!["--sketch", "x", "--bucket", "8"]),
            ("exact", vec!["--data", "x", "--n", "5", "--phi2", "0.5"]),
            ("serve-bench", vec!["--quik"]),
            ("serve", vec!["--adr", "127.0.0.1:0"]),
        ] {
            let err = run(cmd, &args(&bad)).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "{cmd} {bad:?} must be a usage error, got {err}"
            );
        }
        // A flag used as an option and an option used as a flag.
        assert!(run("serve-bench", &args(&["--quick", "yes"])).is_err());
        assert!(run("serve-bench", &args(&["--quick", "--budget"])).is_err());
    }

    /// The number printed right after `label` in `out` (e.g. `failovers 3`).
    fn number_after(out: &str, label: &str) -> u64 {
        let at = out
            .find(label)
            .unwrap_or_else(|| panic!("no '{label}' in:\n{out}"));
        let digits: String = out[at + label.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("no number after '{label}'"))
    }

    fn run_bench(tokens: &[&str]) -> CliResult<String> {
        run("serve-bench", &args(tokens))
    }

    #[test]
    fn serve_bench_applies_one_rule_per_flag() {
        // Fleet flags need a fleet.
        for flags in [&["--replicas", "2"][..], &["--groups", "2"], &["--chaos"]] {
            let err = run_bench(&[&["--quick"], flags].concat()).unwrap_err();
            assert!(err.to_string().contains("add --http"), "{flags:?}: {err}");
        }
        // An eviction budget needs the in-process topology.
        let err = run_bench(&["--http", "--quick", "--budget", "100"]).unwrap_err();
        assert!(err.to_string().contains("in-process"), "{err}");
        // TTLs are not replicated, so a TTL probe needs one replica per
        // group — on every fleet shape.
        for shape in [
            &["--replicas", "2"][..],
            &["--groups", "2", "--replicas", "2"],
        ] {
            let tokens = [&["--http", "--quick", "--ttl-ms", "100"], shape].concat();
            let err = run_bench(&tokens).unwrap_err();
            assert!(err.to_string().contains("TTLs are not replicated"), "{err}");
        }
        // A shapeless fleet and a non-positive offered rate are usage errors.
        for bad in [
            &["--http", "--quick", "--groups", "0"][..],
            &["--http", "--quick", "--replicas", "0"],
            &["--http", "--quick", "--qps", "0"],
        ] {
            let err = run_bench(bad).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
        // The ring's vnode count is a constant, not a flag.
        let err = run_bench(&["--http", "--quick", "--groups", "2", "--vnodes", "64"]);
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("unknown option --vnodes"));
    }

    #[test]
    fn serve_bench_http_quick_verifies_over_the_wire() {
        let out = run_bench(&[
            "--http",
            "--quick",
            "--tenants",
            "2",
            "--clients",
            "3",
            "--ops",
            "60",
            "--seed",
            "7",
            "--ttl-ms",
            "60",
        ])
        .unwrap();
        assert!(out.contains(", 0 torn reads"), "{out}");
        assert!(out.contains(", 0 http errors"), "{out}");
        assert!(out.contains("verified byte-for-byte"), "{out}");
        assert!(
            number_after(&out, "expiry-refresh cycles observed ") >= 1,
            "{out}"
        );
        assert_eq!(number_after(&out, "plan verified "), 3 * 60 / 5, "{out}");
    }

    #[test]
    fn serve_bench_http_open_loop_with_ttl_holds_its_slo_and_writes_the_report() {
        let bench_path = temp("bench-serve-http", "json");
        let out = run_bench(&[
            "--http",
            "--quick",
            "--tenants",
            "2",
            "--clients",
            "2",
            "--ops",
            "60",
            "--ttl-ms",
            "60",
            "--qps",
            "2000",
            "--slo-p99-ms",
            "5000",
            "--bench-out",
            bench_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains(", 0 torn reads"), "{out}");
        assert!(out.contains("slo verdicts"), "{out}");
        let json = std::fs::read_to_string(&bench_path).unwrap();
        std::fs::remove_file(&bench_path).unwrap();
        for field in [
            "\"command\": \"opaq serve-bench --http --tenants 2",
            "\"slo_breaches\": 0",
            "\"met\": true",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
    }

    #[test]
    fn serve_bench_replica_fleet_takes_an_open_loop_slo() {
        let out = run_bench(&[
            "--http",
            "--quick",
            "--replicas",
            "2",
            "--tenants",
            "2",
            "--clients",
            "2",
            "--ops",
            "40",
            "--keys-per-tenant",
            "4000",
            "--qps",
            "2000",
            "--slo-p99-ms",
            "5000",
        ])
        .unwrap();
        assert!(out.contains("(1x2 fleet over TCP)"), "{out}");
        assert!(out.contains(", 0 torn reads"), "{out}");
        assert!(out.contains(", 0 http errors"), "{out}");
        assert!(out.contains("target qps (open loop): 2000"), "{out}");
        assert!(number_after(&out, "sync deltas applied ") >= 2, "{out}");
    }

    #[test]
    fn serve_bench_chaos_fleet_survives_a_kill_and_restart() {
        let out = run_bench(&[
            "--http",
            "--quick",
            "--replicas",
            "2",
            "--chaos",
            "--tenants",
            "2",
            "--clients",
            "3",
            "--ops",
            "60",
            "--keys-per-tenant",
            "4000",
            "--seed",
            "17",
        ])
        .unwrap();
        assert!(out.contains(", 0 torn reads"), "{out}");
        assert!(out.contains(", 0 http errors"), "{out}");
        assert!(out.contains("kills 1 | restarts 1"), "{out}");
        for counter in [
            "failovers ",
            "chaos faults injected ",
            "sync deltas applied ",
        ] {
            assert!(number_after(&out, counter) >= 1, "{counter}:\n{out}");
        }
    }

    #[test]
    fn serve_bench_routed_chaos_fleet_is_untorn_owned_and_balanced() {
        let out = run_bench(&[
            "--http",
            "--quick",
            "--groups",
            "2",
            "--replicas",
            "2",
            "--chaos",
            "--tenants",
            "6",
            "--clients",
            "3",
            "--ops",
            "60",
            "--keys-per-tenant",
            "4000",
            "--seed",
            "17",
        ])
        .unwrap();
        assert!(out.contains("| torn 0 | mis-owned 0 |"), "{out}");
        assert!(out.contains("kills 1 | restarts 1"), "{out}");
        assert!(out.contains("group-0: tenants 3"), "{out}");
        assert!(out.contains("group-1: tenants 3"), "{out}");
        for counter in ["reroutes ", "chaos faults injected "] {
            assert!(number_after(&out, counter) >= 1, "{counter}:\n{out}");
        }
    }

    #[test]
    fn query_modes_are_mutually_exclusive_and_validated() {
        // Neither mode selected.
        let err = run("query", &Args::default()).unwrap_err();
        assert!(err.to_string().contains("--sketch"), "{err}");
        assert!(err.to_string().contains("--expr"), "{err}");
        // Both modes at once.
        let err = run(
            "query",
            &args(&["--sketch", "x", "--expr", "fetch a/b | quantile 0.5"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Remote mode without a target.
        let err = run("query", &args(&["--expr", "fetch a/b | quantile 0.5"])).unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        // --addr is remote-only.
        let err = run("query", &args(&["--sketch", "x", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.to_string().contains("--expr"), "{err}");
        // A bad plan fails at local compile time, before any socket I/O
        // (127.0.0.1:1 would refuse the connection if we got that far).
        let err = run(
            "query",
            &args(&["--expr", "fetch a/b | juggle", "--addr", "127.0.0.1:1"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("invalid plan"), "{err}");
        assert!(err.to_string().contains("stage"), "{err}");
    }

    #[test]
    fn serve_peer_flags_are_validated() {
        let err = run("serve", &args(&["--peer-poll-ms", "100"])).unwrap_err();
        assert!(err.to_string().contains("--peer"), "{err}");
        let err = run(
            "serve",
            &args(&["--peer", "127.0.0.1:1", "--ttl-ms", "100"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("fork it from the source"), "{err}");
        // An unreachable peer fails the bootstrap before the server binds.
        let err = run("serve", &args(&["--peer", "127.0.0.1:1"])).unwrap_err();
        assert!(
            err.to_string().contains("could not bootstrap from peer"),
            "{err}"
        );
    }

    #[test]
    fn serve_bench_open_loop_emits_bench_report_and_holds_slo() {
        let bench_path = temp("bench-serve", "json");
        let bench_str = bench_path.to_str().unwrap();
        let out = run(
            "serve-bench",
            &args(&[
                "--quick",
                "--tenants",
                "2",
                "--clients",
                "2",
                "--ops",
                "60",
                "--qps",
                "2000",
                "--slo-p99-ms",
                "5000",
                "--bench-out",
                bench_str,
            ]),
        )
        .unwrap();
        assert!(out.contains("0 torn reads"), "{out}");
        assert!(out.contains("slo verdicts"), "{out}");
        assert!(out.contains("target qps"), "{out}");
        assert!(out.contains("bench report written"), "{out}");
        let json = std::fs::read_to_string(&bench_path).unwrap();
        for field in [
            "\"benchmark\"",
            "\"recorded\"",
            "\"host\"",
            "\"input\"",
            "\"results\"",
            "\"acceptance\"",
            "\"target_qps\": 2000",
            "\"torn_reads\": 0",
            "\"slo_breaches\": 0",
            "\"met\": true",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        // The emitted report is parseable by the workspace's own JSON reader.
        assert!(Json::parse(&json).is_ok(), "{json}");
        std::fs::remove_file(&bench_path).unwrap();

        // An impossible latency objective must turn into a nonzero exit.
        let err = run(
            "serve-bench",
            &args(&[
                "--quick",
                "--clients",
                "2",
                "--ops",
                "40",
                "--slo-p99-ms",
                "0",
            ]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("SLO"), "{err}");

        assert!(run("serve-bench", &args(&["--quick", "--qps", "0"])).is_err());
        assert!(run("serve-bench", &args(&["--quick", "--qps", "nope"])).is_err());
    }
}
