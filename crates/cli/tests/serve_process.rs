//! The cross-process promises of `opaq serve`, checked against the real
//! binary: the lifecycle of one server, a durable restart after SIGKILL, a
//! `--peer` replica through the death of its peer, and ring-scoped routing.
//!
//! One fixture, [`Serve`], spawns `opaq serve` with stdin and stdout piped,
//! reads the bound address from its `listening on http://ADDR` banner (the
//! banner is printed after bind, so no health poll is needed), stops it by
//! closing stdin and kills it with SIGKILL.
//!
//! Run with `cargo test -p opaq-cli --test serve_process`.

#[path = "../../metrics/tests/prometheus_parser/mod.rs"]
mod prometheus_parser;

use opaq_net::{
    ClientResponse, HashRing, HttpClient, RingConfig, FRESHNESS_HEADER, OWNER_HEADER, TRACE_HEADER,
    VERSION_HEADER,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::thread::JoinHandle;

/// Small tenants: every check here is about bytes and lifecycle, not size.
const TENANT_SHAPE: [&str; 6] = [
    "--keys-per-tenant",
    "20000",
    "--run-length",
    "2000",
    "--sample-size",
    "200",
];

/// One running `opaq serve` process.
struct Serve {
    child: Child,
    addr: String,
    /// Everything the process printed up to and including the banner.
    head: String,
    /// Drains the rest of stdout until the process exits.
    tail: Option<JoinHandle<String>>,
}

impl Serve {
    /// Start `opaq serve --addr 127.0.0.1:0 ARGS`.
    fn start(args: &[&str]) -> Serve {
        Serve::start_at("127.0.0.1:0", args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Start `opaq serve --addr ADDR ARGS`.  An `Err` carries what the
    /// process printed before it exited without listening (a failed bind).
    fn start_at(addr: &str, args: &[&str]) -> Result<Serve, String> {
        let mut serve = Serve {
            child: Command::new(env!("CARGO_BIN_EXE_opaq"))
                .args(["serve", "--addr", addr])
                .args(TENANT_SHAPE)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn opaq serve"),
            addr: String::new(),
            head: String::new(),
            tail: None,
        };
        let mut stdout = BufReader::new(serve.child.stdout.take().expect("piped stdout"));
        loop {
            let mut line = String::new();
            if stdout.read_line(&mut line).expect("read serve stdout") == 0 {
                let status = serve.child.wait().expect("wait for opaq serve");
                return Err(format!(
                    "opaq serve --addr {addr} exited ({status}) before listening:\n{}",
                    serve.head
                ));
            }
            serve.head.push_str(&line);
            if let Some((_, rest)) = line.split_once("listening on http://") {
                serve.addr = rest.split_whitespace().next().expect("banner").to_string();
                serve.tail = Some(std::thread::spawn(move || drain(stdout)));
                return Ok(serve);
            }
        }
    }

    fn get(&self, target: &str) -> ClientResponse {
        HttpClient::new(self.addr.clone())
            .get(target)
            .unwrap_or_else(|e| panic!("GET {target} on {}: {e}", self.addr))
    }

    fn post(&self, target: &str, body: &str) -> ClientResponse {
        HttpClient::new(self.addr.clone())
            .post_json(target, body)
            .unwrap_or_else(|e| panic!("POST {target} on {}: {e}", self.addr))
    }

    fn metrics(&self) -> String {
        text(&self.get("/metrics"))
    }

    /// Write control lines to the server's stdin.
    fn send(&mut self, lines: &str) {
        let stdin = self.child.stdin.as_mut().expect("stdin still open");
        stdin.write_all(lines.as_bytes()).expect("write control");
        stdin.flush().expect("flush control");
    }

    /// Close stdin, require exit status 0, and return all of stdout.
    fn stop(mut self) -> String {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for opaq serve");
        let out = self.output();
        assert!(status.success(), "opaq serve exited {status}:\n{out}");
        out
    }

    /// SIGKILL the process and return what it printed.
    fn kill(mut self) -> String {
        self.child.kill().expect("kill opaq serve");
        self.child.wait().expect("wait for opaq serve");
        self.output()
    }

    fn output(&mut self) -> String {
        let tail = self.tail.take().expect("output read once");
        format!("{}{}", self.head, tail.join().expect("stdout reader"))
    }
}

impl Drop for Serve {
    /// A failed assertion must not leave a server running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn drain(mut stdout: BufReader<ChildStdout>) -> String {
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read serve stdout");
    rest
}

fn text(response: &ClientResponse) -> String {
    String::from_utf8(response.body.clone()).expect("utf-8 body")
}

/// Run the `opaq` binary to completion.
fn opaq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_opaq"))
        .args(args)
        .output()
        .expect("run opaq")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "opaq failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

/// The value of the unlabelled sample `name` in a `/metrics` body.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{metrics}"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let name = format!("opaq-serve-process-{tag}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Health, headers, the `query` and `trace` clients, a strict `/metrics`
/// scrape, the plan accounting under an unmeetable SLO, control lines, and
/// the shutdown summary of one server.
#[test]
fn lifecycle_serves_traces_scrapes_and_shuts_down_on_stdin() {
    let mut server = Serve::start(&["--tenants", "3", "--ttl-ms", "60000", "--slo-p99-ms", "0"]);
    assert!(server.head.contains("ttl 60000ms"), "{}", server.head);
    let addr = server.addr.clone();

    let health = server.get("/healthz");
    assert_eq!(health.status, 200);
    assert!(
        text(&health).contains("\"status\":\"ok\""),
        "{}",
        text(&health)
    );
    let answer = server.get("/v1/tenant-0/events/quantile?phi=0.5");
    assert_eq!(answer.status, 200, "{}", text(&answer));
    assert_eq!(answer.header(VERSION_HEADER), Some("1"));
    assert_eq!(answer.header(FRESHNESS_HEADER), Some("fresh"));
    let trace = answer.header(TRACE_HEADER).expect("trace id").to_string();

    // `opaq trace`: the slow log lists the request, `--id` renders its tree.
    let out = stdout_of(&opaq(&["trace", "--addr", &addr, "--slow", "32"]));
    assert!(out.contains("slow log from"), "{out}");
    assert!(out.contains(&format!("trace {trace}")), "{out}");
    assert!(out.contains("GET /v1/tenant-0/events/quantile"), "{out}");
    let out = stdout_of(&opaq(&["trace", "--addr", &addr, "--id", &trace]));
    for stage in ["request", "parse", "compile", "fetch", "snapshot", "render"] {
        assert!(out.contains(stage), "span tree missing {stage}:\n{out}");
    }
    let unknown = opaq(&["trace", "--addr", &addr, "--id", "00000000000000ff"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("404"));
    let both = opaq(&["trace", "--addr", &addr, "--id", &trace, "--slow", "5"]);
    assert!(String::from_utf8_lossy(&both.stderr).contains("mutually exclusive"));

    // `opaq query --expr`: a coalesce plan prints its provenance, a rank
    // plan its bounds, and a server-side failure the typed error.
    let out = stdout_of(&opaq(&[
        "query",
        "--expr",
        "fetch tenant-*/events | coalesce | quantile 0.5,0.99",
        "--addr",
        &addr,
    ]));
    assert!(out.contains("plan sources (3 entries"), "{out}");
    for expected in ["tenant-0", "tenant-2", "fresh", "0.5000", "0.9900"] {
        assert!(out.contains(expected), "missing {expected}:\n{out}");
    }
    let out = stdout_of(&opaq(&[
        "query",
        "--expr",
        "fetch tenant-0/events | rank 1000000",
        "--addr",
        &addr,
    ]));
    assert!(out.contains("plan sources (1 entries"), "{out}");
    assert!(out.contains("rank: between"), "{out}");
    let ghost = opaq(&[
        "query",
        "--expr",
        "fetch ghost-*/events | coalesce | quantile 0.5",
        "--addr",
        &addr,
    ]);
    assert!(!ghost.status.success());
    let err = String::from_utf8_lossy(&ghost.stderr);
    assert!(
        err.contains("HTTP 404") && err.contains("not_found"),
        "{err}"
    );

    // The live scrape passes the strict Prometheus parser.
    let metrics = server.metrics();
    let report = prometheus_parser::validate(&metrics).unwrap_or_else(|e| panic!("{e}\n{metrics}"));
    for family in [
        "opaq_http_requests",
        "opaq_trace_spans_recorded",
        "opaq_catalog_publishes",
        "opaq_catalog_entries",
    ] {
        assert!(report.kinds.contains_key(family), "missing {family}");
    }
    assert_eq!(report.kinds["opaq_stage_duration_nanos"], "histogram");
    assert!(metrics.contains("\nopaq_stage_duration_nanos_count{stage=\"request\"} "));
    assert!(report.samples > report.families, "{metrics}");
    assert_eq!(sample(&metrics, "opaq_catalog_entries"), 3);

    // Every answered plan is accounted once: against the SLO (a 0 ms
    // threshold, so each one breaches) and once per contributing tenant.
    // So far: the point GET and the rank plan on tenant-0, and the
    // coalesce plan over all three; the ghost plan failed.
    let mut answered = 3;
    for t in [1, 2, 2] {
        let r = server.get(&format!("/v1/tenant-{t}/events/rank?key=5000"));
        assert_eq!(r.status, 200, "{}", text(&r));
        answered += 1;
    }
    let metrics = server.metrics();
    assert_eq!(sample(&metrics, "opaq_slo_breaches"), answered);
    for (tenant, plans) in [("tenant-0", 3), ("tenant-1", 2), ("tenant-2", 3)] {
        let series = format!("opaq_request_count{{tenant=\"{tenant}\"}}");
        assert_eq!(sample(&metrics, &series), plans, "{tenant}");
    }

    // Unknown control lines are reported; `quit` stops reading, so the line
    // after it is never seen.
    server.send("bogus\nquit\nafter-quit\n");
    let out = server.stop();
    assert!(
        out.contains("ignoring unknown control line 'bogus'"),
        "{out}"
    );
    assert!(!out.contains("after-quit"), "{out}");
    assert!(out.contains("shutdown complete"), "{out}");
    assert!(out.contains("catalog: 3 publishes"), "{out}");
    assert!(out.contains(&format!("slo breaches: {answered};")), "{out}");
    assert!(out.contains("slowest request: trace"), "{out}");
    assert!(out.contains("stages:"), "{out}");
}

/// A SIGKILLed durable server restarts over its data dir into the same
/// catalog: same version, byte-identical answers, and the recovery shown.
#[test]
fn durable_restart_after_sigkill_serves_identical_bytes() {
    let dir = scratch_dir("durable");
    let args = ["--tenants", "2", "--data-dir", dir.to_str().unwrap()];

    let first = Serve::start(&args);
    let before = first.get("/v1/tenant-0/events/quantile?phi=0.5");
    assert_eq!(before.status, 200);
    assert_eq!(before.header(VERSION_HEADER), Some("1"));
    assert_eq!(sample(&first.metrics(), "opaq_manifest_records"), 2);
    first.kill();

    let second = Serve::start(&args);
    assert!(
        second.head.contains("recovered 2 entries"),
        "{}",
        second.head
    );
    let after = second.get("/v1/tenant-0/events/quantile?phi=0.5");
    assert_eq!(after.header(VERSION_HEADER), Some("1"));
    assert_eq!(text(&after), text(&before), "restart changed the answer");
    let metrics = second.metrics();
    assert_eq!(sample(&metrics, "opaq_catalog_recoveries"), 1);
    assert_eq!(sample(&metrics, "opaq_manifest_records"), 2);
    let out = second.stop();
    assert!(out.contains("shutdown complete"), "{out}");
    // Nothing was re-seeded: the entries came back from the manifest.
    assert!(out.contains("catalog: 0 publishes"), "{out}");
    assert!(out.contains("1 recoveries"), "{out}");
    assert!(out.contains("recovered 2 entries"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--peer` replica answers byte-identically at the peer's versions and
/// keeps doing so while its peer is dead and after it recovers.
#[test]
fn peer_replica_serves_identical_bytes_through_peer_death() {
    let dir = scratch_dir("peer");
    let primary_args = ["--tenants", "2", "--data-dir", dir.to_str().unwrap()];
    let primary = Serve::start(&primary_args);
    let primary_addr = primary.addr.clone();
    let replica = Serve::start(&["--peer", &primary_addr, "--peer-poll-ms", "50"]);
    assert!(
        replica.head.contains("bootstrapped 2 entries"),
        "{}",
        replica.head
    );

    for target in [
        "/v1/tenant-0/events/quantile?phi=0.5",
        "/v1/tenant-0/events/rank?key=12345",
        "/v1/tenant-0/events/profile?count=7",
    ] {
        let (source, copy) = (primary.get(target), replica.get(target));
        assert_eq!(copy.status, 200, "{target}: {}", text(&copy));
        assert_eq!(copy.header(VERSION_HEADER), Some("1"), "{target}");
        assert_eq!(text(&copy), text(&source), "{target}");
    }
    assert!(sample(&replica.metrics(), "opaq_sync_deltas_applied") >= 1);
    let quantile = "/v1/tenant-0/events/quantile?phi=0.5";
    let expected = text(&replica.get(quantile));

    primary.kill();
    assert_eq!(text(&replica.get(quantile)), expected, "peer down");

    // The peer comes back on its address over the same manifest.
    let primary = Serve::start_at(&primary_addr, &primary_args).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(text(&primary.get(quantile)), expected, "peer recovered");
    assert_eq!(text(&replica.get(quantile)), expected, "peer back");

    let out = replica.stop();
    assert!(out.contains("shutdown complete"), "{out}");
    assert!(out.contains("sync deltas applied from peer"), "{out}");
    primary.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two ring-scoped servers beside an unpartitioned oracle: the wrong group
/// refuses with the owner's name and address, the owner and a scattered
/// glob plan answer with the oracle's bytes.
#[test]
fn ring_groups_refuse_misroutes_and_scatter_to_oracle_bytes() {
    let dir = scratch_dir("ring");
    let ring_file = dir.join("ring.json");
    let ring_path = ring_file.to_str().unwrap().to_string();
    let shape = ["--tenants", "6", "--ring", &ring_path];

    // The ring file names both addresses before either server starts, so
    // reserve two ports and retry if another process takes one first.
    let (ring, groups) = (0..20)
        .find_map(|_| {
            let reserved: Vec<String> = (0..2)
                .map(|_| {
                    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
                    listener.local_addr().unwrap().to_string()
                })
                .collect();
            let config = format!(
                "{{\"vnodes\":128,\"groups\":[\
                 {{\"name\":\"group-0\",\"addrs\":[\"{}\"]}},\
                 {{\"name\":\"group-1\",\"addrs\":[\"{}\"]}}]}}",
                reserved[0], reserved[1]
            );
            std::fs::write(&ring_file, &config).expect("write ring file");
            let mut groups = Vec::new();
            for (g, addr) in reserved.iter().enumerate() {
                let group = format!("group-{g}");
                let mut args = shape.to_vec();
                args.extend(["--group", &group]);
                groups.push(Serve::start_at(addr, &args).ok()?);
            }
            Some((RingConfig::parse(&config).unwrap(), groups))
        })
        .expect("two ring servers bound their reserved ports");
    let oracle = Serve::start(&["--tenants", "6"]);
    let ring = HashRing::new(ring).unwrap();

    let quantile = "/v1/tenant-0/events/quantile?phi=0.5";
    let owner = ring.owner_index("tenant-0");
    let owner_name = format!("group-{owner}");
    let refused = groups[1 - owner].get(quantile);
    assert_eq!(refused.status, 421, "{}", text(&refused));
    let body = text(&refused);
    assert!(body.contains("\"code\":\"wrong_owner\""), "{body}");
    assert!(
        body.contains(&format!("\"group\":\"{owner_name}\"")),
        "{body}"
    );
    assert!(body.contains(&groups[owner].addr), "{body}");

    let owned = groups[owner].get(quantile);
    assert_eq!(owned.status, 200);
    assert_eq!(owned.header(OWNER_HEADER), Some(owner_name.as_str()));
    assert_eq!(text(&owned), text(&oracle.get(quantile)));

    let plan = r#"{"plan":"fetch tenant-*/events | coalesce | quantile 0.5"}"#;
    let expected = text(&oracle.post("/v1/query", plan));
    assert!(expected.contains("\"sources\""), "{expected}");
    for group in &groups {
        assert_eq!(
            text(&group.post("/v1/query", plan)),
            expected,
            "{}",
            group.addr
        );
        assert_eq!(sample(&group.metrics(), "opaq_ring_tenants_owned"), 3);
    }

    for (g, group) in groups.into_iter().enumerate() {
        let out = group.stop();
        assert!(
            out.contains(&format!("ring group 'group-{g}' of 2")),
            "{out}"
        );
        assert!(out.contains("shutdown complete"), "{out}");
    }
    oracle.stop();
    std::fs::remove_dir_all(&dir).ok();
}
