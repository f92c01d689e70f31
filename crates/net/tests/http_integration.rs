//! End-to-end tests of the HTTP front-end over a real loopback socket:
//! every endpoint family byte-identical to the in-process answer, limits
//! (413/431), method/route errors, keep-alive caps, TTL freshness over the
//! wire, shutdown behaviour, and framing (requests split into single
//! bytes, pipelined, or with the body behind the head).

use opaq_core::{IncrementalOpaq, OpaqConfig};
use opaq_net::http::ReadLimits;
use opaq_net::{
    render_plan_response_json, render_response_json, HttpClient, HttpServer, Json, ServerConfig,
    FRESHNESS_HEADER, SOURCES_HEADER, VERSION_HEADER,
};
use opaq_query::{merge_tree, PlanResponse, PlanSource};
use opaq_serve::{
    execute_on, DatasetId, Freshness, QueryEngine, QueryRequest, QueryResponse, RefreshPool,
    SketchCatalog, TenantId,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sketch_of(n: u64) -> opaq_core::QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(1000)
        .sample_size(100)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run((0..n).collect()).unwrap();
    inc.into_sketch().unwrap()
}

/// A catalog with one published tenant (`acme/events`, 10k keys) + its
/// server.
fn serve(config: ServerConfig) -> (Arc<SketchCatalog>, HttpServer) {
    let catalog = Arc::new(SketchCatalog::unbounded());
    catalog
        .publish(
            &TenantId::new("acme"),
            &DatasetId::new("events"),
            sketch_of(10_000),
        )
        .unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(engine, config).unwrap();
    (catalog, server)
}

#[test]
fn every_endpoint_family_is_byte_identical_to_the_in_process_answer() {
    let (_catalog, server) = serve(ServerConfig::default());
    let mut client = HttpClient::new(server.local_addr().to_string());
    let direct = sketch_of(10_000);

    let cases: Vec<(QueryRequest, String, Option<String>)> = vec![
        (
            QueryRequest::Quantile { phi: 0.5 },
            "/v1/acme/events/quantile?phi=0.5".to_string(),
            None,
        ),
        (
            QueryRequest::Quantile { phi: 0.4237 },
            "/v1/acme/events/quantile?phi=0.4237".to_string(),
            None,
        ),
        (
            QueryRequest::Quantile { phi: 0.0 },
            "/v1/acme/events/quantile?phi=0".to_string(),
            None,
        ),
        (
            QueryRequest::Quantile { phi: 1.0 },
            "/v1/acme/events/quantile?phi=1".to_string(),
            None,
        ),
        (
            QueryRequest::Rank { key: 2_500 },
            "/v1/acme/events/rank?key=2500".to_string(),
            None,
        ),
        (
            QueryRequest::Profile { count: 10 },
            "/v1/acme/events/profile?count=10".to_string(),
            None,
        ),
        (
            QueryRequest::QuantileBatch {
                phis: vec![0.1, 0.5, 0.9],
            },
            "/v1/acme/events/quantile_batch".to_string(),
            Some("{\"phis\":[0.1,0.5,0.9]}".to_string()),
        ),
    ];
    for (request, target, body) in cases {
        let response = match &body {
            Some(body) => client.post_json(&target, body).unwrap(),
            None => client.get(&target).unwrap(),
        };
        assert_eq!(response.status, 200, "{target}");
        assert_eq!(response.header(VERSION_HEADER), Some("1"), "{target}");
        assert_eq!(response.header(FRESHNESS_HEADER), Some("fresh"), "{target}");
        let expected = render_response_json(&QueryResponse {
            output: execute_on(&direct, &request).unwrap(),
            version: 1,
            total_elements: direct.total_elements(),
            freshness: Freshness::Fresh,
        });
        assert_eq!(
            response.body_str().unwrap(),
            expected,
            "wire bytes must equal the in-process serialization for {target}"
        );
        // And the body is well-formed JSON agreeing with the header.
        let parsed = Json::parse(response.body_str().unwrap()).unwrap();
        assert_eq!(parsed.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("freshness").unwrap().as_str(), Some("fresh"));
    }
}

#[test]
fn path_segments_decode_individually_so_odd_tenant_ids_route() {
    // The catalog supports tenant ids with slashes, pluses and spaces; over
    // HTTP they arrive percent-encoded and must land on the same entry.
    let catalog = Arc::new(SketchCatalog::unbounded());
    for tenant in ["a/b", "a+b", "a b"] {
        catalog
            .publish(
                &TenantId::new(tenant),
                &DatasetId::new("events"),
                sketch_of(1_000),
            )
            .unwrap();
    }
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    for encoded in ["a%2Fb", "a+b", "a%20b"] {
        let response = client
            .get(&format!("/v1/{encoded}/events/quantile?phi=0.5"))
            .unwrap();
        assert_eq!(response.status, 200, "tenant {encoded} must route");
        assert_eq!(response.header(VERSION_HEADER), Some("1"), "{encoded}");
    }
    // An *unencoded* slash is a separator: 5 segments => 404, not a lookup
    // of tenant "a/b".
    assert_eq!(
        client
            .get("/v1/a/b/events/quantile?phi=0.5")
            .unwrap()
            .status,
        404
    );
}

#[test]
fn profile_default_count_and_batch_of_one() {
    let (_c, server) = serve(ServerConfig::default());
    let mut client = HttpClient::new(server.local_addr().to_string());
    let response = client.get("/v1/acme/events/profile").unwrap();
    assert_eq!(response.status, 200);
    let parsed = Json::parse(response.body_str().unwrap()).unwrap();
    assert_eq!(
        parsed.get("estimates").unwrap().as_array().unwrap().len(),
        9,
        "default count=10 => 9 interior quantiles"
    );
    let response = client
        .post_json("/v1/acme/events/quantile_batch", "{\"phis\":[0.25]}")
        .unwrap();
    assert_eq!(response.status, 200);
}

#[test]
fn health_and_metrics_expose_catalog_and_latency() {
    // An unmeetable SLO: every served query is a breach.
    let (_c, server) = serve(
        ServerConfig::builder()
            .slo_threshold(Some(Duration::ZERO))
            .build()
            .unwrap(),
    );
    let mut client = HttpClient::new(server.local_addr().to_string());
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let parsed = Json::parse(health.body_str().unwrap()).unwrap();
    assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(parsed.get("entries").unwrap().as_u64(), Some(1));

    // Generate some latency samples, then scrape.
    for _ in 0..5 {
        let r = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
        assert_eq!(r.status, 200);
    }
    assert_eq!(server.executor().slo_breaches(), 5);
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().unwrap();
    assert!(
        text.contains("opaq_request_latency_nanos{tenant=\"acme\",quantile=\"p50\"}"),
        "{text}"
    );
    assert!(text.contains("quantile=\"p999\""), "{text}");
    assert!(text.contains("opaq_catalog_publishes 1"), "{text}");
    assert!(text.contains("opaq_catalog_entries 1"), "{text}");
    assert!(text.contains("opaq_slo_breaches 5\n"), "{text}");
    assert!(
        text.contains("opaq_stage_duration_nanos_count{stage=\"fetch\"} 5\n"),
        "{text}"
    );
    assert!(!text.contains("_all"), "no aggregate tenant row: {text}");
}

#[test]
fn error_statuses_are_typed() {
    let (_c, server) = serve(
        ServerConfig::builder()
            .limits(ReadLimits {
                max_header_bytes: 512,
                max_body_bytes: 256,
            })
            .build()
            .unwrap(),
    );
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr.clone());

    // 404: unknown tenant, unknown route, unknown op.
    assert_eq!(
        client
            .get("/v1/ghost/events/quantile?phi=0.5")
            .unwrap()
            .status,
        404
    );
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/acme/events/medianify").unwrap().status, 404);
    // 400: bad/missing parameters and invalid phi ranges.
    assert_eq!(client.get("/v1/acme/events/quantile").unwrap().status, 400);
    assert_eq!(
        client
            .get("/v1/acme/events/quantile?phi=abc")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .get("/v1/acme/events/quantile?phi=NaN")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .get("/v1/acme/events/quantile?phi=1.5")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client.get("/v1/acme/events/rank?key=-3").unwrap().status,
        400
    );
    assert_eq!(
        client
            .get("/v1/acme/events/profile?count=0")
            .unwrap()
            .status,
        400
    );
    let bad_batch = client
        .post_json("/v1/acme/events/quantile_batch", "{\"phis\":[0.5,")
        .unwrap();
    assert_eq!(bad_batch.status, 400);
    let parsed = Json::parse(bad_batch.body_str().unwrap()).unwrap();
    assert!(parsed.get("error").is_some());
    // 405: wrong method.
    assert_eq!(
        client
            .post_json("/v1/acme/events/quantile?phi=0.5", "{}")
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client.get("/v1/acme/events/quantile_batch").unwrap().status,
        405
    );
    // 413: body over the cap.
    let huge = format!("{{\"phis\":[{}]}}", "0.5,".repeat(200) + "0.5");
    assert!(huge.len() > 256);
    assert_eq!(
        client
            .post_json("/v1/acme/events/quantile_batch", &huge)
            .unwrap()
            .status,
        413
    );
    // 431: header block over the cap (fresh client: the 413 closed ours).
    let mut client = HttpClient::new(addr);
    let long_target = format!("/v1/acme/events/quantile?phi=0.5&pad={}", "x".repeat(600));
    assert_eq!(client.get(&long_target).unwrap().status, 431);
}

#[test]
fn keep_alive_cap_closes_and_client_reconnects() {
    let (_c, server) = serve(
        ServerConfig::builder()
            .keep_alive_max_requests(3)
            .build()
            .unwrap(),
    );
    let mut client = HttpClient::new(server.local_addr().to_string());
    // 10 requests across a cap of 3 per connection: the client must ride the
    // `connection: close` handshakes transparently.
    for i in 0..10 {
        let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
        assert_eq!(response.status, 200, "request {i}");
    }
    assert!(server.stats().connections >= 4, "{:?}", server.stats());
}

#[test]
fn malformed_requests_get_400_not_a_hang() {
    use std::io::{Read, Write};
    let (_c, server) = serve(ServerConfig::default());
    for raw in [
        "BANANAS\r\n\r\n",
        "GET noslash HTTP/1.1\r\n\r\n",
        "GET / HTTP/2.0\r\n\r\n",
        "GET / HTTP/1.1\r\nbroken header\r\n\r\n",
        "POST /v1/a/b/quantile_batch HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 4\r\n\r\nabcd",
        "POST /v1/a/b/quantile_batch HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    ] {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let status: u16 = out
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(
            status == 400 || status == 501,
            "raw {raw:?} => {status} ({out:?})"
        );
        assert!(out.contains("connection: close"), "{out:?}");
    }
}

#[test]
fn ttl_expiry_is_visible_over_the_wire_until_refresh_publishes() {
    let (catalog, server) = serve(ServerConfig::default());
    let mut client = HttpClient::new(server.local_addr().to_string());
    let (tenant, dataset) = (TenantId::new("acme"), DatasetId::new("events"));
    catalog
        .set_ttl(&tenant, &dataset, Some(Duration::from_millis(30)))
        .unwrap();

    // Within the TTL: fresh.
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.header(FRESHNESS_HEADER), Some("fresh"));

    // Expired with no hook: stale, same old version still served byte-exact.
    std::thread::sleep(Duration::from_millis(60));
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.header(FRESHNESS_HEADER), Some("stale"));
    assert_eq!(response.header(VERSION_HEADER), Some("1"));
    let direct = sketch_of(10_000);
    let expected = render_response_json(&QueryResponse {
        output: execute_on(&direct, &QueryRequest::Quantile { phi: 0.5 }).unwrap(),
        version: 1,
        total_elements: 10_000,
        freshness: Freshness::Stale,
    });
    assert_eq!(response.body_str().unwrap(), expected);

    // Install a real refresh pipeline: the next expired access routes the
    // entry to the pool, serves `refreshing`, and the publish flips it back
    // to `fresh` at version 2.
    let pool = Arc::new(RefreshPool::new(Arc::clone(&catalog), 1, None).unwrap());
    let weak = Arc::downgrade(&pool);
    catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
        let Some(pool) = weak.upgrade() else {
            return false;
        };
        pool.submit(tenant, dataset, || Ok(sketch_of(20_000)))
            .is_ok()
    }));
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.header(FRESHNESS_HEADER), Some("refreshing"));
    assert_eq!(
        response.header(VERSION_HEADER),
        Some("1"),
        "old version serves"
    );
    assert!(pool.wait_idle(Duration::from_secs(10)));
    let response = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(response.header(FRESHNESS_HEADER), Some("fresh"));
    assert_eq!(response.header(VERSION_HEADER), Some("2"));
    let parsed = Json::parse(response.body_str().unwrap()).unwrap();
    assert_eq!(parsed.get("total_elements").unwrap().as_u64(), Some(20_000));
}

#[test]
fn query_plans_are_byte_identical_to_the_offline_merge() {
    // Three matching tenants plus one the glob must skip.
    let catalog = Arc::new(SketchCatalog::unbounded());
    let sketches: Vec<_> = (0..3u64)
        .map(|i| Arc::new(sketch_of(2_000 + i * 1_000)))
        .collect();
    for (i, sketch) in sketches.iter().enumerate() {
        catalog
            .publish(
                &TenantId::new(format!("tenant-{i}")),
                &DatasetId::new("events"),
                (**sketch).clone(),
            )
            .unwrap();
    }
    catalog
        .publish(
            &TenantId::new("ttl-probe"),
            &DatasetId::new("events"),
            sketch_of(100),
        )
        .unwrap();
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    let response = client
        .post_json(
            "/v1/query",
            "{\"plan\":\"fetch tenant-*/events | coalesce | quantile 0.5,0.99\"}",
        )
        .unwrap();
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(response.header(SOURCES_HEADER), Some("3"));

    // Offline replay: same sketches, same merge tree, same renderer.
    let fused = merge_tree(&sketches).unwrap();
    let expected = render_plan_response_json(&PlanResponse {
        output: execute_on(
            &fused,
            &QueryRequest::QuantileBatch {
                phis: vec![0.5, 0.99],
            },
        )
        .unwrap(),
        total_elements: fused.total_elements(),
        sources: (0..3)
            .map(|i| PlanSource {
                tenant: TenantId::new(format!("tenant-{i}")),
                dataset: DatasetId::new("events"),
                version: 1,
                freshness: Freshness::Fresh,
            })
            .collect(),
    });
    assert_eq!(
        response.body_str().unwrap(),
        expected,
        "plan answer must equal the offline merge byte-for-byte"
    );
}

#[test]
fn degenerate_single_target_plan_agrees_with_the_get_route() {
    let (_c, server) = serve(ServerConfig::default());
    let mut client = HttpClient::new(server.local_addr().to_string());
    let get = client.get("/v1/acme/events/quantile?phi=0.5").unwrap();
    assert_eq!(get.status, 200);
    let plan = client
        .post_json(
            "/v1/query",
            "{\"plan\":\"fetch acme/events | quantile 0.5\"}",
        )
        .unwrap();
    assert_eq!(plan.status, 200, "{:?}", plan.body_str());
    assert_eq!(plan.header(SOURCES_HEADER), Some("1"));

    // Same executor, same sketch: the estimates agree and the plan's one
    // source is exactly the version/freshness the GET route reported.
    let get_body = Json::parse(get.body_str().unwrap()).unwrap();
    let plan_body = Json::parse(plan.body_str().unwrap()).unwrap();
    assert_eq!(get_body.get("estimate"), plan_body.get("estimate"));
    assert_eq!(
        get_body.get("total_elements"),
        plan_body.get("total_elements")
    );
    let sources = plan_body.get("sources").unwrap().as_array().unwrap();
    assert_eq!(sources.len(), 1);
    assert_eq!(sources[0].get("tenant").unwrap().as_str(), Some("acme"));
    assert_eq!(
        sources[0]
            .get("version")
            .unwrap()
            .as_u64()
            .map(|v| v.to_string()),
        get.header(VERSION_HEADER).map(str::to_string)
    );
    assert_eq!(
        sources[0].get("freshness").unwrap().as_str(),
        get.header(FRESHNESS_HEADER)
    );
}

#[test]
fn query_errors_carry_stable_machine_readable_codes() {
    let (_c, server) = serve(ServerConfig::default());
    let mut client = HttpClient::new(server.local_addr().to_string());
    let code_of = |body: &str| -> String {
        Json::parse(body)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    // Wrong method on the plan route.
    assert_eq!(client.get("/v1/query").unwrap().status, 405);
    // Unparseable plan text: a typed parse error naming the stage.
    let bad = client
        .post_json("/v1/query", "{\"plan\":\"fetch acme/events | juggle\"}")
        .unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(code_of(bad.body_str().unwrap()), "invalid_plan");
    assert!(
        bad.body_str().unwrap().contains("stage"),
        "{:?}",
        bad.body_str()
    );
    // Multi-source selector without a coalesce stage.
    catalog_publish_second_tenant(&_c);
    let torn = client
        .post_json("/v1/query", "{\"plan\":\"fetch */events | quantile 0.5\"}")
        .unwrap();
    assert_eq!(torn.status, 400);
    assert_eq!(code_of(torn.body_str().unwrap()), "needs_coalesce");
    // A glob that matches nothing.
    let missing = client
        .post_json(
            "/v1/query",
            "{\"plan\":\"fetch ghost-*/events | coalesce | quantile 0.5\"}",
        )
        .unwrap();
    assert_eq!(missing.status, 404);
    assert_eq!(code_of(missing.body_str().unwrap()), "not_found");
    // An exact selector for an unpublished entry keeps the legacy message.
    let unknown = client
        .post_json(
            "/v1/query",
            "{\"plan\":\"fetch ghost/events | quantile 0.5\"}",
        )
        .unwrap();
    assert_eq!(unknown.status, 404);
    assert!(
        unknown
            .body_str()
            .unwrap()
            .contains("no sketch published for ghost/events"),
        "{:?}",
        unknown.body_str()
    );
    // Legacy routes share the same typed error envelope.
    let legacy = client.get("/v1/ghost/events/quantile?phi=0.5").unwrap();
    assert_eq!(legacy.status, 404);
    assert_eq!(code_of(legacy.body_str().unwrap()), "not_found");
    let bad_param = client.get("/v1/acme/events/quantile").unwrap();
    assert_eq!(bad_param.status, 400);
    assert_eq!(code_of(bad_param.body_str().unwrap()), "bad_request");
}

fn catalog_publish_second_tenant(catalog: &Arc<SketchCatalog>) {
    catalog
        .publish(
            &TenantId::new("globex"),
            &DatasetId::new("events"),
            sketch_of(5_000),
        )
        .unwrap();
}

#[test]
fn server_config_builder_rejects_unservable_configurations() {
    assert!(ServerConfig::builder().workers(0).build().is_err());
    assert!(ServerConfig::builder()
        .keep_alive_max_requests(0)
        .build()
        .is_err());
    assert!(ServerConfig::builder()
        .read_timeout(Duration::ZERO)
        .build()
        .is_err());
    assert!(ServerConfig::builder()
        .keep_alive_idle(Duration::ZERO)
        .build()
        .is_err());
    // Zero backlog is a *valid* tuning (shed everything not immediately
    // claimed); the builder must not confuse it with a zero cap.
    let config = ServerConfig::builder().accept_backlog(0).build().unwrap();
    assert_eq!(config.accept_backlog, 0);
}

#[test]
fn shutdown_is_clean_and_connections_stop() {
    let (_c, mut server) = serve(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = HttpClient::new(addr.to_string());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    server.shutdown();
    // Idempotent.
    server.shutdown();
    // New connections are refused (or reset before a response).
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    match refused {
        Err(_) => {}
        Ok(stream) => {
            use std::io::Read;
            let mut buf = [0u8; 1];
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let got = (&stream).read(&mut buf);
            assert!(
                matches!(got, Ok(0) | Err(_)),
                "a closed server must not answer"
            );
        }
    }
}

#[test]
fn overload_sheds_with_503_instead_of_queueing_forever() {
    // 1 worker + zero-capacity queue: with the single worker busy on a held
    // connection, a second connection must be bounced with 503.
    let (_c, server) = serve(
        ServerConfig::builder()
            .workers(1)
            .accept_backlog(0)
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    // Hold the worker: open a connection and a request stream but never
    // finish a request; the worker sits in its keep-alive wait.  Until the
    // worker thread first parks on the queue, even this connection can be
    // shed, so retry until one is taken.
    let deadline = Instant::now() + Duration::from_secs(10);
    let _held = loop {
        let mut c = HttpClient::new(addr.to_string());
        if c.get("/healthz").is_ok_and(|r| r.status == 200) {
            break c; // keep-alive connection stays open, worker parked on it
        }
        assert!(
            Instant::now() < deadline,
            "the worker never took a connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    std::thread::sleep(Duration::from_millis(50));
    let mut shed = HttpClient::new(addr.to_string());
    let response = shed.get("/healthz");
    match response {
        Ok(response) => assert_eq!(response.status, 503),
        Err(_) => {
            // Depending on timing the 503 write can race the client's read;
            // rejection may surface as a closed connection instead.
        }
    }
    assert!(server.stats().rejected >= 1, "{:?}", server.stats());
}

/// The body the server must send for `request` on the `acme/events` fixture.
fn in_process_answer(request: &QueryRequest) -> String {
    let direct = sketch_of(10_000);
    render_response_json(&QueryResponse {
        output: execute_on(&direct, request).unwrap(),
        version: 1,
        total_elements: direct.total_elements(),
        freshness: Freshness::Fresh,
    })
}

/// A raw keep-alive socket to `server`.
fn raw_socket(server: &HttpServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Read one `content-length`-framed response: its head and its body.
fn read_raw_response(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("content-length: "))
        .unwrap()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    (head, String::from_utf8(body).unwrap())
}

const BATCH: &str = "{\"phis\":[0.1,0.5,0.9]}";

fn batch_post(extra_headers: &str) -> String {
    format!(
        "POST /v1/acme/events/quantile_batch HTTP/1.1\r\nhost: t\r\n{extra_headers}\
         content-length: {}\r\n\r\n{BATCH}",
        BATCH.len()
    )
}

fn batch_answer() -> String {
    in_process_answer(&QueryRequest::QuantileBatch {
        phis: vec![0.1, 0.5, 0.9],
    })
}

#[test]
fn requests_written_one_byte_at_a_time_are_answered_byte_identically() {
    let (_c, server) = serve(ServerConfig::default());
    let mut stream = raw_socket(&server);
    let get = "GET /v1/acme/events/quantile?phi=0.4237 HTTP/1.1\r\nhost: t\r\n\r\n";
    for (raw, expected) in [
        (
            get.to_string(),
            in_process_answer(&QueryRequest::Quantile { phi: 0.4237 }),
        ),
        (batch_post(""), batch_answer()),
    ] {
        for byte in raw.bytes() {
            stream.write_all(&[byte]).unwrap();
        }
        let (head, body) = read_raw_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("connection: keep-alive\r\n"), "{head}");
        assert_eq!(body, expected);
    }
}

#[test]
fn pipelined_requests_in_one_segment_are_answered_in_order() {
    let (_c, server) = serve(ServerConfig::default());
    let mut stream = raw_socket(&server);
    let requests = format!(
        "GET /v1/acme/events/quantile?phi=0.5 HTTP/1.1\r\nhost: t\r\n\r\n{}\
         GET /v1/acme/events/rank?key=2500 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        batch_post("")
    );
    stream.write_all(requests.as_bytes()).unwrap();
    for expected in [
        in_process_answer(&QueryRequest::Quantile { phi: 0.5 }),
        batch_answer(),
        in_process_answer(&QueryRequest::Rank { key: 2_500 }),
    ] {
        let (head, body) = read_raw_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert_eq!(body, expected);
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server closed after the third answer");
}

#[test]
fn a_header_block_at_the_cap_passes_and_one_byte_over_is_431() {
    // A cap well above the 8 KiB receive buffer.
    let max = 20_000;
    let (_c, server) = serve(
        ServerConfig::builder()
            .limits(ReadLimits {
                max_header_bytes: max,
                ..ReadLimits::default()
            })
            .build()
            .unwrap(),
    );
    let fixed = "GET /v1/acme/events/quantile?phi=0.5 HTTP/1.1\r\nx-pad: \r\n\r\n".len();
    for (len, status) in [(max, "200 OK"), (max + 1, "431 ")] {
        let raw = format!(
            "GET /v1/acme/events/quantile?phi=0.5 HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "p".repeat(len - fixed)
        );
        assert_eq!(raw.len(), len);
        let mut stream = raw_socket(&server);
        stream.write_all(raw.as_bytes()).unwrap();
        let (head, _) = read_raw_response(&mut stream);
        assert!(
            head.starts_with(&format!("HTTP/1.1 {status}")),
            "{len}: {head}"
        );
    }
}

#[test]
fn a_post_whose_body_follows_its_head_in_a_later_segment_parses() {
    let (_c, server) = serve(ServerConfig::default());
    let mut stream = raw_socket(&server);
    let raw = batch_post("");
    let (head, body) = raw.split_at(raw.len() - BATCH.len());
    stream.write_all(head.as_bytes()).unwrap();
    // The pause makes it likely the server reads the head alone; the
    // split is checked deterministically in the parser's unit tests.
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(body.as_bytes()).unwrap();
    let (head, body) = read_raw_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert_eq!(body, batch_answer());
}

#[test]
fn a_stalled_request_gets_408_while_a_slow_one_is_served() {
    // The idle wait reads with a short poll timeout; a request still
    // incomplete after it must be read under `read_timeout` instead.
    let (_c, server) = serve(
        ServerConfig::builder()
            .read_timeout(Duration::from_secs(1))
            .build()
            .unwrap(),
    );
    let raw = batch_post("");
    let (head, body) = raw.split_at(raw.len() - BATCH.len());

    // The body follows well past the idle poll but inside the timeout.
    let mut slow = raw_socket(&server);
    slow.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    slow.write_all(body.as_bytes()).unwrap();
    let (response, answer) = read_raw_response(&mut slow);
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert_eq!(answer, batch_answer());

    // The body never comes.
    let mut stalled = raw_socket(&server);
    stalled.write_all(head.as_bytes()).unwrap();
    let (response, answer) = read_raw_response(&mut stalled);
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    assert!(response.contains("connection: close\r\n"), "{response}");
    assert!(answer.contains("\"code\":\"timeout\""), "{answer}");
}
