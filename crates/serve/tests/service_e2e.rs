//! End-to-end service tests: a real server on a kernel-assigned
//! loopback port, real sockets, the real CAD flow.

use msaf_artifact::digest::{fnv1a, hex};
use msaf_serve::client;
use msaf_serve::Server;
use std::net::SocketAddr;

/// A tiny but non-trivial design (same shape as `examples/msa/`
/// sources) that compiles in well under a second in debug builds.
const SOURCE: &str = "pipeline svc { input a[2]; output y[1];
    stage s { y = parity(a); } }";

fn start_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let response = client::post(addr, "/shutdown", "{}").expect("shutdown responds");
    assert_eq!(response.status, 200);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn health_stats_and_shutdown() {
    let (addr, handle) = start_server();
    let addr = addr.to_string();

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\":true"));

    let stats = client::get(&addr, "/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"compiles\":0"));
    // Store pressure: the occupancy and eviction counters ride along
    // with the traffic counters.
    let budget = format!("\"budget_bytes\":{}", msaf_artifact::MEM_STORE_BUDGET_BYTES);
    for field in [
        "\"hits\":0",
        "\"misses\":0",
        "\"entries\":0",
        "\"bytes\":0",
        "\"evictions\":0",
        &budget,
    ] {
        assert!(stats.body.contains(field), "no {field} in {}", stats.body);
    }

    let missing = client::get(&addr, "/no-such").unwrap();
    assert_eq!(missing.status, 404);

    shutdown(&addr, handle);
}

#[test]
fn compile_twice_misses_then_hits_with_identical_bitstream() {
    let (addr, handle) = start_server();
    let addr = addr.to_string();
    let envelope = client::compile_envelope(SOURCE, "qdi", 1, 0.0);

    let first = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
    assert!(first.ok, "first compile succeeds: {:?}", first.error);
    assert!(!first.all_hits, "cold cache must miss");
    assert_eq!(
        first.cached,
        [
            ("pack".to_string(), "miss".to_string()),
            ("place".to_string(), "miss".to_string()),
            ("route".to_string(), "miss".to_string()),
            ("bitgen".to_string(), "miss".to_string()),
        ]
    );
    // The streamed log carries the flow's stage spans.
    for stage in ["flow.pack", "flow.place", "flow.route", "flow.bitgen"] {
        assert!(
            first.trace_names.iter().any(|n| n == stage),
            "stream missing {stage}: {:?}",
            first.trace_names
        );
    }
    let first_digest = first.bitstream_digest.clone().expect("digest present");
    assert!(first_digest.starts_with("0x"));

    let second = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
    assert!(second.ok);
    assert!(
        second.all_hits,
        "warm cache must hit every stage: {:?}",
        second.cached
    );
    assert_eq!(
        second.bitstream_digest.as_deref(),
        Some(first_digest.as_str())
    );
    // Both are the digest of the bitstream's pretty JSON text, as the
    // same design compiled in-process prints it: the server hashes that
    // text while writing it, cold or warm.
    let netlist = msaf_lang::compile_msa(SOURCE, msaf_lang::Style::Qdi).expect("elaborates");
    let opts = msaf_cad::FlowOptions {
        seed: 1,
        ..msaf_cad::FlowOptions::default()
    };
    let local = msaf_cad::compile(&netlist, &opts).expect("compiles in-process");
    let text = local.config.to_json().expect("serializes");
    assert_eq!(first_digest, hex(fnv1a(text.as_bytes())));
    // The report rides the result line either way.
    let report = second.report.expect("report present");
    assert!(report.get("wirelength").and_then(|v| v.as_num()).unwrap() > 0.0);

    // A different style is a different cache line.
    let other = client::compile_envelope(SOURCE, "bundled", 1, 0.0);
    let third = client::compile_streaming(&addr, &other, |_| {}).unwrap();
    assert!(third.ok);
    assert!(!third.all_hits, "style change must miss");
    assert_ne!(
        third.bitstream_digest.as_deref(),
        Some(first_digest.as_str())
    );

    let stats = client::get(&addr, "/stats").unwrap();
    assert!(stats.body.contains("\"compiles\":3"), "got {}", stats.body);

    shutdown(&addr, handle);
}

#[test]
fn malformed_envelopes_are_rejected_before_dispatch() {
    let (addr, handle) = start_server();
    let addr = addr.to_string();

    for (body, needle) in [
        ("{not json", "not valid JSON"),
        (
            r#"{"kind":"compile","style":"qdi"}"#,
            "'source' is required",
        ),
        (
            r#"{"kind":"compile","source":"x","style":"qdi","bogus":1}"#,
            "unknown field 'bogus'",
        ),
        (
            r#"{"kind":"compile","source":"x","style":"qdi","channel_width":97}"#,
            "'channel_width' must be at most 96",
        ),
    ] {
        let response = client::post(&addr, "/compile", body).unwrap();
        assert_eq!(response.status, 400, "body {body:?}");
        assert!(
            response.body.contains(needle),
            "body {body:?}: response {:?} should name {needle:?}",
            response.body
        );
    }

    // A structurally valid envelope whose source fails the language
    // front end streams a failing result, not an HTTP error.
    let envelope = client::compile_envelope("pipeline broken {", "qdi", 1, 0.0);
    let outcome = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
    assert!(!outcome.ok);
    assert!(outcome.error.unwrap().starts_with("language:"));

    shutdown(&addr, handle);
}

#[test]
fn deeply_nested_body_is_a_named_400_and_the_server_survives() {
    let (addr, handle) = start_server();
    let addr = addr.to_string();

    // Every `[` is one level of the envelope parser's recursion: 100 KB
    // of them would overflow a worker's stack and abort the server.
    let body = "[".repeat(100_000);
    let response = client::post(&addr, "/compile", &body).unwrap();
    assert_eq!(response.status, 400);
    let limit = format!(
        "recursion limit exceeded: more than {} nested",
        msaf_trace::json::MAX_DEPTH
    );
    assert!(response.body.contains(&limit), "got {:?}", response.body);

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let envelope = client::compile_envelope(SOURCE, "qdi", 1, 0.0);
    let outcome = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
    assert!(
        outcome.ok,
        "compile after the rejection: {:?}",
        outcome.error
    );

    shutdown(&addr, handle);
}

#[test]
fn concurrent_compiles_share_the_cache() {
    let (addr, handle) = start_server();
    let addr = addr.to_string();
    let envelope = client::compile_envelope(SOURCE, "wchb", 1, 0.0);

    // Warm the cache once, then race four identical compiles.
    let warm = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
    assert!(warm.ok);
    let digests: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let envelope = envelope.clone();
                s.spawn(move || {
                    let outcome = client::compile_streaming(&addr, &envelope, |_| {}).unwrap();
                    assert!(outcome.ok);
                    assert!(outcome.all_hits, "warm: {:?}", outcome.cached);
                    outcome.bitstream_digest.unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "all digests identical: {digests:?}"
    );

    shutdown(&addr, handle);
}
