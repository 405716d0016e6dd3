//! `serve_mix`: a closed loop of two clients against an in-process
//! `msaf_serve::Server` with two workers on loopback.
//!
//! Set-up starts the server and compiles every key once, cold. After
//! set-up, four requests in five repeat a warmed key with its set-up
//! seed (every stage should hit) and the fifth carries a fresh seed
//! (pack hits; place, route and bitgen miss and are stored). Every
//! response is checked: the per-stage outcomes must equal the
//! generator's prediction, and a hit's bitstream digest must equal its
//! key's digest from the cold compile.
//!
//! The traced run replays completed requests outside-in: it compiles
//! each key once itself to hold the same artifacts the server stores,
//! then re-runs a hit's restore path or a miss's compute path through
//! [`crate::staged`], timing each layer call, and checks the replay's
//! bitstream digest against the server's.

use crate::gen::{self, Kind, Request};
use crate::ledger::{self, OpLedger};
use crate::stats::{median, quantile};
use crate::{staged, Metric, Outcome};
use msaf_artifact::digest::{fnv1a, hex, Fnv64};
use msaf_artifact::{MemStore, Stage};
use msaf_cad::{compile_cached, FlowOptions};
use msaf_lang::Style;
use msaf_serve::client::{compile_envelope, get, post};
use msaf_serve::Server;
use msaf_trace::json::{parse, JsonValue};
use msaf_trace::Tracer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const ADDER4: &str = include_str!("../../examples/msa/adder4.msa");
const PARITY8: &str = include_str!("../../examples/msa/parity8.msa");
const MUXTREE4: &str = include_str!("../../examples/msa/muxtree4.msa");
const FIFO2: &str = include_str!("../../examples/msa/fifo2.msa");
const WIDE32: &str = include_str!("../../examples/msa/wide32.msa");
const ADDER16: &str = include_str!("../../examples/msa/adder16.msa");
const FIR4: &str = include_str!("../../examples/msa/fir4.msa");

/// The warmed keys. adder16 in bundled style is left out: its flow
/// ends in a named error (`bitgen: required delay 73 exceeds PDE
/// maximum 64`), so it could never be warmed.
const KEYS: [(&str, &str, Style); 18] = [
    ("adder4", ADDER4, Style::Qdi),
    ("adder4", ADDER4, Style::Wchb),
    ("adder4", ADDER4, Style::Bundled),
    ("parity8", PARITY8, Style::Qdi),
    ("parity8", PARITY8, Style::Wchb),
    ("parity8", PARITY8, Style::Bundled),
    ("muxtree4", MUXTREE4, Style::Qdi),
    ("muxtree4", MUXTREE4, Style::Wchb),
    ("muxtree4", MUXTREE4, Style::Bundled),
    ("fifo2", FIFO2, Style::Qdi),
    ("fifo2", FIFO2, Style::Wchb),
    ("fifo2", FIFO2, Style::Bundled),
    ("wide32", WIDE32, Style::Qdi),
    ("wide32", WIDE32, Style::Wchb),
    ("wide32", WIDE32, Style::Bundled),
    ("adder16", ADDER16, Style::Qdi),
    ("adder16", ADDER16, Style::Wchb),
    ("fir4", FIR4, Style::Bundled),
];

/// Closed-loop clients (one per CPU of the reference host), and server
/// workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Times set-up runs (each on a fresh server) for a steady median.
const SETUPS: usize = 2;
/// Misses the traced run replays (it replays every key's first hit).
const REPLAYED_MISSES: usize = 6;
const IO_TIMEOUT: Duration = Duration::from_secs(120);
const STAGES: [&str; 4] = ["pack", "place", "route", "bitgen"];
/// Per-layer metrics of the compute path that only a miss runs.
const MISS_PATH: [&str; 14] = [
    "cad.place_ms",
    "cad.place_moves",
    "cad.place_accept_frac",
    "cad.timing_graph_ms",
    "cad.route_ms",
    "cad.route_iterations",
    "cad.route_nodes_popped",
    "cad.route_ripups",
    "cad.route_widenings",
    "cad.bitgen_ms",
    "cad.crit_delay",
    "artifact.encode_ms.place",
    "artifact.encode_ms.route",
    "artifact.encode_ms.bitgen",
];

/// One parsed response.
#[derive(Debug, Clone, Default)]
struct Reply {
    latency_ms: f64,
    ttfb_ms: f64,
    bytes: usize,
    /// Server-side stage durations from the streamed `flow.*` spans, µs.
    stage_us: [u64; 4],
    cached: Vec<String>,
    digest: String,
}

/// Posts one compile envelope and reads the NDJSON stream to its end.
fn exchange(addr: &str, envelope: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("socket: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let head = format!(
        "POST /compile HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        envelope.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(envelope.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut ttfb = None;
    loop {
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| t0.elapsed());
        raw.extend_from_slice(&chunk[..n]);
    }
    let mut reply = Reply {
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        ttfb_ms: ttfb.unwrap_or_default().as_secs_f64() * 1e3,
        bytes: raw.len(),
        ..Reply::default()
    };
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (status, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "HTTP error: {} {}",
            status.lines().next().unwrap_or(""),
            body.trim()
        ));
    }
    let mut begun = [0u64; 4];
    let mut result = None;
    for line in body.lines() {
        // Only stage spans and the result line matter; skip the rest
        // of the stream unparsed.
        if !line.contains("\"flow.") && !line.contains("\"result\"") {
            continue;
        }
        let v = parse(line).map_err(|e| format!("bad stream line: {e}"))?;
        let name = v.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if let Some(i) = STAGES
            .iter()
            .position(|s| name.strip_prefix("flow.") == Some(s))
        {
            let ts = v.get("ts_us").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
            match v.get("phase").and_then(JsonValue::as_str) {
                Some("B") => begun[i] = ts,
                Some("E") => reply.stage_us[i] += ts.saturating_sub(begun[i]),
                _ => {}
            }
        } else if v.get("type").and_then(JsonValue::as_str) == Some("result") {
            result = Some(v);
        }
    }
    let result = result.ok_or("stream ended without a result line")?;
    if result.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!(
            "compile failed: {}",
            result
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
        ));
    }
    for stage in STAGES {
        let outcome = result
            .get("cached")
            .and_then(|c| c.get(stage))
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        reply.cached.push(outcome.to_string());
    }
    reply.digest = result
        .get("bitstream_digest")
        .and_then(JsonValue::as_str)
        .ok_or("result has no bitstream digest")?
        .to_string();
    Ok(reply)
}

/// The per-stage outcomes the generator predicts for `kind`.
fn predicted(kind: Kind) -> [&'static str; 4] {
    match kind {
        Kind::Hit => ["hit"; 4],
        Kind::Miss => ["hit", "miss", "miss", "miss"],
    }
}

fn envelope(key: usize, seed: u64) -> String {
    let (_, src, style) = KEYS[key];
    compile_envelope(src, style.name(), seed, 0.0)
}

/// A running server on loopback.
struct Running {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> Result<Self, String> {
        let server = Server::bind("127.0.0.1:0", WORKERS).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, thread })
    }

    fn stop(self) -> Result<(), String> {
        post(&self.addr, "/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Starts a server and compiles every key once, cold: every stage
/// must miss. Returns the server and each key's bitstream digest.
fn set_up(seed: u64) -> Result<(Running, Vec<String>), String> {
    let server = Running::start()?;
    let warm = gen::warm_seed(seed);
    let mut digests = Vec::new();
    for (key, (name, _, style)) in KEYS.iter().enumerate() {
        let reply = exchange(&server.addr, &envelope(key, warm))
            .map_err(|e| format!("{name} {style}: {e}"))?;
        if reply.cached != ["miss"; 4] {
            return Err(format!(
                "{name} {style}: cold compile reported {:?}",
                reply.cached
            ));
        }
        digests.push(reply.digest);
    }
    Ok((server, digests))
}

/// One completed request.
struct Sample {
    /// Position in the request sequence.
    pos: usize,
    req: Request,
    reply: Reply,
    /// Seconds from the start of the loop to the end of the reply.
    done_s: f64,
}

/// The same artifacts the server stores for one key, compiled here.
fn warm_artifacts(key: usize, seed: u64) -> Result<(staged::Warm, String), String> {
    let (name, src, style) = KEYS[key];
    let nl = msaf_lang::compile_msa(src, style).map_err(|e| format!("{name}: {e}"))?;
    let store = MemStore::new();
    let mut h = Fnv64::new();
    h.write_str(src);
    h.write_str(style.name());
    let opts = FlowOptions {
        seed,
        ..FlowOptions::default()
    };
    let (compiled, _) =
        compile_cached(&nl, &opts, &store, h.finish()).map_err(|e| format!("{name}: {e}"))?;
    let stored = |stage: Stage| {
        let prefix = format!("v1:{}:", stage.name());
        store
            .keys()
            .into_iter()
            .find(|k| k.starts_with(&prefix))
            .and_then(|k| msaf_artifact::ArtifactStore::get(&store, &k))
            .ok_or_else(|| format!("{name}: no {} artifact stored", stage.name()))
    };
    let warm = staged::Warm {
        pack: stored(Stage::Pack)?,
        place: stored(Stage::Place)?,
        route: stored(Stage::Route)?,
        bitgen: stored(Stage::Bitgen)?,
    };
    let json = compiled.config.to_json().map_err(|e| e.to_string())?;
    Ok((warm, hex(fnv1a(json.as_bytes()))))
}

/// Re-runs one served request through the staged flow.
fn replay(s: &Sample, warm: &staged::Warm, t: &Tracer) -> Result<(), String> {
    let (name, src, style) = KEYS[s.req.key];
    let (ast, analysis) = staged::front_end(src, t)?;
    let nl = staged::elaborate(&ast, &analysis, style, t);
    let opts = FlowOptions {
        seed: s.req.seed,
        ..FlowOptions::default()
    };
    let start = match s.req.kind {
        Kind::Hit => staged::Start::Hit(warm),
        Kind::Miss => staged::Start::Reseed(warm),
    };
    let staged = staged::compile(&nl, &opts, start, t)?;
    if hex(staged.digest) == s.reply.digest {
        Ok(())
    } else {
        Err(format!(
            "{name} {style}: replay digest {} vs served {}",
            hex(staged.digest),
            s.reply.digest
        ))
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// End of the longest prefix of `taken` that holds only complete
/// rounds of hits (all of `taken` if no round completed).
fn measured_prefix(taken: &[Request]) -> usize {
    let rounds = taken
        .iter()
        .filter(|r| r.kind == Kind::Hit)
        .map(|r| r.round)
        .max()
        .map_or(0, |last| last + 1);
    let complete = |round: usize| {
        taken
            .iter()
            .filter(|r| r.kind == Kind::Hit && r.round == round)
            .count()
            == KEYS.len()
    };
    let full = (0..rounds).take_while(|&r| complete(r)).count();
    if full == 0 {
        return taken.len();
    }
    taken
        .iter()
        .rposition(|r| r.kind == Kind::Hit && r.round == full - 1)
        .map_or(taken.len(), |p| p + 1)
}

/// Runs the workload.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (tracer, recorder) = crate::tracer(trace);
    // The traced run holds its own copy of every key's artifacts.
    let mut warm = Vec::new();
    if trace {
        for key in 0..KEYS.len() {
            match warm_artifacts(key, gen::warm_seed(seed)) {
                Ok(w) => warm.push(w),
                Err(e) => return Outcome::failed_setup(e),
            }
        }
    }

    let mut setup_s = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = running.take() {
            if let Err(e) = Running::stop(server) {
                return Outcome::failed_setup(e);
            }
        }
        let t0 = Instant::now();
        match set_up(seed) {
            Ok(s) => running = Some(s),
            Err(e) => return Outcome::failed_setup(e),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (server, digests) = running.expect("set-up ran at least once");
    let mut out = Outcome::default();
    for (key, (_, d)) in warm.iter().enumerate() {
        if *d != digests[key] {
            out.attempted += 1;
            out.fail(format!(
                "{} {}: server digest {} vs library {d}",
                KEYS[key].0, KEYS[key].2, digests[key]
            ));
        }
    }

    let seq = gen::request_sequence(seed, KEYS.len(), 1 << 16);
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while start.elapsed().as_secs_f64() < seconds {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&req) = seq.get(i) else { break };
                    let span = match req.kind {
                        Kind::Hit => "op.hit",
                        Kind::Miss => "op.miss",
                    };
                    let reply = {
                        let _op = tracer.span(span);
                        let _s = tracer.span("serve.request");
                        exchange(&server.addr, &envelope(req.key, req.seed))
                    };
                    let checked = reply.and_then(|reply| {
                        if reply.cached != predicted(req.kind) {
                            return Err(format!(
                                "predicted {:?}, server reported {:?}",
                                predicted(req.kind),
                                reply.cached
                            ));
                        }
                        if req.kind == Kind::Hit && reply.digest != digests[req.key] {
                            return Err(format!(
                                "hit digest {} vs cold digest {}",
                                reply.digest, digests[req.key]
                            ));
                        }
                        Ok(reply)
                    });
                    match checked {
                        Ok(reply) => samples.lock().expect("sample list lock").push(Sample {
                            pos: i,
                            req,
                            reply,
                            done_s: start.elapsed().as_secs_f64(),
                        }),
                        Err(e) => errors.lock().expect("error list lock").push(format!(
                            "request {i} ({} {} {:?}): {e}",
                            KEYS[req.key].0, KEYS[req.key].2, req.kind
                        )),
                    }
                }
            });
        }
    });
    let taken = cursor.load(Ordering::Relaxed).min(seq.len());
    let mut samples = samples.into_inner().expect("sample list lock");
    samples.sort_by_key(|s| s.pos);
    let errors = errors.into_inner().expect("error list lock");
    out.attempted += (samples.len() + errors.len()) as u64;
    for e in errors {
        out.fail(e);
    }

    let stats = get(&server.addr, "/stats")
        .map_err(|e| e.to_string())
        .and_then(|r| parse(&r.body).map_err(|e| e.to_string()));
    if let Err(e) = server.stop() {
        out.fail(e);
    }

    // Latencies and throughput count only the requests up to the end
    // of the last round of hits the run completed, so every run
    // measures the same mix of keys whatever its seed.
    let end = measured_prefix(&seq[..taken]);
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.pos < end).collect();
    let elapsed = measured.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let of = |kind: Kind| -> Vec<&Sample> {
        measured
            .iter()
            .copied()
            .filter(|s| s.req.kind == kind)
            .collect()
    };
    let (hits, misses) = (of(Kind::Hit), of(Kind::Miss));
    let ms = |v: &[&Sample]| v.iter().map(|s| s.reply.latency_ms).collect::<Vec<f64>>();
    let hit_ms = ms(&hits);
    // Each key's median hit latency. The keys' latencies spread over
    // three decades in clusters, so a median over raw requests sits on
    // the gap between two clusters and jumps between them from run to
    // run; the operation latency is instead the geometric mean over
    // keys, which weighs every key equally.
    let key_hit_ms: Vec<f64> = (0..KEYS.len())
        .map(|k| {
            median(
                &hits
                    .iter()
                    .filter(|s| s.req.key == k)
                    .map(|s| s.reply.latency_ms)
                    .collect::<Vec<f64>>(),
            )
        })
        .filter(|v| !v.is_nan())
        .collect();
    let miss_ms = ms(&misses);
    out.report = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("hit_ms_p50", median(&hit_ms), "ms", hit_ms.len()),
        Metric::new(
            "hit_ms_key_geomean",
            geomean(&key_hit_ms),
            "ms",
            hit_ms.len(),
        ),
        Metric::new("hit_ms_p90", quantile(&hit_ms, 0.9), "ms", hit_ms.len()),
        Metric::new("miss_ms_p50", median(&miss_ms), "ms", miss_ms.len()),
        Metric::new(
            "requests_per_s",
            measured.len() as f64 / elapsed,
            "1/s",
            measured.len(),
        ),
    ];
    out.end_to_end(
        median(&setup_s),
        geomean(&key_hit_ms),
        measured.len() as f64 / elapsed,
    );

    if trace {
        let all = &measured;
        let med = |f: &dyn Fn(&Sample) -> f64, v: &[&Sample]| {
            median(&v.iter().map(|s| f(s)).collect::<Vec<f64>>())
        };
        out.layer("serve.ttfb_ms_p50", med(&|s| s.reply.ttfb_ms, all));
        out.layer("serve.stream_bytes", med(&|s| s.reply.bytes as f64, all));
        out.layer("serve.miss_ms_p50", median(&miss_ms));
        let stage_names = [
            "serve.stage_ms.pack",
            "serve.stage_ms.place",
            "serve.stage_ms.route",
            "serve.stage_ms.bitgen",
        ];
        let byte_names = [
            "artifact.bytes.pack",
            "artifact.bytes.place",
            "artifact.bytes.route",
            "artifact.bytes.bitgen",
        ];
        for i in 0..4 {
            out.layer(
                stage_names[i],
                med(&|s| s.reply.stage_us[i] as f64 / 1e3, &hits),
            );
            out.layer(
                byte_names[i],
                med(
                    &|s| {
                        let w = &warm[s.req.key].0;
                        [&w.pack, &w.place, &w.route, &w.bitgen][i].len() as f64
                    },
                    &hits,
                ),
            );
        }
        match &stats {
            Ok(v) => {
                let store = |f: &str| {
                    v.get("store")
                        .and_then(|s| s.get(f))
                        .and_then(JsonValue::as_num)
                        .unwrap_or(0.0)
                };
                let lookups = store("hits") + store("misses");
                out.layer(
                    "store.hit_frac",
                    if lookups > 0.0 {
                        store("hits") / lookups
                    } else {
                        0.0
                    },
                );
                out.layer("store.entries", store("entries"));
                out.layer("store.bytes", store("bytes"));
            }
            Err(e) => out.fail(format!("/stats: {e}")),
        }

        // Replay the first round of hits and the first few misses, each
        // untraced and then traced, outside the measured loop.
        let untraced = Tracer::default();
        let first_hits = hits.iter().filter(|s| s.req.round == 0);
        let first_misses = misses.iter().take(REPLAYED_MISSES);
        for s in first_hits.chain(first_misses) {
            let w = &warm[s.req.key].0;
            let (flow_span, traced_span) = match s.req.kind {
                Kind::Hit => ("op.flow_hit", "op.replay_hit"),
                Kind::Miss => ("op.flow_miss", "op.replay_miss"),
            };
            let result = {
                let _op = tracer.span(flow_span);
                replay(s, w, &untraced)
            }
            .and_then(|()| {
                let _op = tracer.span(traced_span);
                replay(s, w, &tracer)
            });
            if let Err(e) = result {
                out.attempted += 1;
                out.fail(format!("replay: {e}"));
            }
        }
        let ops = ledger::operations(&recorder.events());
        let kind = |k: &str| -> Vec<&OpLedger> { ops.iter().filter(|o| o.kind == k).collect() };
        let (replay_hits, replay_misses) = (kind("op.replay_hit"), kind("op.replay_miss"));
        out.ledger.push(ledger::table(
            &kind("op.hit"),
            "serve_mix hit requests (served)",
            crate::LAYER_COUNTERS,
        ));
        out.ledger.push(ledger::table(
            &replay_hits,
            "serve_mix hit requests (replayed)",
            crate::LAYER_COUNTERS,
        ));
        out.ledger.push(ledger::table(
            &replay_misses,
            "serve_mix miss requests (replayed)",
            crate::LAYER_COUNTERS,
        ));
        // Compute-path layers, which only a miss runs, come from miss
        // replays; every other layer from hit replays.
        let served = out.layers.clone();
        out.layers_from(&replay_misses);
        let from_misses = std::mem::take(&mut out.layers);
        out.layers_from(&replay_hits);
        for name in MISS_PATH {
            out.layer(name, from_misses.get(name).copied().unwrap_or(0.0));
        }
        out.layers.extend(served);
        out.layer(
            "trace_overhead_frac",
            crate::overhead(&replay_hits, &kind("op.flow_hit")),
        );
        out.trace_json = Some(recorder.to_chrome_json());
    }
    out
}
