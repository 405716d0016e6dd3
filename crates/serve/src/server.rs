//! The compile server: accept loop, worker pool, request dispatch.

use crate::envelope::{parse_compile, CompileRequest};
use crate::http::{read_request, write_error, write_response, write_stream_head, Request};
use crate::sink::NdjsonSink;
use msaf_artifact::digest::{fnv1a, hex, Fnv64};
use msaf_artifact::MemStore;
use msaf_cad::{compile_cached, FlowOptions};
use msaf_lang::compile_msa;
use msaf_trace::json::JsonWriter;
use msaf_trace::Tracer;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Per-connection socket timeouts: a stalled client must not pin a
/// worker forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared server state: the artifact store every worker compiles
/// through (that sharing *is* the cache), plus counters and the
/// shutdown latch.
struct ServerState {
    store: MemStore,
    compiles: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// The compile server. [`Server::bind`] to a loopback address, then
/// [`Server::run`] the accept loop until a `POST /shutdown` arrives.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener. `addr` is typically `127.0.0.1:0` in tests
    /// (kernel-assigned port, read back via [`Server::local_addr`]) and
    /// an explicit port in deployment. `workers` is clamped to ≥ 1.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            workers: workers.max(1),
            state: Arc::new(ServerState {
                store: MemStore::new(),
                compiles: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (resolves `:0`).
    ///
    /// # Panics
    ///
    /// Never — the address was already resolved in [`Server::bind`].
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Runs the accept loop, dispatching connections to the worker
    /// pool, until a `POST /shutdown` request flips the latch. Returns
    /// after every worker has drained.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors (per-connection errors are
    /// handled inside the workers and never abort the server).
    pub fn run(self) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            handles.push(std::thread::spawn(move || loop {
                let next = rx.lock().expect("worker queue lock").recv();
                match next {
                    Ok(stream) => handle_connection(stream, &state),
                    Err(_) => break, // sender dropped: shutdown
                }
            }));
        }

        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A send can only fail if every worker died, which
                    // the panic below makes loud.
                    tx.send(stream).expect("worker pool alive");
                }
                Err(e) => {
                    if e.kind() == std::io::ErrorKind::WouldBlock {
                        continue;
                    }
                    return Err(e);
                }
            }
        }
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(err) => {
            write_error(&mut stream, &err);
            return;
        }
    };
    route(stream, &request, state);
}

fn route(mut stream: TcpStream, request: &Request, state: &Arc<ServerState>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = write_response(&mut stream, 200, "OK", "application/json", "{\"ok\":true}");
        }
        ("GET", "/stats") => {
            let _ = write_response(
                &mut stream,
                200,
                "OK",
                "application/json",
                &stats_body(state),
            );
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            let _ = write_response(
                &mut stream,
                200,
                "OK",
                "application/json",
                "{\"ok\":true,\"shutting_down\":true}",
            );
            // Unblock the accept loop so it observes the latch.
            let _ = TcpStream::connect(state.addr);
        }
        ("POST", "/compile") => handle_compile(stream, &request.body, state),
        _ => {
            let _ = write_response(
                &mut stream,
                404,
                "Not Found",
                "application/json",
                "{\"error\":\"no such endpoint\"}",
            );
        }
    }
}

fn stats_body(state: &ServerState) -> String {
    let stats = state.store.stats();
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_u64("compiles", state.compiles.load(Ordering::Relaxed));
    w.begin_object("store");
    w.field_u64("hits", stats.hits);
    w.field_u64("misses", stats.misses);
    w.field_u64("entries", stats.entries);
    w.field_u64("bytes", stats.bytes);
    w.field_u64("evictions", stats.evictions);
    w.field_u64("budget_bytes", stats.budget_bytes);
    w.end();
    w.finish()
}

/// The digest of everything upstream of the CAD flow: source text and
/// style. This seeds the per-stage cache-key chain, so two requests
/// share artifacts exactly when their elaborated netlists must match.
fn source_digest(request: &CompileRequest) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write_str(&request.source);
    hasher.write_str(request.style.name());
    hasher.finish()
}

fn handle_compile(mut stream: TcpStream, body: &[u8], state: &Arc<ServerState>) {
    let Ok(body) = std::str::from_utf8(body) else {
        let _ = write_response(
            &mut stream,
            400,
            "Bad Request",
            "application/json",
            "{\"error\":\"body is not UTF-8\"}",
        );
        return;
    };
    let request = match parse_compile(body) {
        Ok(request) => request,
        Err(reason) => {
            let mut w = JsonWriter::object();
            w.field_str("error", &reason);
            let _ = write_response(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                &w.finish(),
            );
            return;
        }
    };

    // From here the response is a stream: headers now, trace lines as
    // the flow runs, one final `result` line, then close.
    if write_stream_head(&mut stream).is_err() {
        return;
    }
    let shared = Arc::new(Mutex::new(stream));
    let tracer = Tracer::with_sink(Arc::new(NdjsonSink::new(Arc::clone(&shared))));
    let result_line = run_compile(&request, tracer, state);
    state.compiles.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut stream) = shared.lock() {
        let _ = stream.write_all(result_line.as_bytes());
        let _ = stream.write_all(b"\n");
    };
}

fn run_compile(request: &CompileRequest, tracer: Tracer, state: &ServerState) -> String {
    let netlist = match compile_msa(&request.source, request.style) {
        Ok(netlist) => netlist,
        Err(err) => {
            let mut w = JsonWriter::object();
            w.field_str("type", "result");
            w.field_bool("ok", false);
            w.field_str("error", &format!("language: {err}"));
            return w.finish();
        }
    };
    let mut opts = FlowOptions {
        seed: request.seed,
        channel_width: request.channel_width,
        tracer,
        ..FlowOptions::default()
    };
    opts.route.timing_fac = request.timing_fac;

    match compile_cached(&netlist, &opts, &state.store, source_digest(request)) {
        Ok((compiled, outcomes)) => {
            let mut w = JsonWriter::object();
            w.field_str("type", "result");
            w.field_bool("ok", true);
            w.field_str("design", &compiled.report.design);
            w.field_str("style", request.style.name());
            w.begin_object("cached");
            for (stage, outcome) in outcomes.stages() {
                w.field_str(stage, outcome.name());
            }
            w.end();
            w.field_bool("all_hits", outcomes.all_hits());
            // The content digest of the final bitstream JSON — the
            // "byte-identical across compiles" fact CI pins.
            let config_json = compiled
                .config
                .to_json()
                .expect("bitstream serialization is infallible");
            w.field_str("bitstream_digest", &hex(fnv1a(config_json.as_bytes())));
            w.field_raw("report", &compiled.report.to_json());
            w.finish()
        }
        Err(err) => {
            let mut w = JsonWriter::object();
            w.field_str("type", "result");
            w.field_bool("ok", false);
            w.field_str("error", &format!("flow: {err}"));
            w.finish()
        }
    }
}
