//! `perfbench` — the end-to-end and per-layer benchmark of the MSAF
//! compile flow, compile server and fault campaigns.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fir4_styles|adder64_qdi|serve_mix|fault_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up from its seed, runs operations for
//! `--seconds`, checks every output, and prints a report: each metric
//! by name with its unit and sample count, then (with `--trace 1`) the
//! per-layer ledger. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run also writes its spans as Chrome
//! trace-event JSON (Perfetto-loadable, like `msafc --trace`) under
//! `perfbench/out/`.

#![forbid(unsafe_code)]

mod compile;
mod gen;
mod ledger;
mod serve;
mod staged;
mod stats;
mod sweep;

use ledger::OpLedger;
use msaf_trace::{Recorder, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["fir4_styles", "adder64_qdi", "serve_mix", "fault_sweep"];

/// End-to-end metrics, reported on every workload with `--trace 0`.
/// `op_ms` is the median operation latency on the compile workloads and
/// `fault_sweep`, and on `serve_mix` the geometric mean over the warmed
/// keys of each key's median all-hit request latency.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Where a per-layer metric comes from.
pub enum Src {
    /// Median per-operation self time of a span, ms.
    Span(&'static str),
    /// Median per-operation sum of a counter.
    Count(&'static str),
    /// Computed by the workload itself.
    Computed,
}

/// Per-layer metrics, reported on every workload with `--trace 1`
/// (zero where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str, Src)] = &[
    ("cad.pack_ms", "ms", Src::Span("cad.pack")),
    ("cad.les", "count", Src::Count("cad.les")),
    ("cad.plbs", "count", Src::Count("cad.plbs")),
    ("cad.route_ms", "ms", Src::Span("cad.route")),
    (
        "cad.route_iterations",
        "count",
        Src::Count("route.iterations"),
    ),
    (
        "cad.route_nodes_popped",
        "count",
        Src::Count("route.nodes_popped"),
    ),
    ("cad.route_ripups", "count", Src::Count("route.ripups")),
    (
        "cad.route_widenings",
        "count",
        Src::Count("route.widenings"),
    ),
    ("fabric.rrg_ms", "ms", Src::Span("fabric.rrg")),
    ("fabric.rrg_nodes", "count", Src::Count("fabric.rrg_nodes")),
    ("fabric.check_ms", "ms", Src::Span("fabric.check")),
    ("cad.place_ms", "ms", Src::Span("cad.place")),
    ("cad.place_moves", "count", Src::Count("place.moves")),
    ("cad.place_accept_frac", "frac", Src::Computed),
    ("cad.techmap_ms", "ms", Src::Span("cad.techmap")),
    ("cad.timing_graph_ms", "ms", Src::Span("cad.timing_graph")),
    ("cad.bind_ms", "ms", Src::Span("cad.bind")),
    ("cad.bitgen_ms", "ms", Src::Span("cad.bitgen")),
    ("cad.wirelength", "count", Src::Count("cad.wirelength")),
    ("cad.crit_delay", "count", Src::Count("timing.crit_delay")),
    (
        "artifact.decode_ms.pack",
        "ms",
        Src::Span("artifact.decode.pack"),
    ),
    (
        "artifact.decode_ms.place",
        "ms",
        Src::Span("artifact.decode.place"),
    ),
    (
        "artifact.decode_ms.route",
        "ms",
        Src::Span("artifact.decode.route"),
    ),
    (
        "artifact.decode_ms.bitgen",
        "ms",
        Src::Span("artifact.decode.bitgen"),
    ),
    (
        "artifact.encode_ms.pack",
        "ms",
        Src::Span("artifact.encode.pack"),
    ),
    (
        "artifact.encode_ms.place",
        "ms",
        Src::Span("artifact.encode.place"),
    ),
    (
        "artifact.encode_ms.route",
        "ms",
        Src::Span("artifact.encode.route"),
    ),
    (
        "artifact.encode_ms.bitgen",
        "ms",
        Src::Span("artifact.encode.bitgen"),
    ),
    ("artifact.bytes.pack", "bytes", Src::Computed),
    ("artifact.bytes.place", "bytes", Src::Computed),
    ("artifact.bytes.route", "bytes", Src::Computed),
    ("artifact.bytes.bitgen", "bytes", Src::Computed),
    ("serve.ttfb_ms_p50", "ms", Src::Computed),
    ("serve.miss_ms_p50", "ms", Src::Computed),
    ("serve.stage_ms.pack", "ms", Src::Computed),
    ("serve.stage_ms.place", "ms", Src::Computed),
    ("serve.stage_ms.route", "ms", Src::Computed),
    ("serve.stage_ms.bitgen", "ms", Src::Computed),
    ("serve.stream_bytes", "bytes", Src::Computed),
    ("store.hit_frac", "frac", Src::Computed),
    ("store.entries", "count", Src::Computed),
    ("store.bytes", "bytes", Src::Computed),
    ("lang.parse_ms", "ms", Src::Span("lang.parse")),
    ("lang.expand_ms", "ms", Src::Span("lang.expand")),
    ("lang.check_ms", "ms", Src::Span("lang.check")),
    ("lang.elab_ms", "ms", Src::Span("lang.elab")),
    ("lang.gates", "count", Src::Count("lang.gates")),
    ("verify_ms", "ms", Src::Span("cad.verify")),
    ("sim.events", "count", Src::Count("sim.events")),
    ("sim.events_per_s", "1/s", Src::Computed),
    ("faults.count", "count", Src::Count("faults.count")),
    ("faults.per_s", "1/s", Src::Computed),
    ("trace_overhead_frac", "frac", Src::Computed),
];

/// Work counters shown next to each layer in the ledger table.
pub const LAYER_COUNTERS: &[(&str, &[&str])] = &[
    ("lang.elab", &["lang.gates"]),
    ("cad.techmap", &["cad.les"]),
    ("cad.pack", &["cad.plbs"]),
    ("cad.place", &["place.moves", "place.accepted"]),
    ("fabric.rrg", &["fabric.rrg_nodes"]),
    (
        "cad.route",
        &[
            "route.iterations",
            "route.nodes_popped",
            "route.ripups",
            "route.widenings",
        ],
    ),
    ("fabric.check", &["cad.wirelength"]),
    ("sim.token_run", &["sim.events"]),
    ("faults.campaign", &["faults.count"]),
    ("artifact.decode.bitgen", &["artifact.decoded_bytes"]),
];

/// One number of a workload's report, under the workload's own metric
/// name, with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    /// A metric measured over `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (any error, wrong output or failed check).
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// The workload's metrics under their own names.
    pub report: Vec<Metric>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Rendered ledger tables.
    pub ledger: Vec<String>,
    /// Chrome trace-event JSON of the traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// A run whose set-up failed: one attempted, one failed operation.
    #[must_use]
    pub fn failed_setup(error: String) -> Self {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail(format!("set-up: {error}"));
        out
    }

    /// Fills the end-to-end metrics: set-up seconds, the latency of the
    /// operation each workload names, and its throughput.
    pub fn end_to_end(&mut self, setup_s: f64, op_ms: f64, ops_per_s: f64) {
        self.e2e.insert("setup_s", setup_s);
        self.e2e.insert("op_ms", op_ms);
        self.e2e.insert("ops_per_s", ops_per_s);
        self.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Fills every span- and counter-sourced per-layer metric, and the
    /// ratios derived from them, from a set of operation ledgers.
    pub fn layers_from(&mut self, ops: &[&OpLedger]) {
        for (name, _, src) in PER_LAYER {
            match src {
                Src::Span(span) => self.layer(name, ledger::self_ms(ops, span)),
                Src::Count(counter) => self.layer(name, ledger::count(ops, counter)),
                Src::Computed => {}
            }
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        self.layer(
            "cad.place_accept_frac",
            ratio(
                ledger::count(ops, "place.accepted"),
                ledger::count(ops, "place.moves"),
            ),
        );
        self.layer(
            "sim.events_per_s",
            ratio(
                ledger::count(ops, "sim.events"),
                ledger::self_ms(ops, "sim.token_run") / 1e3,
            ),
        );
        self.layer(
            "faults.per_s",
            ratio(
                ledger::count(ops, "faults.count"),
                ledger::self_ms(ops, "faults.campaign") / 1e3,
            ),
        );
    }
}

/// The benchmark's own tracer: recording in the traced run, the no-op
/// tracer otherwise, so end-to-end numbers are measured untraced.
#[must_use]
pub fn tracer(trace: bool) -> (Tracer, Arc<Recorder>) {
    let (recording, recorder) = Tracer::recorder();
    (if trace { recording } else { Tracer::default() }, recorder)
}

/// Runs a cheap set-up over and over for at least a second, and
/// returns the last result, the median seconds and the repeat count: a
/// set-up of a few milliseconds timed once would measure the process's
/// cold start more than the set-up.
pub fn repeat_setup<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
) -> (Result<T, String>, f64, usize) {
    let start = std::time::Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = std::time::Instant::now();
        let result = set_up();
        secs.push(t0.elapsed().as_secs_f64());
        if result.is_err() || (secs.len() >= 3 && start.elapsed().as_secs_f64() >= 1.0) {
            return (result, stats::median(&secs), secs.len());
        }
    }
}

/// Tracing overhead: the traced operations' median against the
/// untraced ones', leaving out the source-level token run only the
/// traced operations make.
#[must_use]
pub fn overhead(traced: &[&OpLedger], untraced: &[&OpLedger]) -> f64 {
    let extra = |o: &OpLedger| o.self_us.get("sim.token_run").copied().unwrap_or(0.0);
    let t = stats::median(
        &traced
            .iter()
            .map(|o| o.total_us - extra(o))
            .collect::<Vec<_>>(),
    );
    let u = stats::median(&untraced.iter().map(|o| o.total_us).collect::<Vec<_>>());
    t / u - 1.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Shortest round-trip text of a finite number; JSON has no NaN.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "fir4_styles" => compile::run(&compile::FIR4_STYLES, args.seed, args.seconds, args.trace),
        "adder64_qdi" => compile::run(&compile::ADDER64_QDI, args.seed, args.seconds, args.trace),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace),
        _ => sweep::run(args.seed, args.seconds, args.trace),
    };

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.report {
        println!(
            "  {:<24} {:>20} {:<6} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "  {:<24} {:>20} {:<6} ({}/{} operations failed)",
        "failed_frac",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
        "frac",
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        eprintln!("perfbench: failed: {e}");
    }
    for table in &out.ledger {
        print!("{table}");
    }
    if let Some(json) = &out.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace: {} (load at ui.perfetto.dev)", path.display()),
            Err(e) => eprintln!("perfbench: cannot write trace {}: {e}", path.display()),
        }
    }

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_trace::json::{parse, JsonValue};

    fn names(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(JsonValue::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(JsonValue::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_report() {
        let spec = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            names(&spec, "per_layer"),
            own(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect())
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
