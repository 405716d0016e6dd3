//! The compile workloads: one operation takes a `.msa` source to a
//! verified bitstream in each of the workload's styles.
//!
//! * `fir4_styles` — `fir4.msa` in qdi, wchb and bundled: the paper's
//!   multi-style claim as a workload.
//! * `adder64_qdi` — `adder64.msa` in QDI: 1024 nets on a 97×97 grid.
//!
//! The untraced run calls `msaf_cad::compile` and `verify_tokens`. The
//! traced run pairs every operation with the same operation rebuilt
//! from layer calls ([`crate::staged`]) and fails it unless the two
//! bitstream digests agree.

use crate::gen::{self, Stimulus};
use crate::ledger::{self, OpLedger};
use crate::stats::median;
use crate::{staged, Metric, Outcome};
use msaf_cad::verify::verify_tokens;
use msaf_cad::{compile, FlowOptions};
use msaf_lang::Style;
use msaf_netlist::{ChannelDir, Netlist};
use msaf_sim::{token_run, PerKindDelay, TokenRunOptions};
use msaf_trace::Tracer;
use std::time::Instant;

/// One compile workload.
pub struct Design {
    /// Workload name.
    pub name: &'static str,
    /// `.msa` source text.
    pub src: &'static str,
    /// Styles compiled per operation.
    pub styles: &'static [Style],
    /// Seeded stimulus and the Rust reference's expected output tokens.
    pub stimulus: fn(u64) -> (Stimulus, Vec<u64>),
}

/// `fir4_styles`.
pub const FIR4_STYLES: Design = Design {
    name: "fir4_styles",
    src: include_str!("../../examples/msa/fir4.msa"),
    styles: &[Style::Qdi, Style::Wchb, Style::Bundled],
    stimulus: gen::fir4_stimulus,
};

/// `adder64_qdi`.
pub const ADDER64_QDI: Design = Design {
    name: "adder64_qdi",
    src: include_str!("../../examples/msa/adder64.msa"),
    styles: &[Style::Qdi],
    stimulus: gen::adder64_stimulus,
};

/// Quality of one operation, summed over its styles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Quality {
    wirelength: usize,
    crit_delay: u64,
    plbs: usize,
}

/// Everything one operation's inputs need, made once in set-up.
struct Inputs {
    stimulus: Stimulus,
    want: Vec<u64>,
    opts: FlowOptions,
}

fn output_channel(nl: &Netlist) -> Result<String, String> {
    nl.channels()
        .iter()
        .find(|c| c.dir() == ChannelDir::Output)
        .map(|c| c.name().to_string())
        .ok_or_else(|| "design has no output channel".to_string())
}

/// Checks the fabric's tokens: the source-vs-fabric comparison of
/// `verify_tokens`, and the fabric's output against the Rust reference.
fn check_tokens(
    nl: &Netlist,
    mapped: &msaf_cad::MappedDesign,
    config: &msaf_fabric::bitstream::FabricConfig,
    inputs: &Inputs,
    t: &Tracer,
) -> Result<(), String> {
    let verdict = {
        let _s = t.span("cad.verify");
        verify_tokens(
            nl,
            mapped,
            config,
            &inputs.stimulus,
            &PerKindDelay::new(),
            &TokenRunOptions::default(),
        )
        .map_err(|e| format!("verify: {e}"))?
    };
    if !verdict.matches {
        return Err(format!(
            "fabric diverged from source: {:?} vs {:?}",
            verdict.original, verdict.fabric
        ));
    }
    let out = output_channel(nl)?;
    match verdict.fabric.get(&out) {
        Some(got) if *got == inputs.want => Ok(()),
        got => Err(format!(
            "fabric output {got:?} differs from reference {:?}",
            inputs.want
        )),
    }
}

/// One untraced operation: the program's own entry points. Returns the
/// quality and the bitstream digest per style.
fn flow_op(d: &Design, inputs: &Inputs, digests: bool) -> Result<(Quality, Vec<u64>), String> {
    let t = Tracer::default();
    let (ast, analysis) = staged::front_end(d.src, &t)?;
    let mut q = Quality::default();
    let mut out = Vec::new();
    for &style in d.styles {
        let nl = msaf_lang::elaborate(&ast, &analysis, style);
        let c = compile(&nl, &inputs.opts).map_err(|e| format!("{style}: {e}"))?;
        check_tokens(&nl, &c.mapped, &c.config, inputs, &t).map_err(|e| format!("{style}: {e}"))?;
        q.wirelength += c.report.wirelength;
        q.crit_delay += c.report.timing_summary.post_route_critical_delay;
        q.plbs += c.report.plbs;
        if digests {
            out.push(staged::digest(&c.config)?);
        }
    }
    Ok((q, out))
}

/// One traced operation: layer calls in spans, plus a source-level
/// token run for the simulator's event count.
fn staged_op(d: &Design, inputs: &Inputs, t: &Tracer) -> Result<(Quality, Vec<u64>), String> {
    let _op = t.span("op.compile");
    let (ast, analysis) = staged::front_end(d.src, t)?;
    let mut q = Quality::default();
    let mut out = Vec::new();
    for &style in d.styles {
        let nl = staged::elaborate(&ast, &analysis, style, t);
        let s = staged::compile(&nl, &inputs.opts, staged::Start::Cold, t)
            .map_err(|e| format!("{style}: {e}"))?;
        check_tokens(&nl, &s.mapped, &s.config, inputs, t).map_err(|e| format!("{style}: {e}"))?;
        let run = {
            let _s = t.span("sim.token_run");
            token_run(
                &nl,
                &PerKindDelay::new(),
                &inputs.stimulus,
                &TokenRunOptions::default(),
            )
            .map_err(|e| format!("{style}: token run: {e}"))?
        };
        t.counter("sim.events", run.events);
        q.wirelength += s.config.total_wirelength();
        q.plbs += s.plbs;
        out.push(s.digest);
    }
    Ok((q, out))
}

/// Runs the workload: set-up, then operations until `seconds` elapse.
#[must_use]
pub fn run(d: &Design, seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Set-up: seeded inputs, and a source-level check that the Rust
    // reference and the source circuit agree on them.
    let (setup, setup_s, setups) = crate::repeat_setup(|| set_up(d, seed));
    let inputs = match setup {
        Ok(inputs) => inputs,
        Err(e) => return Outcome::failed_setup(e),
    };

    let mut out = Outcome::default();
    let mut op_ms = Vec::new();
    let mut quality = None;
    let (tracer, recorder) = crate::tracer(trace);
    let start = Instant::now();
    // At least two operations, so peak memory does not depend on
    // whether a second one fitted in the run.
    while out.attempted < 2 || start.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let t0 = Instant::now();
        let flow = {
            let _op = tracer.span("op.flow");
            flow_op(d, &inputs, trace)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = if trace {
            // Pair the real flow with its staged rebuild, traced: the
            // gate for the per-layer numbers, and the overhead figure.
            flow.and_then(|(fq, fd)| {
                let (sq, sd) = staged_op(d, &inputs, &tracer)?;
                if fd != sd {
                    return Err(format!(
                        "staged flow diverged from msaf_cad::compile: digests {sd:x?} vs {fd:x?}"
                    ));
                }
                if (sq.wirelength, sq.plbs) != (fq.wirelength, fq.plbs) {
                    return Err(format!("staged quality {sq:?} vs flow {fq:?}"));
                }
                Ok(fq)
            })
        } else {
            flow.map(|(q, _)| q)
        };
        match result {
            // A seeded operation is deterministic: every repeat in a
            // run must reproduce the first one's quality.
            Ok(q) if quality.is_none() || quality == Some(q) => {
                quality = Some(q);
                op_ms.push(ms);
            }
            Ok(q) => out.fail(format!("nondeterministic quality {q:?} vs {quality:?}")),
            Err(e) => out.fail(e),
        }
    }
    let q = quality.unwrap_or_default();
    let n = op_ms.len();
    out.report = vec![
        Metric::new("setup_s", setup_s, "s", setups),
        Metric::new("compile_s_p50", median(&op_ms) / 1e3, "s", n),
        Metric::new("wirelength", q.wirelength as f64, "wires", n),
        Metric::new("crit_delay", q.crit_delay as f64, "units", n),
        Metric::new("plbs", q.plbs as f64, "count", n),
    ];
    out.end_to_end(
        setup_s,
        median(&op_ms),
        n as f64 / start.elapsed().as_secs_f64(),
    );
    if trace {
        let ops = ledger::operations(&recorder.events());
        let staged: Vec<&OpLedger> = ops.iter().filter(|o| o.kind == "op.compile").collect();
        let flow: Vec<&OpLedger> = ops.iter().filter(|o| o.kind == "op.flow").collect();
        out.ledger
            .push(ledger::table(&staged, d.name, crate::LAYER_COUNTERS));
        out.layers_from(&staged);
        out.layer("trace_overhead_frac", crate::overhead(&staged, &flow));
        out.trace_json = Some(recorder.to_chrome_json());
    }
    out
}

fn set_up(d: &Design, seed: u64) -> Result<Inputs, String> {
    let (stimulus, want) = (d.stimulus)(seed);
    let (ast, analysis) = staged::front_end(d.src, &Tracer::default())?;
    for &style in d.styles {
        let nl = msaf_lang::elaborate(&ast, &analysis, style);
        let got = token_run(
            &nl,
            &PerKindDelay::new(),
            &stimulus,
            &TokenRunOptions::default(),
        )
        .map_err(|e| format!("{style}: source token run: {e}"))?;
        let out = output_channel(&nl)?;
        if got.outputs.get(&out).map(msaf_sim::TokenStream::values) != Some(want.clone()) {
            return Err(format!(
                "{style}: source circuit disagrees with the reference"
            ));
        }
    }
    Ok(Inputs {
        stimulus,
        want,
        opts: FlowOptions {
            seed: gen::placement_seed(seed),
            ..FlowOptions::default()
        },
    })
}
