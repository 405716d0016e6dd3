//! `fault_sweep`: one operation runs a fault campaign over `adder64.msa`
//! in each of the three styles (768 to 4008 gates), each with about
//! 1024 faults on two worker threads. No CAD runs; the simulator and
//! the campaign workers do the work.
//!
//! Checks: every repeat of a style's campaign in a run has the same
//! digest, and the delay-insensitive styles (qdi, wchb) show zero
//! token corruptions under delay faults.

use crate::gen;
use crate::ledger::{self, OpLedger};
use crate::stats::median;
use crate::{staged, Metric, Outcome};
use msaf_lang::Style;
use msaf_netlist::Netlist;
use msaf_sim::{run_campaign, token_run, CampaignOptions, PerKindDelay};
use msaf_trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

const ADDER64: &str = include_str!("../../examples/msa/adder64.msa");

/// 192 stuck-at sites (384 faults) + 64 SEU sites × 4 upset times + 96
/// slowed gates × 4 multipliers = 1024 faults per campaign.
fn campaign_options() -> CampaignOptions {
    CampaignOptions {
        max_stuck_sites: 192,
        max_seu_sites: 64,
        seu_samples: 4,
        max_delay_sites: 96,
        delay_mults: vec![2, 4, 8, 16],
        threads: 2,
        ..CampaignOptions::default()
    }
}

struct Design {
    style: Style,
    netlist: Netlist,
    stimulus: gen::Stimulus,
}

/// Elaborates every style and checks that its seeded stimulus runs
/// clean (no fault) to completion.
fn set_up(seed: u64, opts: &CampaignOptions) -> Result<Vec<Design>, String> {
    let (ast, analysis) = staged::front_end(ADDER64, &Tracer::default())?;
    Style::ALL
        .iter()
        .map(|&style| {
            let netlist = msaf_lang::elaborate(&ast, &analysis, style);
            let stimulus = gen::campaign_stimulus(seed, &netlist);
            token_run(&netlist, &PerKindDelay::new(), &stimulus, &opts.run)
                .map_err(|e| format!("{style}: clean run: {e}"))?;
            Ok(Design {
                style,
                netlist,
                stimulus,
            })
        })
        .collect()
}

/// One campaign: its digest, fault count and DI verdict.
fn campaign(d: &Design, opts: &CampaignOptions, t: &Tracer) -> Result<(u64, usize), String> {
    let report = {
        let _s = t.span("faults.campaign");
        run_campaign(&d.netlist, &PerKindDelay::new(), &d.stimulus, opts)
            .map_err(|e| format!("{}: campaign reference run: {e}", d.style))?
    };
    t.counter("faults.count", report.results.len() as u64);
    let corrupted = report.summary("delay").corrupted;
    if d.style.is_delay_insensitive() && corrupted != 0 {
        return Err(format!(
            "{}: DI contract violated: {corrupted} delay faults corrupted tokens",
            d.style
        ));
    }
    Ok((report.digest(), report.results.len()))
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let opts = campaign_options();
    let (setup, setup_s, setups) = crate::repeat_setup(|| set_up(seed, &opts));
    let designs = match setup {
        Ok(d) => d,
        Err(e) => return Outcome::failed_setup(e),
    };

    let mut out = Outcome::default();
    let mut op_ms = Vec::new();
    let mut per_style: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut faults = 0usize;
    let (tracer, recorder) = crate::tracer(trace);
    let untraced = Tracer::default();
    let start = Instant::now();
    while out.attempted < if trace { 2 } else { 1 } || start.elapsed().as_secs_f64() < seconds {
        // In the traced run, operations alternate between untraced
        // (`op.flow`) and traced (`op.sweep`) for the overhead figure.
        let traced = trace && out.attempted % 2 == 1;
        out.attempted += 1;
        let t = if traced { &tracer } else { &untraced };
        let op_span = if traced { "op.sweep" } else { "op.flow" };
        let _op = tracer.span(op_span);
        let t0 = Instant::now();
        let mut result = Ok(());
        for d in &designs {
            if traced {
                let _s = t.span("sim.token_run");
                match token_run(&d.netlist, &PerKindDelay::new(), &d.stimulus, &opts.run) {
                    Ok(r) => t.counter("sim.events", r.events),
                    Err(e) => result = Err(format!("{}: token run: {e}", d.style)),
                }
            }
            let c0 = Instant::now();
            match campaign(d, &opts, t) {
                Ok((digest, n)) => {
                    per_style
                        .entry(d.style.name())
                        .or_default()
                        .push(c0.elapsed().as_secs_f64());
                    faults = faults.max(n);
                    let first = *digests.entry(d.style.name()).or_insert(digest);
                    if first != digest {
                        result = Err(format!(
                            "{}: campaign digest {digest:#x} differs from {first:#x}",
                            d.style
                        ));
                    }
                }
                Err(e) => result = Err(e),
            }
        }
        match result {
            Ok(()) => op_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => out.fail(e),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    out.report
        .push(Metric::new("setup_s", setup_s, "s", setups));
    out.report.push(Metric::new(
        "sweep_s_p50",
        median(&op_ms) / 1e3,
        "s",
        op_ms.len(),
    ));
    for (style, secs) in &per_style {
        let name = match *style {
            "qdi" => "campaign_s_p50.qdi",
            "wchb" => "campaign_s_p50.wchb",
            _ => "campaign_s_p50.bundled",
        };
        out.report
            .push(Metric::new(name, median(secs), "s", secs.len()));
    }
    out.report.push(Metric::new(
        "faults_per_campaign",
        faults as f64,
        "count",
        op_ms.len(),
    ));
    for (style, digest) in &digests {
        out.ledger
            .push(format!("campaign digest {style}: {digest:#018x}\n"));
    }
    out.end_to_end(setup_s, median(&op_ms), op_ms.len() as f64 / elapsed);
    if trace {
        let ops = ledger::operations(&recorder.events());
        let traced: Vec<&OpLedger> = ops.iter().filter(|o| o.kind == "op.sweep").collect();
        let flow: Vec<&OpLedger> = ops.iter().filter(|o| o.kind == "op.flow").collect();
        out.ledger
            .push(ledger::table(&traced, "fault_sweep", crate::LAYER_COUNTERS));
        out.layers_from(&traced);
        out.layer("trace_overhead_frac", crate::overhead(&traced, &flow));
        out.trace_json = Some(recorder.to_chrome_json());
    }
    out
}
