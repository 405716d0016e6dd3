//! `msafc` — the `.msa` pipeline compiler.
//!
//! ```text
//! msafc <file.msa> [--style qdi|wchb|bundled | --all-styles]
//!                  [--tokens <chan>=<v,v,...>]... [--verify]
//!                  [--faults] [--trace <out.json>] [--json]
//! ```
//!
//! Parses and checks the source (reporting line/column diagnostics on
//! stderr), elaborates it in the requested style(s), compiles each
//! netlist through the full CAD flow (`map → pack → place → route →
//! bitstream`) and prints one `FlowReport` row per style. With
//! `--tokens`, the source circuit is simulated and the output token
//! stream printed; with `--verify`, the *programmed fabric* is simulated
//! too and checked token-for-token against the source circuit. With
//! `--faults`, a deterministic fault-injection campaign (stuck-at,
//! transient SEU, delay faults) runs against the source circuit and a
//! per-style classification table is printed — a QDI style that lets a
//! delay fault corrupt a token is a hard error. With
//! `--trace`, the whole run is flight-recorded (stage spans, PathFinder
//! iteration events, annealing progress, simulator counters) and
//! written as Chrome trace-event JSON — load it at `ui.perfetto.dev`.
//! With `--json`, the per-style table is replaced by one machine-
//! readable `FlowReport` JSON object per line (the same schema the
//! compile server's result envelope embeds).

use msaf_cad::flow::{compile, FlowOptions};
use msaf_cad::route::RouteOptions;
use msaf_cad::verify::verify_tokens;
use msaf_lang::Style;
use msaf_sim::{
    default_stimulus, run_campaign, token_run, CampaignOptions, PerKindDelay, TokenRunOptions,
};
use msaf_trace::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    file: String,
    styles: Vec<Style>,
    tokens: BTreeMap<String, Vec<u64>>,
    verify: bool,
    faults: bool,
    trace: Option<String>,
    json: bool,
}

fn usage() -> String {
    "usage: msafc <file.msa> [--style qdi|wchb|bundled | --all-styles] \
     [--tokens <chan>=<v,v,...>]... [--verify] [--faults] [--trace <out.json>] [--json]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut file = None;
    let mut styles = Vec::new();
    let mut tokens = BTreeMap::new();
    let mut verify = false;
    let mut faults = false;
    let mut trace = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--style" => {
                let v = it.next().ok_or("--style needs a value")?;
                styles.push(
                    Style::from_name(v)
                        .ok_or_else(|| format!("unknown style '{v}' (qdi|wchb|bundled)"))?,
                );
            }
            "--all-styles" => styles.extend(Style::ALL),
            "--tokens" => {
                let v = it.next().ok_or("--tokens needs <chan>=<v,v,...>")?;
                let (chan, csv) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--tokens '{v}': expected <chan>=<v,v,...>"))?;
                let vals = csv
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("--tokens '{v}': '{s}' is not a number"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                tokens.insert(chan.to_string(), vals);
            }
            "--verify" => verify = true,
            "--faults" => faults = true,
            "--json" => json = true,
            "--trace" => {
                let v = it.next().ok_or("--trace needs an output path")?;
                trace = Some(v.clone());
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'\n{}", usage()));
            }
            other => {
                if file.replace(other.to_string()).is_some() {
                    return Err(format!("more than one input file\n{}", usage()));
                }
            }
        }
    }
    let file = file.ok_or_else(usage)?;
    if styles.is_empty() {
        styles.extend(Style::ALL);
    }
    if verify && tokens.is_empty() {
        return Err("--verify needs at least one --tokens <chan>=<v,...>".to_string());
    }
    Ok(Args {
        file,
        styles,
        tokens,
        verify,
        faults,
        trace,
        json,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read '{}': {e}", args.file);
            return ExitCode::FAILURE;
        }
    };

    // Parse, expand and check once — only elaboration depends on the
    // style — so diagnostics are the only thing a failing run prints.
    // Every phase exits non-zero with rendered spans, never a panic.
    let prog = match msaf_lang::parse(&src) {
        Ok(prog) => prog,
        Err(d) => {
            eprintln!("{}: {}", args.file, d.render(&src));
            return ExitCode::FAILURE;
        }
    };
    let ast = match msaf_lang::expand(&prog) {
        Ok(flat) => flat,
        Err(diags) => {
            for d in diags {
                eprintln!("{}: {}", args.file, d.render(&src));
            }
            return ExitCode::FAILURE;
        }
    };
    let analysis = match msaf_lang::analyze(&ast) {
        Ok(a) => a,
        Err(diags) => {
            for d in diags {
                eprintln!("{}: {}", args.file, d.render(&src));
            }
            return ExitCode::FAILURE;
        }
    };

    if !args.json {
        println!(
            "{:<8} {:>6} {:>5} {:>5} {:>9} {:>5} {:>6} {:>11}",
            "style", "gates", "LEs", "PLBs", "filling", "PDEs", "wires", "route_iters"
        );
    }
    // With --trace, every compile and simulation below records into one
    // recorder; the Chrome JSON is written at the end of the run.
    let (tracer, recorder) = match &args.trace {
        Some(_) => {
            let (t, r) = Tracer::recorder();
            (t, Some(r))
        }
        None => (Tracer::default(), None),
    };
    // The CLI is interactive, not a golden: spend every host core
    // (results are byte-identical at any thread count, so this is pure
    // wall-time).
    let flow_opts = FlowOptions {
        route: RouteOptions::auto_threads(),
        tracer: tracer.clone(),
        ..FlowOptions::default()
    };
    for style in &args.styles {
        let _style_span = tracer.span_args("msafc.style", || vec![("style", style.name().into())]);
        let nl = msaf_lang::elaborate(&ast, &analysis, *style);
        let compiled = match compile(&nl, &flow_opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: CAD flow failed for style {style}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let r = &compiled.report;
        if args.json {
            // One NDJSON line per style — the same schema the compile
            // server embeds in its result envelope.
            println!("{}", r.to_json());
        } else {
            println!(
                "{:<8} {:>6} {:>5} {:>5} {:>8.1}% {:>5} {:>6} {:>11}",
                style.name(),
                r.source_gates,
                r.les,
                r.plbs,
                100.0 * r.filling_ratio(),
                r.pdes,
                r.wirelength,
                r.route_iterations,
            );
        }

        if !args.tokens.is_empty() {
            let report = match token_run(
                &nl,
                &PerKindDelay::new(),
                &args.tokens,
                &TokenRunOptions {
                    tracer: tracer.clone(),
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: simulation failed for style {style}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (chan, stream) in &report.outputs {
                println!("  {chan} tokens: {:?}", stream.values());
            }
            if args.verify {
                match verify_tokens(
                    &nl,
                    &compiled.mapped,
                    &compiled.config,
                    &args.tokens,
                    &PerKindDelay::new(),
                    &TokenRunOptions::default(),
                ) {
                    Ok(v) if v.matches => println!("  fabric verification: OK"),
                    Ok(v) => {
                        eprintln!(
                            "error: fabric diverged for style {style}: source {:?} vs \
                             fabric {:?}",
                            v.original, v.fabric
                        );
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("error: verification failed for style {style}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }

        if args.faults {
            let stimulus = if args.tokens.is_empty() {
                default_stimulus(&nl)
            } else {
                args.tokens.clone()
            };
            let opts = CampaignOptions {
                run: TokenRunOptions {
                    tracer: tracer.clone(),
                },
                threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
                ..CampaignOptions::default()
            };
            let report = match run_campaign(&nl, &PerKindDelay::new(), &stimulus, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: fault campaign failed for style {style}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("  fault campaign ({style}):");
            for line in report.render_table().lines() {
                println!("    {line}");
            }
            let delay_corrupted = report.summary("delay").corrupted;
            if style.is_delay_insensitive() {
                if delay_corrupted == 0 {
                    println!("    delay envelope: OK (DI style, no delay fault corrupts a token)");
                } else {
                    eprintln!(
                        "error: DI contract violated for style {style}: {delay_corrupted} \
                         delay fault(s) corrupted tokens"
                    );
                    return ExitCode::FAILURE;
                }
            } else {
                match report.delay_corruption_threshold() {
                    Some(mult) => println!(
                        "    delay envelope: corrupts at x{mult} slowdown \
                         (matched-delay slack exceeded)"
                    ),
                    None => {
                        println!("    delay envelope: no corruption within the swept multipliers")
                    }
                }
            }
        }
    }

    if let (Some(path), Some(rec)) = (&args.trace, &recorder) {
        let json = rec.to_chrome_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write trace '{path}': {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} events -> {path} (load at ui.perfetto.dev)",
            rec.len()
        );
    }
    ExitCode::SUCCESS
}
