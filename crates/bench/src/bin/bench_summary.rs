//! Machine-readable perf snapshot: times the simulator token-throughput
//! workloads and the CAD placement/routing workloads with
//! [`std::time::Instant`] and writes `BENCH_sim.json` / `BENCH_cad.json` /
//! `BENCH_faults.json` so the perf trajectory of every PR is diffable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p msaf-bench --bin bench_summary [outdir] [--check] [--filter <substr>]
//! ```
//!
//! With `--check`, nothing is written: every workload runs once and its
//! **structural** fields (event counts, glitches, net counts, router
//! iterations, rip-ups, nodes popped, wirelength, placement cost and
//! move counts — everything except the timings) are diffed against the
//! committed `BENCH_*.json` in `outdir`. Both sides go through one JSON
//! parser, so the committed files may use any layout. A mismatch means
//! circuit or tool behaviour drifted without the snapshot being
//! regenerated — the process exits non-zero so CI fails.
//!
//! With `--filter <substr>`, only workloads whose row name contains the
//! substring run — the fast-subset knob for CI (the timed smoke run
//! skips the fabric-scale rows) and for local iteration. A filtered run
//! never writes snapshot files: a partial `BENCH_*.json` would read as
//! "rows vanished" to the next `--check`.
//!
//! The routing rows report `best_ms` (serial) and `best_ms_t4`
//! (deterministic chunked + colored routing at 4 worker threads —
//! byte-identical results, wall time only), plus the colored-negotiation
//! observables `colors`, `max_class` and `conflict_serial_frac`; the
//! placement rows report incremental vs full-recompute annealing
//! (`moves_per_sec` / `moves_per_sec_full`) over the identical move
//! sequence. Both files record the capturing host's `host_threads`
//! (`std::thread::available_parallelism`): on a 1-CPU host `best_ms_t4`
//! measures determinism overhead, not speedup, so `--check` only holds
//! the t4-beats-serial expectation against snapshots whose committed
//! `host_threads` is ≥ 2.
//!
//! The `timing` section routes each design-backed workload twice —
//! untimed, and timing-driven at `timing_fac = 0.9` — and records the
//! pre-route, untimed-routed and timing-routed critical delays, the
//! worst connection slack and the per-net criticality histogram. These
//! rows are **never wall-clock timed** (their fields are all
//! structural), so they behave identically in timed and `--check` runs;
//! `--filter` selects them by row name (`timed_route_…`) like any other
//! row. Every timing row also re-asserts the timing-driven contract:
//! `timing_fac = 0` reproduces the untimed router's counters exactly,
//! the timed critical delay never exceeds the untimed one, and the
//! wirelength premium stays within 5%.
//!
//! `BENCH_faults.json` is the robustness census: a deterministic
//! fault-injection campaign over `adder4.msa` in every style
//! (stuck-at, transient SEU, delay faults — see `msaf_sim::faults`).
//! Its rows are all-structural (campaigns are byte-identical at any
//! thread count) and carry the style contract as checked invariants:
//! delay-insensitive styles report `delay_corrupted = 0`, bundled data
//! reports a finite `delay_threshold`, and the 1-thread and 4-thread
//! campaign digests must agree on every run.

use msaf_cad::place::{place_with, CostMode, PlaceOptions};
use msaf_cad::route::{route, route_timed, RouteOptions, RoutingResult};
use msaf_cad::timing::RouteTimingCtx;
use msaf_cells::bundled::bundled_fifo;
use msaf_cells::wchb::wchb_fifo;
use msaf_netlist::Netlist;
use msaf_sim::{
    default_stimulus, run_campaign, token_run, CampaignOptions, PerKindDelay, TokenRunOptions,
    FAULT_KINDS,
};
use msaf_trace::json::{parse, JsonValue};
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

fn inputs(channel: &str, tokens: u64, mask: u64) -> BTreeMap<String, Vec<u64>> {
    let mut m = BTreeMap::new();
    m.insert(
        channel.to_string(),
        (0..tokens).map(|i| (i * 7 + 3) & mask).collect(),
    );
    m
}

/// Runs `f` repeatedly until ≥ `min_reps` reps and ≥ `min_ms` total wall
/// time, returning (reps, total_ms, best_ms).
fn time_it(min_reps: u32, min_ms: f64, mut f: impl FnMut()) -> (u32, f64, f64) {
    // One untimed warmup.
    f();
    let mut reps = 0u32;
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    while reps < min_reps || total < min_ms {
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        total += ms;
        best = best.min(ms);
        reps += 1;
    }
    (reps, total, best)
}

/// `v` rounded to `decimals` places — the precision a snapshot records.
fn round_to(v: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (v * scale).round() / scale
}

#[derive(Serialize)]
struct SimRow {
    name: &'static str,
    events_per_run: u64,
    glitches: u64,
    best_ms: f64,
    mean_ms: f64,
    events_per_sec: f64,
}

fn sim_workload(name: &'static str, nl: &Netlist, channel: &str, timed: bool) -> SimRow {
    let ins = inputs(channel, 32, 0xF);
    let opts = TokenRunOptions::default();
    let report = token_run(nl, &PerKindDelay::new(), &ins, &opts).expect("workload runs");
    let (best, mean) = if timed {
        let (reps, total, best) = time_it(10, 300.0, || {
            let r = token_run(nl, &PerKindDelay::new(), &ins, &opts).expect("workload runs");
            assert_eq!(r.events, report.events, "nondeterministic event count");
        });
        (best, total / f64::from(reps))
    } else {
        (f64::NAN, f64::NAN)
    };
    SimRow {
        name,
        events_per_run: report.events,
        glitches: report.glitches as u64,
        best_ms: round_to(best, 3),
        mean_ms: round_to(mean, 3),
        events_per_sec: (report.events as f64 / (best / 1e3)).round(),
    }
}

#[derive(Serialize)]
struct CadRow {
    name: String,
    nets: usize,
    iterations: usize,
    ripups: u64,
    nodes_popped: u64,
    nodes_popped_dijkstra: u64,
    wirelength: usize,
    /// Conflict-graph color classes across all congested iterations.
    colors: u64,
    /// Largest single color class — peak exposed negotiation parallelism.
    max_class: u64,
    /// `colors / ripups` (0 when nothing rerouted), to three decimals:
    /// 1.0 = fully serial negotiation, near 0 = almost entirely
    /// parallelizable.
    conflict_serial_frac: f64,
    best_ms: f64,
    mean_ms: f64,
    /// Chunked + colored routing at 4 worker threads (byte-identical
    /// result).
    best_ms_t4: f64,
}

#[derive(Serialize)]
struct PlaceRow {
    name: String,
    plbs: usize,
    /// `<width>x<height>`.
    grid: String,
    moves: u64,
    accepted: u64,
    cost: u64,
    best_ms: f64,
    best_ms_full: f64,
    moves_per_sec: f64,
    moves_per_sec_full: f64,
    /// `best_ms_full / best_ms`, to two decimals.
    speedup: f64,
}

/// One timing-driven routing row: the same workload routed untimed and
/// at [`TIMING_FAC`], with the slack analysis' headline numbers.
#[derive(Serialize)]
struct TimingRow {
    name: String,
    nets: usize,
    iterations: usize,
    iterations_untimed: usize,
    crit_delay_pre: u64,
    crit_delay_post: u64,
    crit_delay_untimed: u64,
    worst_slack: u64,
    wirelength: usize,
    wirelength_untimed: usize,
    /// Per-net criticality histogram, ten `|`-separated buckets.
    crit_hist: String,
}

/// The blend strength of the committed timing rows (capped per-search at
/// `route::MAX_CRIT` regardless).
const TIMING_FAC: f64 = 0.9;

fn timing_workload(
    w: &msaf_bench::workloads::CadWorkload,
    r: &msaf_bench::workloads::RoutingWorkload,
    violations: &mut Vec<String>,
) -> TimingRow {
    let wl = |res: &RoutingResult| -> usize {
        res.trees
            .iter()
            .map(msaf_fabric::bitstream::RouteTree::wirelength)
            .sum()
    };
    // Untimed reference, routed through a measuring context — and
    // re-checked against the plain router: `timing_fac = 0` must leave
    // every effort counter untouched (the bit-level pin lives in
    // tests/route_goldens.rs; this cheap check runs on every bench run).
    let mut ctx0 = RouteTimingCtx::new(&w.mapped, &r.requests, &r.signals);
    let untimed =
        route_timed(&r.rrg, &r.requests, &RouteOptions::default(), &mut ctx0).expect("routes");
    let plain = route(&r.rrg, &r.requests, &RouteOptions::default()).expect("routes");
    if plain.stats != untimed.stats || plain.iterations != untimed.iterations {
        violations.push(format!(
            "{}: timing_fac=0 drifted from the untimed router \
             ({:?}/{} vs {:?}/{})",
            r.name, untimed.stats, untimed.iterations, plain.stats, plain.iterations
        ));
    }

    let mut ctx = RouteTimingCtx::new(&w.mapped, &r.requests, &r.signals);
    let timed = route_timed(
        &r.rrg,
        &r.requests,
        &RouteOptions {
            timing_fac: TIMING_FAC,
            ..RouteOptions::default()
        },
        &mut ctx,
    )
    .expect("routes");
    let s = ctx.summary();
    let s0 = ctx0.summary();
    let (wl_timed, wl_untimed) = (wl(&timed), wl(&untimed));
    // The timing-driven contract on every committed workload: never a
    // worse critical delay, at most a 5% wirelength premium. Violations
    // are *reported*, never panicked: `--check` must list them next to
    // the row mismatches, and the CI drift-artifact step must still be
    // able to regenerate a snapshot for review when exactly these
    // contracts are what drifted.
    if s.post_route_critical_delay > s0.post_route_critical_delay {
        violations.push(format!(
            "{}: timing-driven routing worsened the critical delay ({} > {})",
            r.name, s.post_route_critical_delay, s0.post_route_critical_delay
        ));
    }
    if wl_timed as f64 > wl_untimed as f64 * 1.05 {
        violations.push(format!(
            "{}: timing-driven wirelength premium above 5% ({wl_timed} vs {wl_untimed})",
            r.name
        ));
    }
    TimingRow {
        name: format!("timed_{}", r.name),
        nets: r.requests.len(),
        iterations: timed.iterations,
        iterations_untimed: untimed.iterations,
        crit_delay_pre: s.pre_route_critical_delay,
        crit_delay_post: s.post_route_critical_delay,
        crit_delay_untimed: s0.post_route_critical_delay,
        worst_slack: s.worst_slack,
        wirelength: wl_timed,
        wirelength_untimed: wl_untimed,
        crit_hist: s
            .crit_histogram
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("|"),
    }
}

fn cad_workload(
    name: &str,
    rrg: &msaf_fabric::rrg::Rrg,
    requests: &[msaf_cad::route::RouteRequest],
    timed: bool,
) -> CadRow {
    let first = route(rrg, requests, &RouteOptions::default()).expect("routes");
    let dijkstra = route(
        rrg,
        requests,
        &RouteOptions {
            astar_fac: 0.0,
            ..RouteOptions::default()
        },
    )
    .expect("routes");
    let par_opts = RouteOptions {
        threads: 4,
        ..RouteOptions::default()
    };
    // Parallel routing must be byte-identical to serial: same effort
    // counters, same iteration count, same total wirelength (the golden
    // tests additionally pin the tree digests).
    let par = route(rrg, requests, &par_opts).expect("routes");
    assert_eq!(
        par.iterations, first.iterations,
        "parallel iterations drifted"
    );
    assert_eq!(par.stats, first.stats, "parallel stats drifted from serial");
    let (best, mean, best_t4) = if timed {
        let (reps, total, best) = time_it(10, 300.0, || {
            let r = route(rrg, requests, &RouteOptions::default()).expect("routes");
            assert_eq!(
                r.iterations, first.iterations,
                "nondeterministic iterations"
            );
        });
        let (_, _, best_t4) = time_it(10, 300.0, || {
            let r = route(rrg, requests, &par_opts).expect("routes");
            assert_eq!(r.iterations, first.iterations, "nondeterministic parallel");
        });
        (best, total / f64::from(reps), best_t4)
    } else {
        (f64::NAN, f64::NAN, f64::NAN)
    };
    let wirelength: usize = first
        .trees
        .iter()
        .map(msaf_fabric::bitstream::RouteTree::wirelength)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let conflict_serial_frac = if first.stats.ripups == 0 {
        0.0
    } else {
        first.stats.conflict_colors as f64 / first.stats.ripups as f64
    };
    CadRow {
        name: name.to_string(),
        nets: requests.len(),
        iterations: first.iterations,
        ripups: first.stats.ripups,
        nodes_popped: first.stats.nodes_popped,
        nodes_popped_dijkstra: dijkstra.stats.nodes_popped,
        wirelength,
        colors: first.stats.conflict_colors,
        max_class: first.stats.max_class,
        conflict_serial_frac: round_to(conflict_serial_frac, 3),
        best_ms: round_to(best, 3),
        mean_ms: round_to(mean, 3),
        best_ms_t4: round_to(best_t4, 3),
    }
}

fn place_workload(w: &msaf_bench::workloads::CadWorkload, timed: bool) -> PlaceRow {
    let inc_opts = PlaceOptions::seeded(w.seed);
    let full_opts = PlaceOptions {
        cost_mode: CostMode::FullRecompute,
        ..PlaceOptions::seeded(w.seed)
    };
    let pl = place_with(&w.mapped, &w.packed, &w.arch, &inc_opts).expect("places");
    let (best, best_full) = if timed {
        let (_, _, best) = time_it(5, 200.0, || {
            let r = place_with(&w.mapped, &w.packed, &w.arch, &inc_opts).expect("places");
            assert_eq!(r.cost, pl.cost, "nondeterministic placement");
        });
        let (_, _, best_full) = time_it(3, 200.0, || {
            let r = place_with(&w.mapped, &w.packed, &w.arch, &full_opts).expect("places");
            assert_eq!(r.cost, pl.cost, "cost modes diverged");
        });
        (best, best_full)
    } else {
        (f64::NAN, f64::NAN)
    };
    let moves = pl.stats.moves_attempted;
    PlaceRow {
        name: format!("place_{}", w.name),
        plbs: w.packed.plb_count(),
        grid: format!("{}x{}", w.arch.width, w.arch.height),
        moves,
        accepted: pl.stats.moves_accepted,
        cost: pl.cost as u64,
        best_ms: round_to(best, 3),
        best_ms_full: round_to(best_full, 3),
        moves_per_sec: (moves as f64 / (best / 1e3)).round(),
        moves_per_sec_full: (moves as f64 / (best_full / 1e3)).round(),
        speedup: round_to(best_full / best, 2),
    }
}

fn sim_rows(timed: bool, filter: &str) -> SimSnapshot {
    let fifo2_msa = msaf_bench::workloads::msa_example("fifo2").expect("committed example");
    let specs: [(&'static str, Netlist, &'static str); 3] = [
        ("wchb_fifo_d4_w4_32tok", wchb_fifo(4, 4), "in"),
        ("bundled_fifo_d4_w4_32tok", bundled_fifo(4, 4, 16), "in"),
        (
            "msa_fifo2_wchb_32tok",
            msaf_bench::workloads::from_msa(fifo2_msa, "wchb").expect("known style"),
            "inp",
        ),
    ];
    let workloads = specs
        .into_iter()
        .filter(|(name, _, _)| name.contains(filter))
        .map(|(name, nl, ch)| sim_workload(name, &nl, ch, timed))
        .collect();
    SimSnapshot {
        host_threads: host_threads(),
        workloads,
    }
}

/// `BENCH_sim.json`.
#[derive(Serialize)]
struct SimSnapshot {
    host_threads: usize,
    workloads: Vec<SimRow>,
}

/// `BENCH_cad.json`.
#[derive(Serialize)]
struct CadSnapshot {
    host_threads: usize,
    workloads: Vec<CadRow>,
    placements: Vec<PlaceRow>,
    timing: Vec<TimingRow>,
}

/// `BENCH_faults.json`.
#[derive(Serialize)]
struct FaultSnapshot {
    workloads: Vec<FaultRow>,
}

/// The CAD snapshot plus any timing-contract violations (reported, not
/// panicked — see `timing_workload`).
fn cad_rows(timed: bool, filter: &str) -> (CadSnapshot, Vec<String>) {
    let mut rows = Vec::new();
    let mut prows = Vec::new();
    let mut trows = Vec::new();
    let mut violations = Vec::new();

    // The paper-scale flow route, built through the shared workload
    // constructor.
    let nl = msaf_bench::workloads::adder("qdi", 4).expect("workload");
    let adder4 = msaf_bench::workloads::CadWorkload::build("qdi_adder_4b", &nl, 7);
    // Keep the historical fixed 8x8 grid for this row (the sizing policy
    // would pick the same).
    assert_eq!((adder4.arch.width, adder4.arch.height), (8, 8));
    let mut workloads = vec![adder4];
    workloads.extend(msaf_bench::workloads::fabric_cad_suite());

    for w in &workloads {
        if format!("place_{}", w.name).contains(filter) {
            prows.push(place_workload(w, timed));
        }
        // Check the row names before building the routing workload —
        // `routing()` anneals a placement and binds every net, exactly
        // the fabric-scale work `--filter` exists to skip. The route
        // and timing rows share one placement+binding (deterministic,
        // so sharing changes nothing but wall time).
        let want_route = format!("route_{}", w.name).contains(filter);
        let want_timed = format!("timed_route_{}", w.name).contains(filter);
        if want_route || want_timed {
            let r = w.routing();
            if want_route {
                rows.push(cad_workload(&r.name, &r.rrg, &r.requests, timed));
            }
            if want_timed {
                trows.push(timing_workload(w, &r, &mut violations));
            }
        }
    }

    // The timing-driven headline: on an unfiltered run at least one
    // committed workload must actually *reduce* the post-route critical
    // delay (not just match it) — the reason the blended cost exists.
    if filter.is_empty()
        && !trows
            .iter()
            .any(|t| t.crit_delay_post < t.crit_delay_untimed)
    {
        violations.push(
            "no committed workload improved its critical delay under timing-driven routing"
                .to_string(),
        );
    }

    // The congestion stress workloads: first iteration conflicts, so
    // `iterations > 1` and `ripups > 0` here are part of the contract.
    for w in msaf_bench::workloads::routing_stress_suite() {
        if w.name.contains(filter) {
            rows.push(cad_workload(&w.name, &w.rrg, &w.requests, timed));
        }
    }

    // The colored-negotiation headline: on an unfiltered run at least
    // one fabric-scale workload must expose a color class of ≥ 8
    // independent nets — real parallelism for a multicore host to
    // spend, not just singleton-class Gauss-Seidel in disguise.
    if filter.is_empty() && !rows.iter().any(|r| r.nets >= 250 && r.max_class >= 8) {
        violations.push(
            "no fabric-scale route row (nets >= 250) exposed a conflict class of >= 8 \
             independent nets"
                .to_string(),
        );
    }
    let snapshot = CadSnapshot {
        host_threads: host_threads(),
        workloads: rows,
        placements: prows,
        timing: trows,
    };
    (snapshot, violations)
}

/// One fault-campaign row: the full classification census of
/// `adder4.msa` in one style, plus the style's robustness contract
/// observables. Every field is structural — campaigns are
/// byte-identical at any thread count, so these rows never carry
/// timings and behave the same in timed and `--check` runs.
#[derive(Serialize)]
struct FaultRow {
    name: String,
    /// Whether the style is delay-insensitive (QDI/WCHB) — decides
    /// which side of the delay-fault contract the row must satisfy.
    di: bool,
    faults: usize,
    masked: usize,
    glitch_only: usize,
    corrupted: usize,
    deadlocked: usize,
    budget_exhausted: usize,
    /// Token corruptions under delay faults alone (must be 0 for DI).
    delay_corrupted: usize,
    /// Smallest corrupting delay multiplier; 0 = none (the DI answer).
    delay_threshold: u64,
    /// [`msaf_sim::FaultReport::digest`] in hex — pins per-fault
    /// outcomes, not just the counts.
    digest: String,
}

/// Runs the committed fault campaigns (adder4.msa in every style) and
/// asserts the robustness contract: DI styles show zero token
/// corruptions under delay faults, bundled data has a finite
/// corruption threshold; campaigns at 1 and 4 worker threads produce
/// the identical digest.
fn fault_rows(filter: &str, violations: &mut Vec<String>) -> FaultSnapshot {
    let src = msaf_bench::workloads::msa_example("adder4").expect("committed example");
    let mut rows = Vec::new();
    for style in ["qdi", "wchb", "bundled"] {
        let name = format!("faults_adder4_{style}");
        if !name.contains(filter) {
            continue;
        }
        let nl = msaf_bench::workloads::from_msa(src, style).expect("known style");
        let stimulus = default_stimulus(&nl);
        let opts = CampaignOptions::default();
        let report =
            run_campaign(&nl, &PerKindDelay::new(), &stimulus, &opts).expect("clean reference");
        let par = run_campaign(
            &nl,
            &PerKindDelay::new(),
            &stimulus,
            &CampaignOptions { threads: 4, ..opts },
        )
        .expect("clean reference");
        if par.digest() != report.digest() {
            violations.push(format!(
                "{name}: campaign digest differs between 1 and 4 worker threads \
                 ({:#018x} vs {:#018x})",
                report.digest(),
                par.digest()
            ));
        }
        let mut totals = msaf_sim::KindSummary::default();
        for kind in FAULT_KINDS {
            let s = report.summary(kind);
            totals.faults += s.faults;
            totals.masked += s.masked;
            totals.glitch_only += s.glitch_only;
            totals.corrupted += s.corrupted;
            totals.deadlocked += s.deadlocked;
            totals.budget_exhausted += s.budget_exhausted;
        }
        let di = style != "bundled";
        let delay = report.summary("delay");
        if di && delay.corrupted != 0 {
            violations.push(format!(
                "{name}: delay-insensitive style suffered {} token corruption(s) under \
                 delay faults",
                delay.corrupted
            ));
        }
        if !di && report.delay_corruption_threshold().is_none() {
            violations.push(format!(
                "{name}: bundled data never corrupted under the swept delay multipliers \
                 — the matched-delay envelope was not probed past its slack"
            ));
        }
        rows.push(FaultRow {
            name,
            di,
            faults: totals.faults,
            masked: totals.masked,
            glitch_only: totals.glitch_only,
            corrupted: totals.corrupted,
            deadlocked: totals.deadlocked,
            budget_exhausted: totals.budget_exhausted,
            delay_corrupted: delay.corrupted,
            delay_threshold: report.delay_corruption_threshold().unwrap_or(0),
            digest: format!("{:#018x}", report.digest()),
        });
    }
    FaultSnapshot { workloads: rows }
}

/// The capturing host's available parallelism, recorded in every
/// snapshot so `--check` can tell speedup numbers from 1-CPU
/// determinism-overhead numbers.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn to_json(snapshot: &impl Serialize) -> String {
    let mut json = serde_json::to_string_pretty(snapshot).expect("snapshots serialize");
    json.push('\n');
    json
}

/// The structural fields of each section, by file: everything except
/// the timings and the values derived from them.
const SIM_SECTIONS: &[(&str, &[&str])] = &[("workloads", &["events_per_run", "glitches"])];
const CAD_SECTIONS: &[(&str, &[&str])] = &[
    (
        "workloads",
        &[
            "nets",
            "iterations",
            "ripups",
            "nodes_popped",
            "nodes_popped_dijkstra",
            "wirelength",
            "colors",
            "max_class",
            "conflict_serial_frac",
        ],
    ),
    ("placements", &["plbs", "moves", "accepted", "cost"]),
    (
        "timing",
        &[
            "nets",
            "iterations",
            "iterations_untimed",
            "crit_delay_pre",
            "crit_delay_post",
            "crit_delay_untimed",
            "worst_slack",
            "wirelength",
            "wirelength_untimed",
            "crit_hist",
        ],
    ),
];
const FAULT_SECTIONS: &[(&str, &[&str])] = &[(
    "workloads",
    &[
        "di",
        "faults",
        "masked",
        "glitch_only",
        "corrupted",
        "deadlocked",
        "budget_exhausted",
        "delay_corrupted",
        "delay_threshold",
        "digest",
    ],
)];

fn name(row: &JsonValue) -> &str {
    row.get("name").and_then(JsonValue::as_str).unwrap_or("")
}

fn rows<'a>(doc: &'a JsonValue, section: &str) -> &'a [JsonValue] {
    doc.get(section).and_then(JsonValue::as_arr).unwrap_or(&[])
}

fn show(v: &JsonValue) -> String {
    match v {
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Str(s) => format!("\"{s}\""),
        JsonValue::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// Diffs `fields` of every row of the `current` snapshot's `section`
/// against the same-named row of the `committed` one, returning one
/// message per missing row or differing field.
fn diff_section(
    file: &str,
    committed: &JsonValue,
    current: &JsonValue,
    section: &str,
    fields: &[&str],
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for cur in rows(current, section) {
        let row = name(cur);
        let Some(old) = rows(committed, section).iter().find(|r| name(r) == row) else {
            mismatches.push(format!("{file}: row '{row}' missing"));
            continue;
        };
        for &field in fields {
            match (old.get(field), cur.get(field)) {
                (Some(c), Some(v)) if c == v => {}
                (Some(c), Some(v)) => mismatches.push(format!(
                    "{file}: {row}.{field}: committed {}, current {}",
                    show(c),
                    show(v)
                )),
                _ => mismatches.push(format!(
                    "{file}: {row}.{field}: missing from the committed snapshot"
                )),
            }
        }
    }
    mismatches
}

fn check(outdir: &str, filter: &str) -> ExitCode {
    let mut mismatches = Vec::new();
    let mut rows_checked = 0usize;

    let sim = sim_rows(false, filter);
    let (cad, mut violations) = cad_rows(false, filter);
    let faults = fault_rows(filter, &mut violations);
    mismatches.append(&mut violations);
    let files = [
        ("BENCH_sim.json", to_json(&sim), SIM_SECTIONS),
        ("BENCH_cad.json", to_json(&cad), CAD_SECTIONS),
        ("BENCH_faults.json", to_json(&faults), FAULT_SECTIONS),
    ];
    for (file, current, sections) in files {
        let path = format!("{outdir}/{file}");
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => match parse(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    mismatches.push(format!("{path}: not valid JSON: {e}"));
                    continue;
                }
            },
            Err(e) => {
                mismatches.push(format!("{path}: cannot read: {e}"));
                continue;
            }
        };
        let current = parse(&current).expect("the writer emits valid JSON");
        for &(section, fields) in sections {
            mismatches.extend(diff_section(&path, &committed, &current, section, fields));
            rows_checked += rows(&current, section).len();
        }
        // Every snapshot that records its capture host must say so when
        // committed — without it the timing expectations are meaningless.
        if current.get("host_threads").is_some() && committed.get("host_threads").is_none() {
            mismatches.push(format!(
                "{path}: host_threads missing from the committed snapshot"
            ));
        }
        if file == "BENCH_cad.json" {
            mismatches.extend(cad_contracts(&path, &committed, filter));
        }
    }

    if mismatches.is_empty() {
        println!("bench_summary --check: OK ({rows_checked} rows structurally unchanged)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_summary --check: behaviour drifted from the committed snapshot \
             (regenerate with `cargo run --release -p msaf-bench --bin bench_summary {outdir}` \
             if the change is intended):"
        );
        for m in &mismatches {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }
}

/// The committed CAD snapshot's own contracts: its timings must not
/// contradict a multicore capture host, and an unfiltered check needs a
/// fabric-scale route row.
fn cad_contracts(path: &str, committed: &JsonValue, filter: &str) -> Vec<String> {
    let num = |r: &JsonValue, field: &str| r.get(field).and_then(JsonValue::as_num);
    let nets_at_least = |r: &JsonValue, n: f64| num(r, "nets").is_some_and(|nets| nets >= n);
    let routes = rows(committed, "workloads");
    let mut mismatches = Vec::new();
    // Host-aware timing expectation: on a multicore capture host,
    // 4-thread routing of a fabric-scale workload must not lose to
    // serial (both numbers come from the same committed run, so this
    // never re-times anything). A 1-CPU capture host measures
    // determinism overhead, not speedup — skip.
    let host = num(committed, "host_threads").unwrap_or(0.0);
    if host >= 2.0 {
        for r in routes
            .iter()
            .filter(|r| name(r).contains(filter) && nets_at_least(r, 250.0))
        {
            if let (Some(best), Some(t4)) = (num(r, "best_ms"), num(r, "best_ms_t4")) {
                if t4 > best {
                    mismatches.push(format!(
                        "{path}: {}: committed best_ms_t4 {t4:.3} loses to best_ms {best:.3} \
                         on a {host}-thread capture host",
                        name(r)
                    ));
                }
            }
        }
    }
    // Fabric-scale contract: the committed snapshot must carry at least
    // one route row past 1000 nets (the hierarchy workloads' regime — a
    // snapshot without one means the fabric-scale rows silently
    // vanished). Unfiltered runs only: a filtered check legitimately
    // sees a subset.
    if filter.is_empty()
        && !routes
            .iter()
            .any(|r| name(r).starts_with("route_") && nets_at_least(r, 1000.0))
    {
        mismatches.push(format!("{path}: no committed route row reaches 1000 nets"));
    }
    mismatches
}

fn main() -> ExitCode {
    let mut outdir = ".".to_string();
    let mut check_mode = false;
    let mut filter = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check_mode = true;
        } else if arg == "--filter" {
            let Some(f) = args.next() else {
                eprintln!("--filter needs a substring argument");
                return ExitCode::FAILURE;
            };
            filter = f;
        } else if arg.starts_with('-') {
            eprintln!(
                "unknown flag '{arg}'; usage: bench_summary [outdir] [--check] [--filter <substr>]"
            );
            return ExitCode::FAILURE;
        } else {
            outdir = arg;
        }
    }
    if check_mode {
        return check(&outdir, &filter);
    }

    // A filtered timed run prints but never writes: a partial snapshot
    // would fail the next --check as "rows missing". The CAD snapshot is
    // written even when the timing contract is violated (the drifted
    // snapshot is what a code review diffs), but the run still fails.
    let emit = |file: &str, json: String| {
        if filter.is_empty() {
            std::fs::write(format!("{outdir}/{file}"), &json)
                .unwrap_or_else(|e| panic!("write {file}: {e}"));
            print!("{file}:\n{json}");
        } else {
            print!("{file} (filtered '{filter}', not written):\n{json}");
        }
    };
    emit("BENCH_sim.json", to_json(&sim_rows(true, &filter)));
    let (cad, mut violations) = cad_rows(true, &filter);
    emit("BENCH_cad.json", to_json(&cad));
    emit(
        "BENCH_faults.json",
        to_json(&fault_rows(&filter, &mut violations)),
    );
    report_violations(&violations)
}

/// Prints any bench-contract violations (timing-driven routing, colored
/// negotiation) and turns them into a failing exit code (after all
/// output/snapshots have been produced).
fn report_violations(violations: &[String]) -> ExitCode {
    if violations.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("bench_summary: bench contract violated:");
    for v in violations {
        eprintln!("  {v}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rows in the one-line-per-row layout the snapshots had before
    /// the writer pretty-printed them.
    const CURRENT: &str = r#"{"workloads": [
        {"name": "route_a", "nets": 66, "crit_hist": "1|2", "best_ms": 2.119},
        {"name": "route_b", "nets": 9, "crit_hist": "0|9", "best_ms": 0.5}
    ]}"#;

    fn diff(committed: &str) -> Vec<String> {
        let committed = parse(committed).unwrap();
        let current = parse(CURRENT).unwrap();
        let fields = ["nets", "crit_hist"];
        diff_section("BENCH_cad.json", &committed, &current, "workloads", &fields)
    }

    #[test]
    fn identical_documents_match() {
        assert!(diff(CURRENT).is_empty());
    }

    #[test]
    fn a_changed_structural_field_names_file_row_field_and_values() {
        let committed = CURRENT.replace("\"nets\": 9,", "\"nets\": 10,");
        assert_eq!(
            diff(&committed),
            ["BENCH_cad.json: route_b.nets: committed 10, current 9"]
        );
    }

    #[test]
    fn a_changed_timing_field_is_not_a_mismatch() {
        assert!(diff(&CURRENT.replace("2.119", "7.5")).is_empty());
    }

    #[test]
    fn a_missing_row_is_named() {
        let committed = r#"{"workloads": [{"name": "route_a", "nets": 66, "crit_hist": "1|2"}]}"#;
        assert_eq!(diff(committed), ["BENCH_cad.json: row 'route_b' missing"]);
    }

    #[test]
    fn a_pretty_printed_committed_document_matches() {
        let pretty = CURRENT.replace(", ", ",\n      ");
        assert!(pretty.lines().count() > CURRENT.lines().count());
        assert!(diff(&pretty).is_empty());
    }
}
