//! Equivalence regression for the simulator rewrite: the optimized engine
//! (CSR fanout, generation-checked cancellation, timing-wheel queue) must
//! be *observably identical* to the pre-optimization engine.
//!
//! The golden values below were captured from the original engine
//! (per-event `Vec` collects, `HashSet` lazy cancellation, `BinaryHeap`
//! only) on the two token-throughput workloads, immediately before the
//! rewrite, and — for the random-delay stress — from the last engine
//! that still carried the heap queue beside the wheel, with both queues
//! agreeing. Any drift in committed event counts, glitch counts, output
//! tokens, or quiescence time means the engine changed semantics — fail
//! loudly.

use msaf::prelude::*;
use std::collections::BTreeMap;

/// The bench input stream: 32 tokens of `(i * 7 + 3) & 0xF`.
fn inputs() -> BTreeMap<String, Vec<u64>> {
    let mut m = BTreeMap::new();
    m.insert(
        "in".to_string(),
        (0..32u64).map(|i| (i * 7 + 3) & 0xF).collect(),
    );
    m
}

/// Golden output token sequence (FIFOs are identity; pinned literally so
/// encode/decode drift is caught independently of the input formula).
const GOLDEN_TOKENS: [u64; 32] = [
    3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9, 0, 7, 14, 5, 12, 3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9, 0,
    7, 14, 5, 12,
];

fn run(netlist: &Netlist) -> msaf::sim::agents::TokenRunReport {
    token_run(
        netlist,
        &PerKindDelay::new(),
        &inputs(),
        &TokenRunOptions::default(),
    )
    .expect("workload runs")
}

#[test]
fn wchb_fifo_matches_pre_optimization_engine() {
    // Captured from the pre-rewrite engine: events=3908, glitches=0,
    // end_time=1291.
    let report = run(&wchb_fifo(4, 4));
    assert_eq!(report.events, 3908, "event count drifted");
    assert_eq!(report.glitches, 0, "glitch count drifted");
    assert_eq!(report.end_time, 1291, "quiescence time drifted");
    assert_eq!(
        report.outputs["out"].values(),
        GOLDEN_TOKENS,
        "output tokens drifted"
    );
    assert!(report.violations.is_empty(), "protocol violation");
}

#[test]
fn bundled_fifo_matches_pre_optimization_engine() {
    // Captured from the pre-rewrite engine: events=1868, glitches=0,
    // end_time=1788.
    let report = run(&bundled_fifo(4, 4, 16));
    assert_eq!(report.events, 1868, "event count drifted");
    assert_eq!(report.glitches, 0, "glitch count drifted");
    assert_eq!(report.end_time, 1788, "quiescence time drifted");
    assert_eq!(
        report.outputs["out"].values(),
        GOLDEN_TOKENS,
        "output tokens drifted"
    );
    assert!(report.violations.is_empty(), "protocol violation");
}

/// Quiescence time per seed of the random-delay stress below. Every run
/// commits 230 events with no glitch and delivers the input stream.
const DI_STRESS_END_TIMES: [u64; 12] = [
    1278, 1227, 1205, 1007, 912, 1048, 907, 991, 958, 751, 1190, 893,
];

#[test]
fn di_stress_matches_goldens() {
    // Beyond the golden workloads: a WCHB FIFO under adversarial random
    // delays (12 seeds) must keep its pinned event count, glitch count,
    // quiescence time and output tokens.
    let nl = wchb_fifo(2, 2);
    let tokens = vec![1, 2, 3, 0, 3, 1];
    let mut ins = BTreeMap::new();
    ins.insert("in".to_string(), tokens.clone());
    for (seed, end_time) in (0..12u64).zip(DI_STRESS_END_TIMES) {
        let model = RandomDelay::new(seed, 1, 25);
        let report = token_run(&nl, &model, &ins, &TokenRunOptions::default()).expect("stress run");
        assert_eq!(report.events, 230, "seed {seed}: events drifted");
        assert_eq!(report.glitches, 0, "seed {seed}: glitches drifted");
        assert_eq!(report.end_time, end_time, "seed {seed}: time drifted");
        assert_eq!(
            report.outputs["out"].values(),
            tokens,
            "seed {seed}: tokens drifted"
        );
    }
}
