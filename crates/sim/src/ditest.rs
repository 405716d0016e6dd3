//! Delay-insensitivity stress harness.
//!
//! Section 2 of the paper: a QDI circuit "works correctly whatever the
//! delays are in wires and gates" (up to isochronic forks). This module
//! turns that claim into an executable test: run the same token experiment
//! under many independently-seeded random per-gate delay assignments and
//! check that every run produces the *same token streams*. A QDI design
//! passes; a bundled-data design without sufficient matched delay fails —
//! the X3 robustness experiment (the `ext_di_robustness` binary in
//! `msaf-bench`, pinned by `tests/experiment_claims.rs`'s
//! `x3_qdi_robust_micropipeline_fragile`).

use crate::agents::{token_run, TokenRunError, TokenRunOptions, TokenRunReport};
use crate::delay::RandomDelay;
use msaf_netlist::Netlist;
use std::collections::BTreeMap;

/// Configuration for [`di_stress`].
#[derive(Debug, Clone)]
pub struct DiConfig {
    /// Independent random delay assignments to try.
    pub seeds: Vec<u64>,
    /// Smallest per-gate delay (≥ 1).
    pub delay_lo: u64,
    /// Largest per-gate delay.
    pub delay_hi: u64,
    /// Token-run options shared by all runs.
    pub opts: TokenRunOptions,
}

impl Default for DiConfig {
    fn default() -> Self {
        Self {
            seeds: (0..16).collect(),
            delay_lo: 1,
            delay_hi: 20,
            opts: TokenRunOptions::default(),
        }
    }
}

/// One divergent or failed run.
#[derive(Debug, Clone)]
pub enum DiFailure {
    /// The run completed but an output stream differed from the reference.
    Mismatch {
        /// Seed of the divergent run.
        seed: u64,
        /// Channel whose stream diverged.
        channel: String,
        /// Values observed under this seed.
        got: Vec<u64>,
        /// Values observed under the reference (first) seed.
        want: Vec<u64>,
    },
    /// The run errored (deadlock or event-limit).
    Error {
        /// Seed of the failed run.
        seed: u64,
        /// What went wrong.
        error: TokenRunError,
    },
}

/// Outcome of [`di_stress`].
#[derive(Debug, Clone)]
pub struct DiReport {
    /// Number of runs attempted.
    pub runs: usize,
    /// Reference streams (from the first seed).
    pub reference: BTreeMap<String, Vec<u64>>,
    /// Divergences and failures; empty ⇔ the circuit behaved
    /// delay-insensitively across all sampled delay assignments.
    pub failures: Vec<DiFailure>,
    /// Total glitches observed across all runs (hazard indicator).
    pub total_glitches: usize,
    /// Glitch counts keyed by the output data value in flight when the
    /// glitch happened, summed across all completed runs. A non-flat
    /// histogram is the data-dependent hazard signature the
    /// secure-async-FPGA line of work measures (power/EM side channels
    /// leak through exactly these pulses).
    pub glitches_by_value: BTreeMap<u64, usize>,
}

impl DiReport {
    /// True when every run agreed with the reference.
    #[must_use]
    pub fn is_delay_insensitive(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Attributes each glitch of a completed run to the output token in
/// flight when it fired: a glitch at time *g* belongs to the first
/// output token committed at or after *g* (glitches after the last
/// token belong to the last token — the return-to-zero tail of its
/// handshake). Returns an empty map when the run produced no tokens.
#[must_use]
pub fn attribute_glitches(report: &TokenRunReport) -> BTreeMap<u64, usize> {
    let mut boundaries: Vec<(u64, u64)> = report
        .outputs
        .values()
        .flat_map(|s| s.tokens.iter().map(|t| (t.time, t.value)))
        .collect();
    boundaries.sort_unstable();
    let mut map = BTreeMap::new();
    if boundaries.is_empty() {
        return map;
    }
    for &g in &report.glitch_times {
        let idx = boundaries.partition_point(|&(t, _)| t < g);
        let (_, value) = boundaries[idx.min(boundaries.len() - 1)];
        *map.entry(value).or_insert(0) += 1;
    }
    map
}

/// Runs the token experiment once per seed with random per-gate delays and
/// compares every output stream against the first run.
///
/// # Errors
///
/// Returns the error of the *first* (reference) run if it fails — without
/// a reference there is nothing to compare against. Failures of subsequent
/// runs are collected in the report.
pub fn di_stress(
    netlist: &Netlist,
    inputs: &BTreeMap<String, Vec<u64>>,
    config: &DiConfig,
) -> Result<DiReport, TokenRunError> {
    assert!(!config.seeds.is_empty(), "need at least one seed");
    let mut seeds = config.seeds.iter().copied();
    let first_seed = seeds.next().expect("non-empty");

    let reference_run = token_run(
        netlist,
        &RandomDelay::new(first_seed, config.delay_lo, config.delay_hi),
        inputs,
        &config.opts,
    )?;
    let reference: BTreeMap<String, Vec<u64>> = reference_run
        .outputs
        .iter()
        .map(|(k, v)| (k.clone(), v.values()))
        .collect();

    let mut failures = Vec::new();
    let mut total_glitches = reference_run.glitches;
    let mut glitches_by_value = attribute_glitches(&reference_run);
    let mut runs = 1;
    for seed in seeds {
        runs += 1;
        let model = RandomDelay::new(seed, config.delay_lo, config.delay_hi);
        match token_run(netlist, &model, inputs, &config.opts) {
            Ok(report) => {
                total_glitches += report.glitches;
                for (value, count) in attribute_glitches(&report) {
                    *glitches_by_value.entry(value).or_insert(0) += count;
                }
                for (channel, want) in &reference {
                    let got = report
                        .outputs
                        .get(channel)
                        .map(|s| s.values())
                        .unwrap_or_default();
                    if &got != want {
                        failures.push(DiFailure::Mismatch {
                            seed,
                            channel: channel.clone(),
                            got,
                            want: want.clone(),
                        });
                    }
                }
            }
            Err(error) => failures.push(DiFailure::Error { seed, error }),
        }
    }

    Ok(DiReport {
        runs,
        reference,
        failures,
        total_glitches,
        glitches_by_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_netlist::{Channel, ChannelDir, Encoding, GateKind, Protocol};

    /// Dual-rail identity circuit (QDI by construction).
    fn dr_wire() -> Netlist {
        let mut nl = Netlist::new("dr_wire");
        let in_t = nl.add_input("in_t");
        let in_f = nl.add_input("in_f");
        let out_ack = nl.add_input("out_ack");
        let (_, t) = nl.add_gate_new(GateKind::Buf, "bt", &[in_t]);
        let (_, f) = nl.add_gate_new(GateKind::Buf, "bf", &[in_f]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for n in [t, f, ia] {
            nl.mark_output(n);
        }
        nl.add_channel(Channel::new(
            "in",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::DualRail { width: 1 },
            None,
            ia,
            vec![in_t, in_f],
        ));
        nl.add_channel(Channel::new(
            "out",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::DualRail { width: 1 },
            None,
            out_ack,
            vec![t, f],
        ));
        nl
    }

    #[test]
    fn qdi_wire_is_delay_insensitive() {
        let nl = dr_wire();
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1, 0, 0, 1]);
        let cfg = DiConfig {
            seeds: (0..8).collect(),
            ..DiConfig::default()
        };
        let report = di_stress(&nl, &inputs, &cfg).expect("reference runs");
        assert!(report.is_delay_insensitive(), "{:?}", report.failures);
        assert_eq!(report.runs, 8);
        assert_eq!(report.reference["out"], vec![1, 0, 0, 1]);
        // Every glitch of every completed run is attributed to exactly
        // one data value (every run here produced tokens).
        let attributed: usize = report.glitches_by_value.values().sum();
        assert_eq!(attributed, report.total_glitches);
    }

    #[test]
    fn bundled_wire_with_skew_fails_di() {
        // Bundled path where data delay is sometimes larger than req
        // delay: under random delays the sampled values diverge.
        let mut nl = Netlist::new("bd_skew");
        let d0 = nl.add_input("d0");
        let req = nl.add_input("req");
        let out_ack = nl.add_input("out_ack");
        // A 4-deep buffer chain on data vs a single buffer on req: random
        // per-gate delays will often violate the bundling constraint.
        let (_, a1) = nl.add_gate_new(GateKind::Buf, "a1", &[d0]);
        let (_, a2) = nl.add_gate_new(GateKind::Buf, "a2", &[a1]);
        let (_, a3) = nl.add_gate_new(GateKind::Buf, "a3", &[a2]);
        let (_, q0) = nl.add_gate_new(GateKind::Buf, "a4", &[a3]);
        let (_, qr) = nl.add_gate_new(GateKind::Buf, "r1", &[req]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for n in [q0, qr, ia] {
            nl.mark_output(n);
        }
        nl.add_channel(Channel::new(
            "in",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::Bundled { width: 1 },
            Some(req),
            ia,
            vec![d0],
        ));
        nl.add_channel(Channel::new(
            "out",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::Bundled { width: 1 },
            Some(qr),
            out_ack,
            vec![q0],
        ));
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1, 0, 1, 0, 1]);
        let cfg = DiConfig {
            seeds: (0..24).collect(),
            delay_lo: 1,
            delay_hi: 30,
            ..DiConfig::default()
        };
        let report = di_stress(&nl, &inputs, &cfg).expect("reference runs");
        assert!(
            !report.is_delay_insensitive(),
            "unmatched bundled data must fail DI stress"
        );
    }
}
