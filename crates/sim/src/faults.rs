//! Deterministic fault-injection campaigns: the paper's robustness
//! tradeoff, measured instead of asserted.
//!
//! A campaign enumerates fault sites over a compiled netlist, runs one
//! token-level simulation per injected fault, and classifies each
//! outcome against a clean reference run:
//!
//! * **masked** — output token streams identical, no new hazards: the
//!   fault never reached an observable point;
//! * **glitch-only** — streams identical but extra filtered pulses or
//!   protocol violations appeared: the fault was absorbed by inertial
//!   filtering / handshake discipline before corrupting a token;
//! * **token-corrupted** — an output stream differs from the reference:
//!   silent data corruption, the worst cell of the lattice;
//! * **deadlocked** — the handshake stalled; the stall watchdog names
//!   the channel and frontier nets. For QDI styles this is *detection*:
//!   the protocol refused to produce a wrong token;
//! * **budget-exhausted** — the event budget ran out (oscillation or
//!   livelock), also reported with any mid-handshake agents.
//!
//! Three fault classes map onto the three style assumptions:
//! stuck-at-0/1 (a net clamped in the engine's commit path), transient
//! SEU (a rail inverted at time *t*, *t* swept across the reference
//! run), and delay faults (one gate's model delay multiplied — the axis
//! on which QDI must stay 100% masked-or-detected while bundled data
//! corrupts once the fault exceeds its matched-delay slack).
//!
//! Campaigns are embarrassingly parallel and byte-identical at any
//! thread count: the coordinating thread and `threads − 1` spawned
//! workers pull fault indices from one atomic cursor, and the
//! coordinator scatters the results into per-index slots; trace events
//! are emitted by the coordinator in fault order after the joins.

use crate::agents::{
    build_agents, collect_report, drive_agents, token_run, TokenRunError, TokenRunOptions,
    TokenRunReport,
};
use crate::delay::DelayModel;
use crate::engine::{SimTime, Simulator};
use msaf_netlist::{ChannelDir, Encoding, GateId, GateKind, NetId, Netlist};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default campaign stimulus: a short value-diverse token vector per
/// input channel, reduced to the channel's payload range. The fixed
/// pattern keeps campaigns reproducible across tools (`msafc --faults`
/// and the bench goldens drive the same tokens).
#[must_use]
pub fn default_stimulus(netlist: &Netlist) -> BTreeMap<String, Vec<u64>> {
    let mut tokens = BTreeMap::new();
    for ch in netlist.channels() {
        if ch.dir() != ChannelDir::Input {
            continue;
        }
        let span: u64 = match ch.encoding() {
            Encoding::DualRail { width } | Encoding::Bundled { width } => {
                1u64.checked_shl(width as u32).unwrap_or(u64::MAX)
            }
            Encoding::OneOfN { n, digits } => (n as u64).saturating_pow(digits as u32),
        };
        let span = span.max(2);
        tokens.insert(
            ch.name().to_string(),
            [1u64, 0, 3, 2].iter().map(|v| v % span).collect(),
        );
    }
    tokens
}

/// One injectable fault at an enumerated site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Stuck-at: clamp `net` to `value` from power-up onward.
    StuckAt {
        /// The clamped net.
        net: NetId,
        /// The stuck value.
        value: bool,
    },
    /// Transient single-event upset: invert `net` at time `at`.
    Seu {
        /// The upset net.
        net: NetId,
        /// When the upset fires.
        at: SimTime,
    },
    /// Delay fault: multiply `gate`'s model-assigned delay by `mult`.
    DelayMult {
        /// The slowed gate.
        gate: GateId,
        /// The delay multiplier.
        mult: u64,
    },
}

impl Fault {
    /// The fault-class label used in tables, digests and trace events.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::StuckAt { value: false, .. } => "stuck-at-0",
            Fault::StuckAt { value: true, .. } => "stuck-at-1",
            Fault::Seu { .. } => "seu",
            Fault::DelayMult { .. } => "delay",
        }
    }

    /// A stable human-readable site label (net/gate name plus the
    /// class-specific parameter).
    #[must_use]
    pub fn site(&self, nl: &Netlist) -> String {
        match *self {
            Fault::StuckAt { net, .. } => nl.net(net).name().to_string(),
            Fault::Seu { net, at } => format!("{}@t{}", nl.net(net).name(), at),
            Fault::DelayMult { gate, mult } => format!("{}x{}", nl.gate(gate).name(), mult),
        }
    }
}

/// Classified outcome of one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Streams identical to the reference, no new hazards.
    Masked,
    /// Streams identical, but extra glitches or protocol violations.
    GlitchOnly,
    /// An output token stream differs from the reference.
    TokenCorrupted,
    /// The handshake stalled; `channel` is the first stalled channel
    /// from the watchdog's diagnosis.
    Deadlocked {
        /// Stalled channel name.
        channel: String,
    },
    /// The event budget ran out before quiescence.
    BudgetExhausted {
        /// First mid-handshake channel at exhaustion, if any.
        channel: Option<String>,
    },
}

impl FaultOutcome {
    /// Short classification label (column key in tables and digests).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::GlitchOnly => "glitch-only",
            FaultOutcome::TokenCorrupted => "corrupted",
            FaultOutcome::Deadlocked { .. } => "deadlocked",
            FaultOutcome::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    /// Label plus the diagnosed channel, for digests and trace events.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FaultOutcome::Deadlocked { channel } => format!("deadlocked({channel})"),
            FaultOutcome::BudgetExhausted { channel: Some(c) } => {
                format!("budget-exhausted({c})")
            }
            other => other.name().to_string(),
        }
    }
}

/// One campaign row: the fault, its site label, and the classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResult {
    /// The injected fault.
    pub fault: Fault,
    /// Stable site label (see [`Fault::site`]).
    pub site: String,
    /// Classified outcome.
    pub outcome: FaultOutcome,
    /// Glitches beyond the reference run's count (0 unless the run
    /// completed).
    pub extra_glitches: u64,
}

/// Campaign shape: how many sites per fault class and how to run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Token-run options. Only the tracer is read: it records the
    /// campaign (see [`run_campaign`]), while every simulation in it runs
    /// untraced.
    pub run: TokenRunOptions,
    /// Max stuck-at sites (each yields a stuck-at-0 and a stuck-at-1
    /// fault). Channel nets are enumerated first, then a deterministic
    /// stride over internal gate outputs.
    pub max_stuck_sites: usize,
    /// Max SEU sites (channel data rails first, then internal nets).
    pub max_seu_sites: usize,
    /// Upset times per SEU site, evenly spaced across the reference run.
    pub seu_samples: usize,
    /// Max delay-fault gates (deterministic stride over non-transport
    /// gates; transport delay elements own their programmed delay and
    /// ignore the model).
    pub max_delay_sites: usize,
    /// Delay multipliers swept per slowed gate, in increasing order.
    pub delay_mults: Vec<u64>,
    /// Threads running faults, the calling thread included (results
    /// are byte-identical at any value).
    pub threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            run: TokenRunOptions::default(),
            max_stuck_sites: 16,
            max_seu_sites: 8,
            seu_samples: 3,
            max_delay_sites: 8,
            delay_mults: vec![2, 4, 8, 16],
            threads: 1,
        }
    }
}

/// Per-fault-class outcome counts (one table row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSummary {
    /// Faults injected in this class.
    pub faults: usize,
    /// Outcome counts.
    pub masked: usize,
    /// See [`FaultOutcome::GlitchOnly`].
    pub glitch_only: usize,
    /// See [`FaultOutcome::TokenCorrupted`].
    pub corrupted: usize,
    /// See [`FaultOutcome::Deadlocked`].
    pub deadlocked: usize,
    /// See [`FaultOutcome::BudgetExhausted`].
    pub budget_exhausted: usize,
}

/// The fault-class labels, in campaign enumeration order.
pub const FAULT_KINDS: [&str; 4] = ["stuck-at-0", "stuck-at-1", "seu", "delay"];

/// Full campaign result: every classified fault plus the clean
/// reference, with a stable digest for golden pinning.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Netlist name.
    pub design: String,
    /// Classified faults, in enumeration order.
    pub results: Vec<FaultResult>,
    /// End time of the clean reference run.
    pub reference_end: SimTime,
    /// Glitches in the clean reference run.
    pub reference_glitches: usize,
}

impl FaultReport {
    /// Outcome counts for one fault class (`kind` from [`FAULT_KINDS`]).
    #[must_use]
    pub fn summary(&self, kind: &str) -> KindSummary {
        let mut s = KindSummary::default();
        for r in self.results.iter().filter(|r| r.fault.kind() == kind) {
            s.faults += 1;
            match r.outcome {
                FaultOutcome::Masked => s.masked += 1,
                FaultOutcome::GlitchOnly => s.glitch_only += 1,
                FaultOutcome::TokenCorrupted => s.corrupted += 1,
                FaultOutcome::Deadlocked { .. } => s.deadlocked += 1,
                FaultOutcome::BudgetExhausted { .. } => s.budget_exhausted += 1,
            }
        }
        s
    }

    /// The smallest delay multiplier that corrupted a token, if any —
    /// the empirical matched-delay slack boundary. `None` is the QDI
    /// answer: no finite gate slowdown corrupts a delay-insensitive
    /// circuit.
    #[must_use]
    pub fn delay_corruption_threshold(&self) -> Option<u64> {
        self.results
            .iter()
            .filter_map(|r| match (&r.fault, &r.outcome) {
                (Fault::DelayMult { mult, .. }, FaultOutcome::TokenCorrupted) => Some(*mult),
                _ => None,
            })
            .min()
    }

    /// FNV-1a digest over every classified row (site, kind, outcome,
    /// extra glitches). Stable across thread counts and platforms. The
    /// byte stream is unchanged from the historical private loop, so
    /// every digest pinned in `BENCH_faults.json` survives the move to
    /// the shared hasher.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = msaf_artifact::digest::Fnv64::new();
        h.write_str(&self.design);
        for r in &self.results {
            h.write_str("\n");
            h.write_str(r.fault.kind());
            h.write_str("|");
            h.write_str(&r.site);
            h.write_str("|");
            h.write_str(&r.outcome.label());
            h.write_str("|");
            h.write_str(&r.extra_glitches.to_string());
        }
        h.finish()
    }

    /// Renders the per-class campaign table (the `msafc --faults` view).
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>7} {:>7} {:>8} {:>9} {:>7}",
            "fault class", "faults", "masked", "glitch", "corrupt", "deadlock", "budget"
        );
        for kind in FAULT_KINDS {
            let s = self.summary(kind);
            if s.faults == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>7} {:>7} {:>8} {:>9} {:>7}",
                kind,
                s.faults,
                s.masked,
                s.glitch_only,
                s.corrupted,
                s.deadlocked,
                s.budget_exhausted
            );
        }
        let threshold = match self.delay_corruption_threshold() {
            Some(m) => format!("x{m}"),
            None => "none (delay-insensitive)".to_string(),
        };
        let _ = writeln!(out, "  delay-fault corruption threshold: {threshold}");
        let _ = writeln!(out, "  digest: {:#018x}", self.digest());
        out
    }
}

/// A delay model with one slowed gate layered over any base model.
/// Transport (`GateKind::Delay`) gates ignore the model entirely, so
/// delay faults never target them (see [`enumerate_faults`]).
struct DelayFaultModel<'m> {
    base: &'m dyn DelayModel,
    gate: GateId,
    mult: u64,
}

impl DelayModel for DelayFaultModel<'_> {
    fn gate_delay(&self, netlist: &Netlist, gate: GateId, kind: &GateKind) -> u64 {
        let d = self.base.gate_delay(netlist, gate, kind);
        if gate == self.gate {
            d.saturating_mul(self.mult)
        } else {
            d
        }
    }
}

/// Enumerates the campaign's fault list for `netlist`. Deterministic:
/// channel nets in declaration order first (rails, then ack/req — the
/// protocol-visible surface), then a fixed stride over internal gate
/// outputs; SEU times evenly spaced across the reference run's span.
#[must_use]
pub fn enumerate_faults(
    netlist: &Netlist,
    opts: &CampaignOptions,
    reference_end: SimTime,
) -> Vec<Fault> {
    let n_nets = netlist.nets().len();
    let mut in_channel = vec![false; n_nets];
    let mut channel_nets: Vec<NetId> = Vec::new();
    let mut channel_rails: Vec<NetId> = Vec::new();
    for ch in netlist.channels() {
        for &rail in ch.data() {
            if !in_channel[rail.index()] {
                in_channel[rail.index()] = true;
                channel_nets.push(rail);
                channel_rails.push(rail);
            }
        }
        let mut ctl = vec![ch.ack()];
        if let Some(req) = ch.req() {
            ctl.push(req);
        }
        for net in ctl {
            if !in_channel[net.index()] {
                in_channel[net.index()] = true;
                channel_nets.push(net);
            }
        }
    }
    // Internal sites: gate-output nets not already on a channel.
    let internal: Vec<NetId> = netlist
        .iter_nets()
        .filter(|(id, n)| n.driver().is_some() && !in_channel[id.index()])
        .map(|(id, _)| id)
        .collect();

    let take_strided = |pool: &[NetId], want: usize| -> Vec<NetId> {
        if pool.is_empty() || want == 0 {
            return Vec::new();
        }
        let step = (pool.len() / want).max(1);
        pool.iter().step_by(step).take(want).copied().collect()
    };

    let mut faults = Vec::new();

    // Stuck-at: the protocol surface first, padded from internal logic.
    let mut stuck_sites: Vec<NetId> = channel_nets
        .iter()
        .take(opts.max_stuck_sites)
        .copied()
        .collect();
    let pad = opts.max_stuck_sites.saturating_sub(stuck_sites.len());
    stuck_sites.extend(take_strided(&internal, pad));
    for value in [false, true] {
        for &net in &stuck_sites {
            faults.push(Fault::StuckAt { net, value });
        }
    }

    // SEU: data rails first (the paper's encoding carries validity in
    // the data, so rails are where an upset is most interesting).
    let mut seu_sites: Vec<NetId> = channel_rails
        .iter()
        .take(opts.max_seu_sites)
        .copied()
        .collect();
    let pad = opts.max_seu_sites.saturating_sub(seu_sites.len());
    seu_sites.extend(take_strided(&internal, pad));
    let samples = opts.seu_samples.max(1) as u64;
    for &net in &seu_sites {
        for k in 0..samples {
            let at = (reference_end.saturating_mul(k + 1) / (samples + 1)).max(1);
            faults.push(Fault::Seu { net, at });
        }
    }

    // Delay faults: any gate the model prices (transport PDEs excluded).
    let gates: Vec<GateId> = netlist
        .iter_gates()
        .filter(|(_, g)| !matches!(g.kind(), GateKind::Delay(_)))
        .map(|(id, _)| id)
        .collect();
    let delay_sites: Vec<GateId> = if gates.is_empty() || opts.max_delay_sites == 0 {
        Vec::new()
    } else {
        let step = (gates.len() / opts.max_delay_sites).max(1);
        gates
            .iter()
            .step_by(step)
            .take(opts.max_delay_sites)
            .copied()
            .collect()
    };
    for &gate in &delay_sites {
        for &mult in &opts.delay_mults {
            faults.push(Fault::DelayMult { gate, mult });
        }
    }

    faults
}

/// Runs one token-level experiment with `fault` injected.
///
/// # Errors
///
/// Same as [`crate::agents::token_run`]; deadlocks and budget
/// exhaustion carry stall diagnoses.
pub fn token_run_faulted(
    netlist: &Netlist,
    model: &dyn DelayModel,
    inputs: &BTreeMap<String, Vec<u64>>,
    fault: &Fault,
) -> Result<TokenRunReport, TokenRunError> {
    let mut agents = build_agents(netlist, inputs)?;
    let slowed;
    let model: &dyn DelayModel = match *fault {
        Fault::DelayMult { gate, mult } => {
            slowed = DelayFaultModel {
                base: model,
                gate,
                mult,
            };
            &slowed
        }
        _ => model,
    };
    let mut sim = Simulator::new(netlist, model);
    match *fault {
        Fault::StuckAt { net, value } => sim.clamp_net(net, value),
        Fault::Seu { net, at } => sim.schedule_flip(net, at),
        Fault::DelayMult { .. } => {}
    }
    drive_agents(&mut sim, &mut agents)?;
    Ok(collect_report(&sim, &agents))
}

/// Classifies one faulted run against the clean reference.
fn classify(
    result: Result<TokenRunReport, TokenRunError>,
    reference: &TokenRunReport,
) -> Result<(FaultOutcome, u64), TokenRunError> {
    match result {
        Ok(report) => {
            let corrupted = report.outputs.iter().any(|(ch, stream)| {
                reference.outputs.get(ch).map(|r| r.values()) != Some(stream.values())
            });
            if corrupted {
                return Ok((FaultOutcome::TokenCorrupted, 0));
            }
            let extra = report.glitches.saturating_sub(reference.glitches) as u64;
            if extra > 0 || report.violations.len() > reference.violations.len() {
                Ok((FaultOutcome::GlitchOnly, extra))
            } else {
                Ok((FaultOutcome::Masked, 0))
            }
        }
        Err(TokenRunError::Deadlock { stalls, .. }) => {
            let channel = stalls
                .first()
                .map_or_else(|| "?".to_string(), |s| s.channel.clone());
            Ok((FaultOutcome::Deadlocked { channel }, 0))
        }
        Err(TokenRunError::Sim { stalls, .. }) => {
            let channel = stalls.first().map(|s| s.channel.clone());
            Ok((FaultOutcome::BudgetExhausted { channel }, 0))
        }
        Err(e) => Err(e),
    }
}

/// Runs a full fault campaign: one clean reference run, then one run per
/// enumerated fault, each classified against the reference.
///
/// `opts.run.tracer` receives one `fault.injected` / `fault.outcome`
/// event pair per fault, in enumeration order (the coordinator emits
/// after all workers join, so traces are identical at any thread count),
/// inside a `faults.campaign` span. The simulations themselves, the
/// reference included, run untraced.
///
/// # Errors
///
/// Fails only if the *clean reference* run fails (a campaign over a
/// broken design is meaningless); injected-fault failures are
/// classifications, not errors.
pub fn run_campaign(
    netlist: &Netlist,
    model: &(dyn DelayModel + Sync),
    inputs: &BTreeMap<String, Vec<u64>>,
    opts: &CampaignOptions,
) -> Result<FaultReport, TokenRunError> {
    let tracer = &opts.run.tracer;
    let reference = token_run(netlist, model, inputs, &TokenRunOptions::default())?;
    let faults = enumerate_faults(netlist, opts, reference.end_time);
    let span = tracer.span_args("faults.campaign", || {
        vec![
            ("design", netlist.name().to_string().into()),
            ("faults", faults.len().into()),
            ("threads", opts.threads.into()),
        ]
    });

    let n = faults.len();
    let mut slots: Vec<Option<Result<(FaultOutcome, u64), TokenRunError>>> = Vec::new();
    slots.resize_with(n, || None);
    // One worker loop at every thread count: an atomic cursor hands out
    // fault indices, each worker — the coordinator included — collects
    // (index, result) pairs, and the coordinator scatters them into
    // per-index slots, so the result is a pure function of the fault
    // list, never of scheduling. A one-thread campaign spawns nothing.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(fault) = faults.get(i) else {
                break;
            };
            let run = token_run_faulted(netlist, model, inputs, fault);
            local.push((i, classify(run, &reference)));
        }
        local
    };
    let spawned = opts.threads.clamp(1, n.max(1)) - 1;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            done.extend(handle.join().expect("campaign worker panicked"));
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });

    let mut results = Vec::with_capacity(n);
    for (fault, slot) in faults.iter().zip(slots) {
        let (outcome, extra_glitches) = slot.expect("every fault classified")?;
        let site = fault.site(netlist);
        tracer.event("fault.injected", || {
            vec![
                ("kind", fault.kind().to_string().into()),
                ("site", site.clone().into()),
            ]
        });
        tracer.event("fault.outcome", || {
            vec![
                ("site", site.clone().into()),
                ("outcome", outcome.label().into()),
                ("extra_glitches", extra_glitches.into()),
            ]
        });
        results.push(FaultResult {
            fault: *fault,
            site,
            outcome,
            extra_glitches,
        });
    }
    drop(span);

    Ok(FaultReport {
        design: netlist.name().to_string(),
        results,
        reference_end: reference.end_time,
        reference_glitches: reference.glitches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use msaf_netlist::{Channel, ChannelDir, Encoding, Protocol};
    use msaf_trace::Tracer;

    /// The dual-rail identity wire from the agents tests: the simplest
    /// legal QDI circuit, ideal for pinning classification semantics.
    fn dual_rail_wire() -> Netlist {
        let mut nl = Netlist::new("dr_wire");
        let in_t = nl.add_input("in_t");
        let in_f = nl.add_input("in_f");
        let out_ack = nl.add_input("out_ack");
        let (_, t) = nl.add_gate_new(GateKind::Buf, "bt", &[in_t]);
        let (_, f) = nl.add_gate_new(GateKind::Buf, "bf", &[in_f]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        nl.mark_output(t);
        nl.mark_output(f);
        nl.mark_output(ia);
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

    fn wire_inputs() -> BTreeMap<String, Vec<u64>> {
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1, 0, 1]);
        inputs
    }

    #[test]
    fn stuck_ack_deadlocks_and_names_the_channel() {
        let nl = dual_rail_wire();
        let ack = nl.channels()[0].ack();
        let report = token_run_faulted(
            &nl,
            &FixedDelay::new(1),
            &wire_inputs(),
            &Fault::StuckAt {
                net: ack,
                value: false,
            },
        );
        let err = report.unwrap_err();
        assert!(
            err.stalled_channels().contains(&"in"),
            "stuck ack must stall the input channel: {err}"
        );
    }

    /// Satellite 1's pinned rendering: a handshake broken by a stuck-at
    /// fault produces a message naming the channel, the phase, the token
    /// progress and the frontier nets.
    #[test]
    fn deadlock_message_names_channel_and_frontier() {
        let nl = dual_rail_wire();
        let ack = nl.channels()[0].ack();
        let err = token_run_faulted(
            &nl,
            &FixedDelay::new(1),
            &wire_inputs(),
            &Fault::StuckAt {
                net: ack,
                value: false,
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("channel 'in' (producer): 0/3 tokens through, waiting for ack to rise"),
            "diagnosis missing from: {msg}"
        );
        assert!(
            msg.contains("frontier:") && msg.contains("in_t=1") && msg.contains("in_f=0"),
            "frontier nets missing from: {msg}"
        );
    }

    #[test]
    fn clean_campaign_classifies_every_fault() {
        let nl = dual_rail_wire();
        let opts = CampaignOptions {
            delay_mults: vec![2, 8],
            ..CampaignOptions::default()
        };
        let report =
            run_campaign(&nl, &FixedDelay::new(1), &wire_inputs(), &opts).expect("campaign");
        assert!(!report.results.is_empty());
        // The identity wire is QDI: no delay fault may corrupt it.
        assert_eq!(report.summary("delay").corrupted, 0);
        assert_eq!(report.delay_corruption_threshold(), None);
        // Every deadlocked outcome names its stalled channel.
        for r in &report.results {
            if let FaultOutcome::Deadlocked { channel } = &r.outcome {
                assert!(!channel.is_empty() && channel != "?", "{:?}", r);
            }
        }
        // Stuck-at faults on the protocol surface must not be silent:
        // clamping ack or a rail either masks (value already there),
        // deadlocks, or corrupts — the campaign saw at least one
        // deadlock from the ack clamp.
        assert!(report.summary("stuck-at-0").deadlocked >= 1);
    }

    #[test]
    fn campaign_is_byte_identical_across_thread_counts() {
        let nl = dual_rail_wire();
        let mut digests = Vec::new();
        for threads in [1, 4] {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::default()
            };
            let report =
                run_campaign(&nl, &FixedDelay::new(1), &wire_inputs(), &opts).expect("campaign");
            digests.push(report.digest());
        }
        assert_eq!(digests[0], digests[1], "thread count changed the digest");
    }

    #[test]
    fn enumeration_is_stable() {
        let nl = dual_rail_wire();
        let opts = CampaignOptions::default();
        let a = enumerate_faults(&nl, &opts, 100);
        let b = enumerate_faults(&nl, &opts, 100);
        assert_eq!(a, b);
        // Channel surface comes first.
        assert!(matches!(a[0], Fault::StuckAt { value: false, .. }));
    }

    /// The campaign's trace contract (PR-8 conventions): one
    /// `fault.injected` / `fault.outcome` pair per fault, in enumeration
    /// order, inside a `faults.campaign` span — and the recorded
    /// sequence is identical at 1 and 4 worker threads because the
    /// coordinator emits after the joins. The simulations stay untraced:
    /// no `sim.run` span reaches the campaign's recorder.
    #[test]
    fn campaign_trace_events_are_ordered_and_thread_independent() {
        let nl = dual_rail_wire();
        let mut sequences = Vec::new();
        for threads in [1, 4] {
            let (tracer, rec) = Tracer::recorder();
            let opts = CampaignOptions {
                run: TokenRunOptions { tracer },
                threads,
                ..CampaignOptions::default()
            };
            let report =
                run_campaign(&nl, &FixedDelay::new(1), &wire_inputs(), &opts).expect("campaign");
            let events = rec.events();
            assert!(
                events.iter().any(|e| e.name == "faults.campaign"),
                "missing campaign span"
            );
            assert!(
                !events.iter().any(|e| e.name == "sim.run"),
                "{threads} threads: a campaign simulation was traced"
            );
            let pairs: Vec<(String, String)> = events
                .iter()
                .filter(|e| e.name == "fault.injected" || e.name == "fault.outcome")
                .map(|e| {
                    let site = e
                        .args
                        .iter()
                        .find(|(k, _)| *k == "site")
                        .map(|(_, v)| v.to_string())
                        .unwrap_or_default();
                    (e.name.to_string(), site)
                })
                .collect();
            assert_eq!(pairs.len(), 2 * report.results.len());
            // Enumeration order: the i-th injected/outcome pair names the
            // i-th result's site.
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(pairs[2 * i], ("fault.injected".to_string(), r.site.clone()));
                assert_eq!(
                    pairs[2 * i + 1],
                    ("fault.outcome".to_string(), r.site.clone())
                );
            }
            sequences.push(pairs);
        }
        assert_eq!(sequences[0], sequences[1], "trace drifted with threads");
    }
}
