//! Static timing analysis over a mapped design, and the criticality
//! source that makes the router timing-driven.
//!
//! Asynchronous circuits have no clock period, but two timing questions
//! remain: (a) how deep is the combinational logic between state-holding
//! elements (reported, and useful to compare styles), and (b) what
//! matched delay must each PDE realise to uphold its bundling constraint
//! (programmed into tap counts by the bit generator). Timing-driven
//! routing adds a third: *which connections can afford a detour?* The
//! bundled-data style in particular lives on matched delays, so the
//! router should spend congestion-induced wirelength on slack-rich nets
//! and keep the critical ones short.
//!
//! # Model
//!
//! The delay model mirrors the simulator's LUT timing: a `k`-input LE
//! function costs `1 + k` units; LUT2 functions cost 1; PDEs cost their
//! programmed amount. Routed interconnect adds **one unit per wire
//! segment** on the source→sink path (the router's
//! [`crate::route::WIRE_DELAY`] — the same unit, so LE and wire delays
//! compose).
//!
//! Launch points (arrival 0) are primary inputs, feedback-LUT outputs,
//! PDE outputs and constants — feedback functions are state-holding
//! endpoints, like registers in synchronous STA. The non-feedback
//! function graph is a DAG, walked **once in topological order**
//! (a Kahn sweep replaces the original O(n²) fixpoint iteration), then
//! once in reverse for required times:
//!
//! * `arrival(s)`  — worst-case delay from any launch point to `s`,
//!   including per-net routed delays when supplied;
//! * `required(s)` — latest time `s` may settle without growing the
//!   critical delay `Dmax` (every signal is initialised to `Dmax`, so
//!   endpoints — feedback/PDE inputs, POs, dead ends — are constrained
//!   exactly by the critical path);
//! * `slack(s) = required(s) − arrival(s)` — non-negative by
//!   construction, zero on the critical path.
//!
//! Criticality is the VPR normalisation `crit = 1 − slack / Dmax`,
//! clamped to `[0, 1]`. A *connection* (one net, one routed sink)
//! refines the net's signal slack by how far that sink's routed delay
//! sits below the net's worst sink: `slack(conn) = slack(s) +
//! (net_delay(s) − delay(conn))` — sinks that route shorter than the
//! worst one earn extra slack, so criticalities are genuinely
//! per-connection even though the arrival/required sweep prices each
//! net at its worst sink.

use crate::route::{RouteRequest, TimingSource, WIRE_DELAY};
use crate::techmap::{MappedDesign, SignalId};
use msaf_fabric::le::LeOutput;
use msaf_trace::Tracer;

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Combinational depth in LE levels (longest chain of non-feedback
    /// functions).
    pub levels: usize,
    /// Estimated critical combinational delay (LE delay units).
    pub critical_delay: u64,
    /// Name of the signal ending the critical path. Ties are broken by
    /// signal index, so the report is deterministic across runs.
    pub critical_signal: Option<String>,
}

/// Delay of one LE function under the analysis model.
fn func_delay(tap: LeOutput, arity: usize) -> u64 {
    match tap {
        LeOutput::Lut2 => 1,
        _ => 1 + arity as u64,
    }
}

/// The non-feedback function DAG of a mapped design in topological
/// order — build once, [`TimingGraph::analyze`] many times (the router
/// re-analyzes between PathFinder iterations with fresh routed delays).
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// `(le, func)` indices of every non-feedback function, in a
    /// deterministic topological order (Kahn seeded and drained in
    /// function-index order). Functions on a combinational cycle (the
    /// techmap leaves ring oscillators alone) never reach in-degree
    /// zero and are excluded — exactly the signals the original
    /// fixpoint sweep left unresolved.
    order: Vec<(usize, usize)>,
    /// Signal count (for sizing the analysis arrays).
    signals: usize,
}

impl TimingGraph {
    /// Builds the topological order over `design`'s non-feedback
    /// functions.
    #[must_use]
    pub fn build(design: &MappedDesign) -> Self {
        let n = design.signal_names.len();
        // signal -> producing non-feedback function (flat index).
        let mut producer_func: Vec<Option<usize>> = vec![None; n];
        let mut funcs: Vec<(usize, usize)> = Vec::new();
        for (li, le) in design.les.iter().enumerate() {
            for (fi, f) in le.funcs.iter().enumerate() {
                if f.feedback {
                    continue;
                }
                producer_func[f.output.index()] = Some(funcs.len());
                funcs.push((li, fi));
            }
        }
        let mut indeg = vec![0usize; funcs.len()];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); funcs.len()];
        for (qi, &(li, fi)) in funcs.iter().enumerate() {
            for s in &design.les[li].funcs[fi].inputs {
                if let Some(p) = producer_func[s.index()] {
                    indeg[qi] += 1;
                    consumers[p].push(qi);
                }
            }
        }
        // Kahn: FIFO drained in index order for determinism.
        let mut queue: std::collections::VecDeque<usize> =
            (0..funcs.len()).filter(|&qi| indeg[qi] == 0).collect();
        let mut order = Vec::with_capacity(funcs.len());
        while let Some(qi) = queue.pop_front() {
            order.push(funcs[qi]);
            for &c in &consumers[qi] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        Self { order, signals: n }
    }

    /// Forward + backward sweep in topological order.
    ///
    /// `net_delay[s]` is the routed interconnect delay charged on every
    /// fanout edge of signal `s` (the net's worst sink; zero for the
    /// pre-route estimate). Pass an all-zero slice for pure
    /// combinational analysis.
    ///
    /// # Panics
    ///
    /// Panics when `net_delay` is not sized to the design's signal
    /// count.
    #[must_use]
    pub fn analyze(&self, design: &MappedDesign, net_delay: &[u64]) -> SlackAnalysis {
        assert_eq!(net_delay.len(), self.signals, "net_delay size mismatch");
        let n = self.signals;
        let mut arrival = vec![0u64; n];
        let mut levels_of = vec![0usize; n];
        for &(li, fi) in &self.order {
            let f = &design.les[li].funcs[fi];
            let d = func_delay(f.tap, f.inputs.len());
            let mut worst = 0u64;
            let mut lv = 0usize;
            for s in &f.inputs {
                let i = s.index();
                worst = worst.max(arrival[i] + net_delay[i]);
                lv = lv.max(levels_of[i]);
            }
            arrival[f.output.index()] = worst + d;
            levels_of[f.output.index()] = lv + 1;
        }

        let (mut critical_delay, mut critical_signal, mut levels) = (0u64, None, 0usize);
        for (s, &t) in arrival.iter().enumerate() {
            // Strict `>`: ties resolve to the smallest signal index.
            if t > critical_delay {
                critical_delay = t;
                critical_signal = Some(s);
            }
            levels = levels.max(levels_of[s]);
        }

        // Backward sweep. Initialising *every* signal to Dmax makes all
        // endpoints (feedback/PDE inputs, POs, dead ends) constrained by
        // the critical path; mid-cone signals then tighten to
        // `Dmax − worst downstream delay`, which is ≥ arrival — so slack
        // is non-negative everywhere and exactly zero on the critical
        // path.
        let mut required = vec![critical_delay; n];
        for &(li, fi) in self.order.iter().rev() {
            let f = &design.les[li].funcs[fi];
            let d = func_delay(f.tap, f.inputs.len());
            let r_out = required[f.output.index()];
            for s in &f.inputs {
                let i = s.index();
                required[i] = required[i].min(r_out.saturating_sub(d + net_delay[i]));
            }
        }

        SlackAnalysis {
            arrival,
            required,
            levels,
            critical_delay,
            critical_signal,
        }
    }
}

/// Per-signal arrival/required/slack sweep over a mapped design — the
/// product of [`TimingGraph::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlackAnalysis {
    /// Worst-case arrival time per signal (LE delay units), indexed by
    /// [`SignalId::index`].
    pub arrival: Vec<u64>,
    /// Latest admissible settle time per signal.
    pub required: Vec<u64>,
    /// Combinational depth in LE levels.
    pub levels: usize,
    /// The critical delay `Dmax` (worst arrival anywhere).
    pub critical_delay: u64,
    /// Index of the signal ending the critical path (ties broken by
    /// signal index; `None` for a zero-delay design).
    pub critical_signal: Option<usize>,
}

impl SlackAnalysis {
    /// Slack of `signal`: `required − arrival`, non-negative by
    /// construction (saturating, defensively).
    #[must_use]
    pub fn slack(&self, signal: usize) -> u64 {
        self.required[signal].saturating_sub(self.arrival[signal])
    }

    /// VPR-style criticality of `signal`: `1 − slack / Dmax`, clamped
    /// to `[0, 1]` (zero for a zero-delay design).
    #[must_use]
    pub fn criticality(&self, signal: usize) -> f64 {
        crit_of(self.slack(signal), self.critical_delay)
    }

    /// Converts to the flow-level [`TimingReport`].
    #[must_use]
    pub fn to_report(&self, design: &MappedDesign) -> TimingReport {
        TimingReport {
            levels: self.levels,
            critical_delay: self.critical_delay,
            critical_signal: self.critical_signal.map(|s| design.signal_names[s].clone()),
        }
    }
}

/// `1 − slack / Dmax`, clamped to `[0, 1]`.
fn crit_of(slack: u64, dmax: u64) -> f64 {
    if dmax == 0 {
        return 0.0;
    }
    (1.0 - slack as f64 / dmax as f64).clamp(0.0, 1.0)
}

/// Computes arrival times over the mapped design, cutting feedback
/// functions (they are state-holding endpoints, like registers in
/// synchronous STA).
#[must_use]
pub fn analyze(design: &MappedDesign) -> TimingReport {
    let graph = TimingGraph::build(design);
    let zeros = vec![0u64; design.signal_names.len()];
    graph.analyze(design, &zeros).to_report(design)
}

/// The headline numbers of one timing-driven routing run, for reports
/// and the `BENCH_cad.json` timing rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingSummary {
    /// Critical delay of the pure combinational analysis (no routed
    /// delays — the lower bound any routing can only approach).
    pub pre_route_critical_delay: u64,
    /// Critical delay including the final routed interconnect delays.
    pub post_route_critical_delay: u64,
    /// Worst (smallest) slack across all routed connections after the
    /// final update.
    pub worst_slack: u64,
    /// Per-net criticality histogram (a net's criticality is its worst
    /// sink's): ten buckets of width 0.1, `[0.0,0.1)` … `[0.9,1.0]`.
    pub crit_histogram: [usize; 10],
}

impl std::fmt::Display for TimingSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "critical delay {} pre-route / {} routed, worst slack {}, {} nets at crit >= 0.9",
            self.pre_route_critical_delay,
            self.post_route_critical_delay,
            self.worst_slack,
            self.crit_histogram[9]
        )
    }
}

/// The concrete [`TimingSource`] the flow and the benchmarks feed to
/// [`crate::route::route_timed`]: per-connection criticalities from the
/// signal-level slack sweep, refreshed from actual routed delays after
/// every PathFinder iteration.
#[derive(Debug)]
pub struct RouteTimingCtx<'a> {
    design: &'a MappedDesign,
    graph: TimingGraph,
    /// Per route request: the signal the net carries.
    signals: Vec<SignalId>,
    /// Per request, per sink (aligned with `RouteRequest::sinks`).
    crit: Vec<Vec<f64>>,
    /// Scratch: per-signal worst routed sink delay.
    net_delay: Vec<u64>,
    /// Last analysis (pre-route until the first update).
    analysis: SlackAnalysis,
    worst_conn_slack: u64,
    /// The pre-route (zero-delay) analysis as a flow-level report.
    pre_report: TimingReport,
    /// `Dmax` after each update (index 0 = pre-route estimate).
    critical_delay_history: Vec<u64>,
    /// Routed delay (worst sink) of the pre-route most-critical routed
    /// net, recorded at each update — the observable the timing-driven
    /// cost exists to shrink.
    critical_net_delay_history: Vec<u64>,
    /// Request index of that net.
    critical_request: Option<usize>,
    /// Flight recorder: one `timing.sweep` span per [`update`] call.
    /// No-op by default; observation only (never read back).
    ///
    /// [`update`]: TimingSource::update
    tracer: Tracer,
}

impl<'a> RouteTimingCtx<'a> {
    /// Builds the context for routing `requests`, whose nets carry
    /// `request_signals` (parallel slices — see
    /// [`crate::bitgen::Binding::request_signals`]). Runs the pre-route
    /// (zero-delay) analysis immediately, so criticalities are ready
    /// for the first PathFinder iteration.
    ///
    /// # Panics
    ///
    /// Panics when the two slices disagree in length.
    #[must_use]
    pub fn new(
        design: &'a MappedDesign,
        requests: &[RouteRequest],
        request_signals: &[SignalId],
    ) -> Self {
        Self::with_graph(
            TimingGraph::build(design),
            design,
            requests,
            request_signals,
        )
    }

    /// Like [`RouteTimingCtx::new`], with a pre-built [`TimingGraph`]
    /// (the graph depends only on the design, so callers that route the
    /// same design repeatedly — the flow's channel-widening retries —
    /// build it once and clone).
    ///
    /// # Panics
    ///
    /// Panics when `requests` and `request_signals` disagree in length.
    #[must_use]
    pub fn with_graph(
        graph: TimingGraph,
        design: &'a MappedDesign,
        requests: &[RouteRequest],
        request_signals: &[SignalId],
    ) -> Self {
        assert_eq!(
            requests.len(),
            request_signals.len(),
            "one signal per route request"
        );
        let net_delay = vec![0u64; design.signal_names.len()];
        let analysis = graph.analyze(design, &net_delay);
        let crit: Vec<Vec<f64>> = requests
            .iter()
            .zip(request_signals)
            .map(|(req, s)| vec![analysis.criticality(s.index()); req.sinks.len()])
            .collect();
        // The most critical routed net (ties → lowest request index)
        // whose delay trajectory the histories track.
        let critical_request = crit
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .max_by(|(ai, a), (bi, b)| {
                a[0].total_cmp(&b[0]).then(bi.cmp(ai)) // ties: earlier wins
            })
            .map(|(ri, _)| ri);
        let worst_conn_slack = request_signals
            .iter()
            .map(|s| analysis.slack(s.index()))
            .min()
            .unwrap_or(0);
        let pre = analysis.critical_delay;
        let pre_report = analysis.to_report(design);
        Self {
            design,
            graph,
            signals: request_signals.to_vec(),
            crit,
            net_delay,
            analysis,
            worst_conn_slack,
            pre_report,
            critical_delay_history: vec![pre],
            critical_net_delay_history: Vec::new(),
            critical_request,
            tracer: Tracer::default(),
        }
    }

    /// Installs a flight recorder: each slack sweep (one per PathFinder
    /// iteration) emits a `timing.sweep` span carrying the resulting
    /// critical delay and worst connection slack. The analysis itself
    /// is oblivious to the tracer — results are identical with or
    /// without one.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The pre-route (zero-delay) analysis as the flow-level
    /// [`TimingReport`] — the same numbers [`analyze`] produces, with
    /// no second sweep.
    #[must_use]
    pub fn pre_route_report(&self) -> &TimingReport {
        &self.pre_report
    }

    /// The last completed analysis (pre-route until the router's first
    /// iteration finishes).
    #[must_use]
    pub fn analysis(&self) -> &SlackAnalysis {
        &self.analysis
    }

    /// `Dmax` after each slack recomputation; index 0 is the pre-route
    /// estimate, each later entry follows one PathFinder iteration.
    #[must_use]
    pub fn critical_delay_history(&self) -> &[u64] {
        &self.critical_delay_history
    }

    /// Routed delay (worst sink) of the pre-route most-critical net,
    /// one entry per PathFinder iteration.
    #[must_use]
    pub fn critical_net_delay_history(&self) -> &[u64] {
        &self.critical_net_delay_history
    }

    /// Summary of the run so far (pre-route numbers until the router
    /// reports its first iteration).
    #[must_use]
    pub fn summary(&self) -> TimingSummary {
        let mut crit_histogram = [0usize; 10];
        for c in &self.crit {
            let net_crit = c.iter().fold(0.0f64, |a, &b| a.max(b));
            let bucket = ((net_crit * 10.0) as usize).min(9);
            crit_histogram[bucket] += 1;
        }
        TimingSummary {
            pre_route_critical_delay: self.pre_report.critical_delay,
            post_route_critical_delay: self.analysis.critical_delay,
            worst_slack: self.worst_conn_slack,
            crit_histogram,
        }
    }
}

impl TimingSource for RouteTimingCtx<'_> {
    fn update(&mut self, delays: &[Vec<u64>]) {
        assert_eq!(delays.len(), self.signals.len(), "one delay row per net");
        let sweep = self.tracer.span("timing.sweep");
        // Worst sink delay per signal (requests are per-signal unique,
        // but max-merge is robust to duplicates).
        self.net_delay.fill(0);
        for (ds, s) in delays.iter().zip(&self.signals) {
            let worst = ds.iter().copied().max().unwrap_or(0) * WIRE_DELAY;
            let slot = &mut self.net_delay[s.index()];
            *slot = (*slot).max(worst);
        }
        let analysis = self.graph.analyze(self.design, &self.net_delay);

        // Per-connection criticalities: a sink routed shorter than the
        // net's worst earns the difference as extra slack.
        let mut worst_conn_slack = u64::MAX;
        for (ri, ds) in delays.iter().enumerate() {
            let s = self.signals[ri].index();
            let net_slack = analysis.slack(s);
            let net_worst = self.net_delay[s];
            for (si, &d) in ds.iter().enumerate() {
                let conn_slack = net_slack + (net_worst - d * WIRE_DELAY);
                self.crit[ri][si] = crit_of(conn_slack, analysis.critical_delay);
                worst_conn_slack = worst_conn_slack.min(conn_slack);
            }
        }
        if worst_conn_slack == u64::MAX {
            worst_conn_slack = 0; // no routed connections at all
        }

        self.critical_delay_history.push(analysis.critical_delay);
        if let Some(ri) = self.critical_request {
            self.critical_net_delay_history
                .push(delays[ri].iter().copied().max().unwrap_or(0) * WIRE_DELAY);
        }
        self.worst_conn_slack = worst_conn_slack;
        self.analysis = analysis;
        self.tracer.event("timing.sweep_result", || {
            vec![
                ("critical_delay", self.analysis.critical_delay.into()),
                ("worst_conn_slack", self.worst_conn_slack.into()),
                ("nets", self.signals.len().into()),
            ]
        });
        drop(sweep);
    }

    fn crit(&self, request: usize) -> &[f64] {
        &self.crit[request]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::techmap::map;
    use msaf_cells::adders::{bundled_ripple_adder, suggested_bundled_adder_delay};
    use msaf_cells::fulladder::qdi_full_adder;
    use msaf_fabric::arch::ArchSpec;
    use msaf_netlist::{GateKind, Netlist};

    #[test]
    fn qdi_fa_depth() {
        let mapped = map(&qdi_full_adder(), &ArchSpec::paper(4, 4)).unwrap();
        let report = analyze(&mapped);
        // Minterm C-elements are launch points; the OR network behind
        // them is 1-2 levels deep.
        assert!(report.levels >= 1 && report.levels <= 3, "{report:?}");
        assert!(report.critical_delay > 0);
        assert!(report.critical_signal.is_some());
    }

    #[test]
    fn deeper_adders_have_longer_paths() {
        let arch = ArchSpec::paper(8, 8);
        let d4 = analyze(
            &map(
                &bundled_ripple_adder(4, suggested_bundled_adder_delay(4)),
                &arch,
            )
            .unwrap(),
        );
        let d8 = analyze(
            &map(
                &bundled_ripple_adder(8, suggested_bundled_adder_delay(8)),
                &arch,
            )
            .unwrap(),
        );
        assert!(
            d8.critical_delay > d4.critical_delay,
            "8-bit ripple {} must exceed 4-bit {}",
            d8.critical_delay,
            d4.critical_delay
        );
        assert!(d8.levels > d4.levels);
    }

    #[test]
    fn empty_design_reports_zero() {
        let mut nl = msaf_netlist::Netlist::new("empty");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(msaf_netlist::GateKind::Buf, "b", &[a]);
        nl.mark_output(y);
        let mapped = map(&nl, &ArchSpec::paper(2, 2)).unwrap();
        let report = analyze(&mapped);
        assert_eq!(report.levels, 1); // the kept passthrough LUT1
    }

    /// Two structurally identical, equal-delay paths: the critical
    /// signal must resolve to the lower signal index, not whatever a
    /// `HashMap` iterator produced first (the original implementation's
    /// nondeterminism).
    #[test]
    fn critical_signal_tie_breaks_by_signal_index() {
        let mut nl = Netlist::new("tie");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, x) = nl.add_gate_new(GateKind::And, "gx", &[a, b]);
        let (_, y) = nl.add_gate_new(GateKind::Or, "gy", &[a, b]);
        nl.mark_output(x);
        nl.mark_output(y);
        let mapped = map(&nl, &ArchSpec::paper(2, 2)).unwrap();
        let report = analyze(&mapped);
        // Both outputs arrive at the same time; the winner is the one
        // with the smaller signal index.
        let graph = TimingGraph::build(&mapped);
        let zeros = vec![0u64; mapped.signal_names.len()];
        let sa = graph.analyze(&mapped, &zeros);
        let winner = sa.critical_signal.expect("nonzero delay");
        for (s, &t) in sa.arrival.iter().enumerate() {
            if t == sa.critical_delay {
                assert!(winner <= s, "tie must resolve to the lowest index");
            }
        }
        // And repeated analyses agree exactly (regression for the
        // HashMap-iteration nondeterminism).
        for _ in 0..8 {
            assert_eq!(analyze(&mapped), report);
        }
    }

    #[test]
    fn slack_invariants_hold() {
        let mapped = map(&qdi_full_adder(), &ArchSpec::paper(4, 4)).unwrap();
        let graph = TimingGraph::build(&mapped);
        let zeros = vec![0u64; mapped.signal_names.len()];
        let sa = graph.analyze(&mapped, &zeros);
        assert!(sa.critical_delay > 0);
        let mut zero_slack_seen = false;
        for s in 0..mapped.signal_names.len() {
            assert!(
                sa.required[s] >= sa.arrival[s],
                "slack must be non-negative at {s}"
            );
            assert!(sa.required[s] <= sa.critical_delay);
            let c = sa.criticality(s);
            assert!((0.0..=1.0).contains(&c), "criticality {c} out of range");
            if sa.slack(s) == 0 && sa.arrival[s] == sa.critical_delay {
                zero_slack_seen = true;
                assert_eq!(c, 1.0, "the critical endpoint has criticality 1");
            }
        }
        assert!(zero_slack_seen, "the critical path must have zero slack");
    }

    #[test]
    fn net_delays_shift_the_critical_path() {
        let mapped = map(&qdi_full_adder(), &ArchSpec::paper(4, 4)).unwrap();
        let graph = TimingGraph::build(&mapped);
        let zeros = vec![0u64; mapped.signal_names.len()];
        let base = graph.analyze(&mapped, &zeros);
        // Charging a big routed delay on the critical signal's fanout
        // deepens the critical delay only if the signal *has*
        // combinational fanout; charging every net certainly does.
        let all = vec![5u64; mapped.signal_names.len()];
        let routed = graph.analyze(&mapped, &all);
        assert!(
            routed.critical_delay > base.critical_delay,
            "routed {} must exceed unrouted {}",
            routed.critical_delay,
            base.critical_delay
        );
        // Invariants survive net delays too.
        for s in 0..mapped.signal_names.len() {
            assert!(routed.required[s] >= routed.arrival[s]);
            let c = routed.criticality(s);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn topological_sweep_matches_fixpoint_reference() {
        // The new single-sweep analysis must agree with a brute-force
        // fixpoint (the original implementation's recurrence) on real
        // designs.
        for nl in [
            qdi_full_adder(),
            bundled_ripple_adder(4, suggested_bundled_adder_delay(4)),
        ] {
            let mapped = map(&nl, &ArchSpec::paper(8, 8)).unwrap();
            let graph = TimingGraph::build(&mapped);
            let zeros = vec![0u64; mapped.signal_names.len()];
            let sa = graph.analyze(&mapped, &zeros);
            // Brute force: iterate the recurrence until nothing changes.
            let n = mapped.signal_names.len();
            let mut arrival = vec![0u64; n];
            loop {
                let mut changed = false;
                for le in &mapped.les {
                    for f in le.funcs.iter().filter(|f| !f.feedback) {
                        let worst = f
                            .inputs
                            .iter()
                            .map(|s| arrival[s.index()])
                            .max()
                            .unwrap_or(0);
                        let t = worst + func_delay(f.tap, f.inputs.len());
                        if arrival[f.output.index()] != t {
                            arrival[f.output.index()] = t;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            assert_eq!(sa.arrival, arrival, "{}", mapped.name);
            assert_eq!(sa.critical_delay, arrival.iter().copied().max().unwrap());
        }
    }

    #[test]
    fn launch_points_classified() {
        let mapped = map(&qdi_full_adder(), &ArchSpec::paper(4, 4)).unwrap();
        let zeros = vec![0u64; mapped.signal_names.len()];
        let sa = TimingGraph::build(&mapped).analyze(&mapped, &zeros);
        for &pi in &mapped.pis {
            assert_eq!(sa.arrival[pi.index()], 0);
        }
        // Every feedback output is a launch point.
        let mut feedback = 0;
        for f in mapped.les.iter().flat_map(|le| &le.funcs) {
            if f.feedback {
                assert_eq!(sa.arrival[f.output.index()], 0);
                feedback += 1;
            }
        }
        assert!(
            feedback > 0,
            "a QDI full adder holds state in feedback LUTs"
        );
    }
}
