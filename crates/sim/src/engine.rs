//! The event-driven simulation engine.
//!
//! Semantics:
//!
//! * Logic gates use **inertial delay**: a gate whose evaluation changes
//!   schedules its output transition `delay` units later; if the inputs
//!   revert before the transition commits, the pending transition is
//!   cancelled and recorded as a [`Glitch`] (an input pulse shorter than
//!   the gate delay — the physical mechanism behind hazards).
//! * [`msaf_netlist::GateKind::Delay`] gates use **transport delay**: every
//!   input edge is faithfully reproduced `amount` units later, which is how
//!   the fabric's programmable delay element behaves.
//! * State-holding gates (C-elements, latches, feedback-marked LUTs)
//!   evaluate against their *committed* output value, so combinational
//!   loops through them are well-defined.
//!
//! The engine is deterministic: simultaneous events are processed in
//! schedule order (a monotone sequence number breaks ties).
//!
//! # Hot-path design (zero allocation in steady state)
//!
//! Everything the inner loop touches is a dense array indexed by gate or
//! net id, sized once at construction:
//!
//! * fanout traversal reads the netlist's CSR [`FanoutIndex`] instead of
//!   per-net sink `Vec`s (and instead of *collecting* sink ids per event,
//!   as the first engine did);
//! * gate-input gathering uses a fixed inline buffer for gates of ≤ 8
//!   inputs (every fabric primitive) with a persistent spill buffer for
//!   wider completion trees — no per-evaluation `Vec`;
//! * inertial cancellation is **generation-checked**: each gate has at
//!   most one live scheduled transition, identified by its `seq`; a
//!   popped gate-output event is stale iff its seq no longer matches the
//!   gate's pending slot. No `HashSet` of cancelled seqs, no per-cancel
//!   allocation or hashing. Transport (`Delay`) gates are exempt from the
//!   check — they legitimately keep several edges in flight and never
//!   cancel;
//! * pending events live in a two-level timing wheel: O(1) push and pop,
//!   with bitmap occupancy so quiet time is skipped a word at a time.

use crate::delay::DelayModel;
use crate::queue::{Ev, Wheel};
use msaf_netlist::{FanoutIndex, GateId, GateKind, NetId, Netlist};
use msaf_trace::Tracer;

/// How often (in executed timesteps) a tracing simulator emits its
/// progress counters. Power of two so the cadence check is a mask.
const TRACE_CADENCE: u64 = 1024;

/// Simulation timestamp, in abstract delay units.
pub type SimTime = u64;

/// Gates with at most this many inputs evaluate from a stack buffer.
const INLINE_INPUTS: usize = 8;

/// A filtered input pulse: gate `gate` had a scheduled output transition
/// cancelled at `time` because its inputs reverted within one gate delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Glitch {
    /// The gate whose pending transition was cancelled.
    pub gate: GateId,
    /// When the cancellation happened.
    pub time: SimTime,
}

/// Errors from simulation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted before quiescence — the circuit is
    /// oscillating or the budget was too small.
    EventLimit {
        /// The budget that was exhausted.
        limit: u64,
        /// Simulation time reached.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventLimit { limit, at } => {
                write!(f, "event limit {limit} exhausted at t={at} (oscillation?)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    value: bool,
}

/// The simulator. Borrows the netlist; all mutable state lives here.
#[derive(Debug)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    /// CSR net → consuming-gates map (built once from the netlist).
    fanout: FanoutIndex,
    /// Driving gate per net (dense mirror of `Net::driver`).
    driver: Vec<Option<GateId>>,
    /// True for transport-delay gates (exempt from generation checks).
    is_transport: Vec<bool>,
    /// Dense copy of every gate's kind: the evaluation loop must not
    /// touch the netlist's fat `Gate` structs (name, `Vec` pointers).
    kinds: Vec<GateKind>,
    /// Output net per gate (dense mirror of `Gate::output`).
    outputs: Vec<NetId>,
    /// CSR gate → input nets (offsets + one flat array), mirroring
    /// `Gate::inputs` without the per-gate `Vec` indirection.
    in_offsets: Vec<u32>,
    in_nets: Vec<NetId>,
    /// Committed value of every net.
    values: Vec<bool>,
    /// Per-gate propagation delay chosen by the delay model.
    delays: Vec<u64>,
    /// Pending scheduled transition per gate. For inertial gates this is
    /// the gate's *only* live event (generation check identity); for
    /// transport gates it tracks the last scheduled edge (coalescing).
    pending: Vec<Option<Pending>>,
    // Boxed: the wheel carries several KiB of inline slot arrays.
    queue: Box<Wheel>,
    seq: u64,
    now: SimTime,
    glitches: Vec<Glitch>,
    events_processed: u64,
    steps_executed: u64,
    gates_evaluated: u64,
    /// Scratch: gate ids to (re)evaluate after the current timestep.
    dirty: Vec<GateId>,
    dirty_stamp: Vec<u64>,
    stamp: u64,
    /// Spill buffer for gates wider than [`INLINE_INPUTS`].
    wide_inputs: Vec<bool>,
    /// Nets committed during the most recent [`Simulator::step`]
    /// (reusable buffer; drives agent sensitivity filtering).
    changed: Vec<NetId>,
    /// Stuck-at clamps: a clamped net refuses any commit to the opposite
    /// value. Dense per-net; `clamp_count` gates the hot-path check so an
    /// unfaulted run pays one integer compare per commit.
    clamps: Vec<Option<bool>>,
    clamp_count: usize,
    /// Scheduled transient upsets (SEU): at each `(time, net)` the net's
    /// committed value is inverted, bypassing the driver's generation
    /// check — a later driver event may overwrite it, which is exactly
    /// the transient-recovery physics. Kept in insertion order; the list
    /// is tiny (one entry per injected fault), so `step` scans it.
    flips: Vec<(SimTime, NetId)>,
    /// Peak pending-event count seen at any timestep boundary.
    queue_depth_hw: usize,
    /// Flight recorder: progress counters every [`TRACE_CADENCE`]
    /// timesteps. No-op by default; observation only — the event
    /// schedule never depends on it.
    tracer: Tracer,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator over `netlist` with per-gate delays drawn from
    /// `model`, starts every net low (primary inputs and gate outputs
    /// alike: asynchronous circuits reset to the all-neutral state) and
    /// marks all gates for initial evaluation — call
    /// [`Simulator::settle`] (or any run method) to let the circuit power
    /// up.
    #[must_use]
    pub fn new(netlist: &'a Netlist, model: &dyn DelayModel) -> Self {
        let n_nets = netlist.nets().len();
        let n_gates = netlist.gates().len();
        let mut delays = vec![1u64; n_gates];
        let mut is_transport = vec![false; n_gates];
        for (gid, gate) in netlist.iter_gates() {
            delays[gid.index()] = match gate.kind() {
                // Transport elements own their delay.
                GateKind::Delay(amount) => {
                    is_transport[gid.index()] = true;
                    u64::from(*amount).max(1)
                }
                kind => model.gate_delay(netlist, gid, kind).max(1),
            };
        }
        let driver = netlist.iter_nets().map(|(_, n)| n.driver()).collect();
        let total_inputs: usize = netlist.gates().iter().map(|g| g.inputs().len()).sum();
        let mut kinds = Vec::with_capacity(n_gates);
        let mut outputs = Vec::with_capacity(n_gates);
        let mut in_offsets = Vec::with_capacity(n_gates + 1);
        let mut in_nets = Vec::with_capacity(total_inputs);
        in_offsets.push(0);
        for gate in netlist.gates() {
            kinds.push(*gate.kind());
            outputs.push(gate.output());
            in_nets.extend_from_slice(gate.inputs());
            in_offsets.push(u32::try_from(in_nets.len()).expect("input count overflows u32"));
        }
        let mut sim = Self {
            nl: netlist,
            fanout: netlist.fanout_index(),
            driver,
            is_transport,
            kinds,
            outputs,
            in_offsets,
            in_nets,
            values: vec![false; n_nets],
            delays,
            pending: vec![None; n_gates],
            queue: Box::new(Wheel::new()),
            seq: 0,
            now: 0,
            glitches: Vec::new(),
            events_processed: 0,
            steps_executed: 0,
            gates_evaluated: 0,
            dirty: Vec::with_capacity(n_gates),
            dirty_stamp: vec![0; n_gates],
            // Starts at 1 so the zero-initialised dirty stamps are stale.
            stamp: 1,
            wide_inputs: Vec::new(),
            changed: Vec::new(),
            clamps: vec![None; n_nets],
            clamp_count: 0,
            flips: Vec::new(),
            queue_depth_hw: 0,
            tracer: Tracer::default(),
        };
        // Power-up: evaluate every gate once at t=0.
        for (gid, _) in netlist.iter_gates() {
            sim.mark_dirty(gid);
        }
        sim.evaluate_dirty();
        sim
    }

    /// The netlist this simulator runs.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Committed value of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Glitches (inertially filtered pulses) recorded so far.
    #[must_use]
    pub fn glitches(&self) -> &[Glitch] {
        &self.glitches
    }

    /// Total events committed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Timesteps executed so far (calls to [`Simulator::step`] that found
    /// work). Perf diagnostic: events ÷ steps is the activity density the
    /// event queue sees.
    #[must_use]
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Gate evaluations performed so far (dirty-list drains). Perf
    /// diagnostic: evaluations ÷ events measures fanout-induced work.
    #[must_use]
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// Installs a flight recorder: every `TRACE_CADENCE` (1024) executed
    /// timesteps the simulator emits `sim.events`, `sim.queue_depth`
    /// and `sim.glitches` counters. With the default no-op tracer the
    /// only cost is one branch per timestep, and under any sink the
    /// event schedule is byte-identical (tracing never feeds back).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emits a final snapshot of the simulator's effort counters
    /// (events, steps, gate evaluations, glitches, queue high-water,
    /// per-wheel-level peaks) as one `sim.summary` trace event. No-op
    /// without a sink.
    pub fn trace_summary(&self) {
        self.tracer.event("sim.summary", || {
            let d = self.queue.depth_stats();
            vec![
                ("events", self.events_processed.into()),
                ("steps", self.steps_executed.into()),
                ("gates_evaluated", self.gates_evaluated.into()),
                ("glitches", self.glitches.len().into()),
                ("queue_depth_hw", self.queue_depth_hw.into()),
                ("now", self.now.into()),
                ("wheel_near_hw", d.high_water_near.into()),
                ("wheel_far_hw", d.high_water_far.into()),
                ("wheel_overflow_hw", d.high_water_overflow.into()),
            ]
        });
    }

    /// The per-gate delay the model assigned (delay gates report their
    /// programmed amount).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    #[must_use]
    pub fn gate_delay(&self, gate: GateId) -> u64 {
        self.delays[gate.index()]
    }

    /// Schedules primary input `net` to take `value` at `now + delay`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool, delay: u64) {
        assert!(
            self.nl.net(net).is_primary_input(),
            "{net} is not a primary input"
        );
        self.push_event(self.now + delay, net, value);
    }

    #[inline]
    fn push_event(&mut self, time: SimTime, net: NetId, value: bool) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev {
            time,
            seq,
            net,
            value,
        });
        seq
    }

    #[inline]
    fn mark_dirty(&mut self, gate: GateId) {
        if self.dirty_stamp[gate.index()] != self.stamp {
            self.dirty_stamp[gate.index()] = self.stamp;
            self.dirty.push(gate);
        }
    }

    /// Applies one committed net change, returns whether the value changed.
    /// This is the single commit path: stuck-at clamps veto here, so a
    /// clamped net holds its fault value against drivers, primary-input
    /// schedules and SEU flips alike.
    #[inline]
    fn apply(&mut self, net: NetId, value: bool) -> bool {
        if self.values[net.index()] == value {
            return false;
        }
        if self.clamp_count != 0 && self.clamps[net.index()].is_some_and(|v| v != value) {
            return false;
        }
        self.values[net.index()] = value;
        self.changed.push(net);
        true
    }

    /// Clamps `net` to `value` (stuck-at fault): the net takes `value`
    /// now and every future commit to the opposite value is silently
    /// refused at the commit path.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn clamp_net(&mut self, net: NetId, value: bool) {
        if self.clamps[net.index()].is_none() {
            self.clamp_count += 1;
        }
        self.clamps[net.index()] = Some(value);
        // Force the fault value in immediately (the clamp check passes —
        // it only vetoes the *opposite* value) and let fanout react.
        self.stamp += 1;
        if self.apply(net, value) {
            let stamp = self.stamp;
            for &g in self.fanout.gates_of(net) {
                if self.dirty_stamp[g.index()] != stamp {
                    self.dirty_stamp[g.index()] = stamp;
                    self.dirty.push(g);
                }
            }
        }
        self.evaluate_dirty();
    }

    /// Schedules a transient single-event upset: at time `at` the
    /// committed value of `net` is inverted, bypassing the driver's
    /// generation check. A subsequent driver transition may overwrite
    /// the upset (transient recovery); a clamp on the same net masks it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulator's past.
    pub fn schedule_flip(&mut self, net: NetId, at: SimTime) {
        assert!(
            at >= self.now,
            "flip at t={at} is in the past (now={})",
            self.now
        );
        self.flips.push((at, net));
    }

    /// Earliest scheduled SEU flip, if any.
    fn next_flip_time(&self) -> Option<SimTime> {
        self.flips.iter().map(|&(t, _)| t).min()
    }

    /// The nets whose committed value changed during the last
    /// [`Simulator::step`] (empty before the first step and after steps
    /// that only dropped stale events). Environment drivers use this to
    /// skip agents whose sensitivity list saw no activity.
    #[must_use]
    pub fn changed_nets(&self) -> &[NetId] {
        &self.changed
    }

    /// The input nets of `gate`, from the dense CSR copy.
    #[inline]
    fn inputs_of(&self, gid: GateId) -> &[NetId] {
        let i = gid.index();
        &self.in_nets[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Evaluates one gate's target output from committed input values.
    /// Allocation-free: inline buffer for ≤ [`INLINE_INPUTS`] inputs,
    /// persistent spill buffer beyond; reads only dense per-gate arrays,
    /// never the netlist's `Gate` structs.
    #[inline]
    fn eval_gate(&mut self, gid: GateId, committed: bool) -> bool {
        let gi = gid.index();
        let (start, end) = (
            self.in_offsets[gi] as usize,
            self.in_offsets[gi + 1] as usize,
        );
        let ins = &self.in_nets[start..end];
        if ins.len() <= INLINE_INPUTS {
            let mut buf = [false; INLINE_INPUTS];
            for (slot, &n) in buf.iter_mut().zip(ins) {
                *slot = self.values[n.index()];
            }
            self.kinds[gi].eval(&buf[..ins.len()], committed)
        } else {
            let mut wide = std::mem::take(&mut self.wide_inputs);
            wide.clear();
            wide.extend(ins.iter().map(|&n| self.values[n.index()]));
            let target = self.kinds[gi].eval(&wide, committed);
            self.wide_inputs = wide;
            target
        }
    }

    /// Evaluates all dirty gates, scheduling/cancelling output transitions.
    fn evaluate_dirty(&mut self) {
        // Move the list out so iteration does not alias `self`; restored
        // (cleared, capacity kept) afterwards.
        let dirty = std::mem::take(&mut self.dirty);
        self.gates_evaluated += dirty.len() as u64;
        for &gid in &dirty {
            let out = self.outputs[gid.index()];
            let committed = self.values[out.index()];

            if self.is_transport[gid.index()] {
                // Transport: schedule the present input value; dedup against
                // the last scheduled value via pending (transport elements
                // still coalesce identical consecutive levels).
                let input = self.values[self.inputs_of(gid)[0].index()];
                let last_target = self.pending[gid.index()].map_or(committed, |p| p.value);
                if input != last_target {
                    let seq = self.push_event(self.now + self.delays[gid.index()], out, input);
                    self.pending[gid.index()] = Some(Pending { seq, value: input });
                }
                continue;
            }

            let target = self.eval_gate(gid, committed);

            match self.pending[gid.index()] {
                Some(p) if p.value == target => {
                    // Already heading there.
                }
                Some(_) => {
                    // Pending transition contradicted: inertial
                    // cancellation. Clearing the slot *is* the
                    // cancellation — the orphaned event's seq no longer
                    // matches and will be dropped at pop.
                    self.pending[gid.index()] = None;
                    self.glitches.push(Glitch {
                        gate: gid,
                        time: self.now,
                    });
                    if target != committed {
                        let seq = self.push_event(self.now + self.delays[gid.index()], out, target);
                        self.pending[gid.index()] = Some(Pending { seq, value: target });
                    }
                }
                None => {
                    if target != committed {
                        let seq = self.push_event(self.now + self.delays[gid.index()], out, target);
                        self.pending[gid.index()] = Some(Pending { seq, value: target });
                    }
                }
            }
        }
        let mut dirty = dirty;
        dirty.clear();
        self.dirty = dirty;
    }

    /// Processes every event at the next pending timestep.
    ///
    /// Returns `false` when the queue is empty (quiescent).
    pub fn step(&mut self) -> bool {
        let t = match (self.queue.peek_time(), self.next_flip_time()) {
            (Some(q), Some(f)) => q.min(f),
            (Some(q), None) => q,
            (None, Some(f)) => f,
            (None, None) => return false,
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.stamp += 1;
        self.steps_executed += 1;
        self.changed.clear();
        let depth = self.queue.len();
        self.queue_depth_hw = self.queue_depth_hw.max(depth);
        if self.tracer.enabled() && self.steps_executed.is_multiple_of(TRACE_CADENCE) {
            self.tracer.counter("sim.events", self.events_processed);
            self.tracer.counter("sim.queue_depth", depth as u64);
            self.tracer
                .counter("sim.glitches", self.glitches.len() as u64);
        }

        // Injected upsets fire first at their timestep; a driver event at
        // the same instant then wins (instantaneous recovery), which is
        // the conservative reading of a transient fault.
        if !self.flips.is_empty() {
            let mut i = 0;
            while i < self.flips.len() {
                let (at, net) = self.flips[i];
                if at != t {
                    i += 1;
                    continue;
                }
                self.flips.remove(i);
                self.events_processed += 1;
                let upset = !self.values[net.index()];
                if self.apply(net, upset) {
                    let stamp = self.stamp;
                    for &g in self.fanout.gates_of(net) {
                        if self.dirty_stamp[g.index()] != stamp {
                            self.dirty_stamp[g.index()] = stamp;
                            self.dirty.push(g);
                        }
                    }
                }
            }
        }

        while let Some(ev) = self.queue.pop_at(t) {
            // Generation check: a gate-output event is live iff its seq
            // still matches the driver's pending slot (transport gates
            // keep several edges in flight and are exempt; primary-input
            // events have no driver and are always live).
            if let Some(g) = self.driver[ev.net.index()] {
                let gi = g.index();
                if self.is_transport[gi] {
                    if let Some(p) = self.pending[gi] {
                        if p.seq == ev.seq {
                            self.pending[gi] = None;
                        }
                    }
                } else {
                    match self.pending[gi] {
                        Some(p) if p.seq == ev.seq => self.pending[gi] = None,
                        // Stale: superseded or inertially cancelled.
                        _ => continue,
                    }
                }
            }
            self.events_processed += 1;
            if self.apply(ev.net, ev.value) {
                // CSR fanout walk with inlined dirty-marking (a method
                // call would alias the &self.fanout borrow).
                let stamp = self.stamp;
                for &g in self.fanout.gates_of(ev.net) {
                    if self.dirty_stamp[g.index()] != stamp {
                        self.dirty_stamp[g.index()] = stamp;
                        self.dirty.push(g);
                    }
                }
            }
        }
        self.evaluate_dirty();
        true
    }

    /// Runs until the event queue is empty, with an event budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimit`] if more than `max_events` events
    /// commit before quiescence.
    pub fn settle(&mut self, max_events: u64) -> Result<(), SimError> {
        let start = self.events_processed;
        while self.step() {
            if self.events_processed - start > max_events {
                return Err(SimError::EventLimit {
                    limit: max_events,
                    at: self.now,
                });
            }
        }
        Ok(())
    }

    /// True when no events (including scheduled SEU flips) are pending.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty() && self.flips.is_empty()
    }

    /// Time of the next pending event or scheduled SEU flip, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.queue.peek_time(), self.next_flip_time()) {
            (Some(q), Some(f)) => Some(q.min(f)),
            (Some(q), None) => Some(q),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use msaf_netlist::{GateKind, LutTable, Netlist};

    fn settle_all(sim: &mut Simulator<'_>) {
        sim.settle(1_000_000).expect("settles");
    }

    /// Steps to quiescence, counting the commits to `net` on the way.
    fn settle_counting(sim: &mut Simulator<'_>, net: NetId) -> usize {
        let mut commits = 0;
        while sim.step() {
            commits += sim.changed_nets().iter().filter(|&&n| n == net).count();
        }
        commits
    }

    #[test]
    fn inverter_chain_propagates() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let (_, y0) = nl.add_gate_new(GateKind::Not, "n0", &[a]);
        let (_, y1) = nl.add_gate_new(GateKind::Not, "n1", &[y0]);
        nl.mark_output(y1);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(3));
        settle_all(&mut sim);
        assert!(sim.value(y0));
        assert!(!sim.value(y1));
        let t0 = sim.now();
        sim.set_input(a, true, 1);
        settle_all(&mut sim);
        assert!(!sim.value(y0));
        assert!(sim.value(y1));
        // a flips at t0+1, n0 at +3, n1 at +3 more.
        assert_eq!(sim.now(), t0 + 1 + 3 + 3);
    }

    #[test]
    fn celement_waits_for_both() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_gate_new(GateKind::Celement, "c0", &[a, b]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(2));
        settle_all(&mut sim);
        assert!(!sim.value(y));
        sim.set_input(a, true, 0);
        settle_all(&mut sim);
        assert!(!sim.value(y), "one input is not enough");
        sim.set_input(b, true, 0);
        settle_all(&mut sim);
        assert!(sim.value(y));
        sim.set_input(a, false, 0);
        settle_all(&mut sim);
        assert!(sim.value(y), "C-element holds");
        sim.set_input(b, false, 0);
        settle_all(&mut sim);
        assert!(!sim.value(y));
    }

    #[test]
    fn looped_lut_behaves_as_celement() {
        let mut nl = Netlist::new("c_lut");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        let g = nl.add_gate(GateKind::Lut(LutTable::majority3()), "maj", &[a, b, y], y);
        nl.mark_feedback(g);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        sim.set_input(a, true, 0);
        settle_all(&mut sim);
        assert!(!sim.value(y));
        sim.set_input(b, true, 0);
        settle_all(&mut sim);
        assert!(sim.value(y));
        sim.set_input(b, false, 0);
        settle_all(&mut sim);
        assert!(sim.value(y), "looped LUT holds like a C-element");
        sim.set_input(a, false, 0);
        settle_all(&mut sim);
        assert!(!sim.value(y));
    }

    #[test]
    fn inertial_filter_records_glitch() {
        // AND gate with delay 10; pulse of width 2 on one input while the
        // other is high must be swallowed and recorded.
        let mut nl = Netlist::new("glitch");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_gate_new(GateKind::And, "g", &[a, b]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(10));
        settle_all(&mut sim);
        sim.set_input(b, true, 0);
        settle_all(&mut sim);
        sim.set_input(a, true, 0);
        sim.set_input(a, false, 2);
        assert_eq!(
            settle_counting(&mut sim, y),
            0,
            "pulse shorter than gate delay must be filtered"
        );
        assert_eq!(sim.glitches().len(), 1);
    }

    #[test]
    fn transport_delay_passes_short_pulses() {
        let mut nl = Netlist::new("pde");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Delay(10), "d", &[a]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        sim.set_input(a, true, 0);
        sim.set_input(a, false, 2);
        // Both edges arrive, 10 units late each.
        assert_eq!(settle_counting(&mut sim, y), 2);
        assert!(sim.glitches().is_empty());
    }

    #[test]
    fn delay_gate_uses_programmed_amount() {
        let mut nl = Netlist::new("pde2");
        let a = nl.add_input("a");
        let (g, y) = nl.add_gate_new(GateKind::Delay(25), "d", &[a]);
        nl.mark_output(y);
        let sim = Simulator::new(&nl, &FixedDelay::new(1));
        assert_eq!(sim.gate_delay(g), 25);
    }

    #[test]
    fn quiescence_reporting() {
        let mut nl = Netlist::new("q");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        assert!(sim.is_quiescent());
        sim.set_input(a, true, 5);
        assert!(!sim.is_quiescent());
        assert_eq!(sim.next_event_time(), Some(5));
    }

    #[test]
    fn oscillator_hits_event_limit() {
        // Ring oscillator: NOT gate feeding itself via feedback marking —
        // oscillates forever, settle must bail out.
        let mut nl = Netlist::new("ring");
        let y = nl.add_net("y");
        let g = nl.add_gate(GateKind::Not, "inv", &[y], y);
        nl.mark_feedback(g);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        let err = sim.settle(100).unwrap_err();
        assert!(matches!(err, SimError::EventLimit { .. }));
        assert!(err.to_string().contains("oscillation"));
    }

    #[test]
    fn latch_transparency() {
        let mut nl = Netlist::new("latch");
        let en = nl.add_input("en");
        let d = nl.add_input("d");
        let (_, q) = nl.add_gate_new(GateKind::Latch, "l", &[en, d]);
        nl.mark_output(q);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        sim.set_input(d, true, 0);
        settle_all(&mut sim);
        assert!(!sim.value(q), "opaque latch ignores d");
        sim.set_input(en, true, 0);
        settle_all(&mut sim);
        assert!(sim.value(q), "transparent latch passes d");
        sim.set_input(en, false, 0);
        sim.set_input(d, false, 5);
        settle_all(&mut sim);
        assert!(sim.value(q), "closed latch holds");
    }

    #[test]
    fn wide_gate_uses_spill_buffer() {
        // A 12-input AND exceeds the inline buffer; the spill path must
        // produce the same semantics.
        let mut nl = Netlist::new("wide");
        let ins: Vec<_> = (0..12).map(|i| nl.add_input(format!("i{i}"))).collect();
        let (_, y) = nl.add_gate_new(GateKind::And, "and12", &ins);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        assert!(!sim.value(y));
        for &i in &ins {
            sim.set_input(i, true, 1);
        }
        settle_all(&mut sim);
        assert!(sim.value(y));
        sim.set_input(ins[7], false, 1);
        settle_all(&mut sim);
        assert!(!sim.value(y));
    }

    #[test]
    fn clamped_net_holds_against_its_driver() {
        let mut nl = Netlist::new("stuck");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        let (_, z) = nl.add_gate_new(GateKind::Not, "n", &[y]);
        nl.mark_output(z);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(2));
        settle_all(&mut sim);
        sim.clamp_net(y, false);
        sim.set_input(a, true, 1);
        settle_all(&mut sim);
        assert!(!sim.value(y), "stuck-at-0 net must refuse the driver");
        assert!(sim.value(z), "downstream logic sees the fault value");
    }

    #[test]
    fn clamp_forces_value_and_fanout_reacts() {
        let mut nl = Netlist::new("stuck1");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        let (_, z) = nl.add_gate_new(GateKind::Not, "n", &[y]);
        nl.mark_output(z);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(2));
        settle_all(&mut sim);
        assert!(sim.value(z));
        sim.clamp_net(y, true);
        settle_all(&mut sim);
        assert!(sim.value(y), "stuck-at-1 forces the value in immediately");
        assert!(!sim.value(z), "fanout re-evaluates off the fault value");
    }

    #[test]
    fn seu_flip_fires_and_driver_recovers() {
        let mut nl = Netlist::new("seu");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        // Upset with no driver activity: the flip lands and sticks
        // (the buffer's inputs did not change, so nothing restores it
        // until its input wiggles).
        sim.schedule_flip(y, sim.now() + 5);
        assert!(!sim.is_quiescent(), "a pending flip is a pending event");
        assert_eq!(sim.next_event_time(), Some(5));
        settle_all(&mut sim);
        assert!(sim.value(y), "upset committed");
        // The buffer saw its output contradict its input evaluation?
        // No — gates re-evaluate only when *inputs* change; wiggle the
        // input and the driver restores the true value.
        sim.set_input(a, true, 1);
        sim.set_input(a, false, 3);
        settle_all(&mut sim);
        assert!(!sim.value(y), "driver recovered the upset");
    }

    #[test]
    fn clamp_masks_scheduled_flip() {
        let mut nl = Netlist::new("seu_masked");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
        settle_all(&mut sim);
        sim.clamp_net(y, false);
        sim.schedule_flip(y, sim.now() + 2);
        settle_all(&mut sim);
        assert!(!sim.value(y), "clamp vetoes the upset at the commit path");
    }

    #[test]
    fn superseded_transition_is_not_double_committed() {
        // Rapid A→B→A input wiggles on a slow buffer: only genuine level
        // changes commit, and stale events never resurrect old values.
        let mut nl = Netlist::new("wiggle");
        let a = nl.add_input("a");
        let (_, y) = nl.add_gate_new(GateKind::Buf, "b", &[a]);
        nl.mark_output(y);
        let mut sim = Simulator::new(&nl, &FixedDelay::new(4));
        settle_all(&mut sim);
        sim.set_input(a, true, 1);
        sim.set_input(a, false, 3);
        sim.set_input(a, true, 5);
        let commits = settle_counting(&mut sim, y);
        assert!(sim.value(y));
        // The middle pulse (width 2 < delay 4) was inertially filtered.
        assert_eq!(sim.glitches().len(), 1);
        assert_eq!(commits, 1);
    }
}
