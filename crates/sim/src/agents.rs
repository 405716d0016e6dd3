//! The handshake environment for the circuit's [`Channel`] annotations,
//! and [`token_run`], the one-call token-level experiment.
//!
//! Every input channel gets a producer and every output channel a
//! consumer. Both speak the 4-phase protocol the paper's example adders
//! use, written once per role; the styles differ only in how a token sits
//! on the wires (the private `Wires` enum):
//!
//! * **dual-rail / 1-of-N (QDI)**: producer asserts a complete codeword →
//!   consumer raises `ack` → producer returns rails to neutral → consumer
//!   lowers `ack`. Validity is *in* the data (delay-insensitive).
//! * **bundled data (micropipeline)**: producer drives data then raises
//!   `req` → consumer samples data on `req`↑, raises `ack` → producer
//!   lowers `req` → consumer lowers `ack`. Correct sampling relies on the
//!   bundling timing assumption — which the fabric's programmable delay
//!   element must cover.
//!
//! Agents are Moore machines over the nets they watch. One driver runs
//! them: after each simulator timestep it wakes the agents whose watched
//! nets changed, in channel order, and schedules their input changes in
//! that order. [`token_run`] calls it clean; a fault campaign calls it
//! once per fault, with the fault planted between `Simulator::new` and
//! power-up.

use crate::delay::DelayModel;
use crate::diagnose::{render_stalls, StallDiagnosis};
use crate::engine::{SimError, SimTime, Simulator};
use crate::faults::Fault;
use msaf_netlist::{Channel, ChannelDir, Encoding, NetId, Netlist};
use msaf_trace::Tracer;
use std::collections::BTreeMap;

/// Environment response delay between observation and action.
const GAP: u64 = 2;
/// Extra data→req margin applied by bundled producers.
const BUNDLING_SETUP: u64 = 0;
/// Committed-event budget of one run.
const MAX_EVENTS: u64 = 2_000_000;

/// One transferred token: its payload and the time the consumer took it
/// off the wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Decoded payload value.
    pub value: u64,
    /// Simulation time of the observation.
    pub time: SimTime,
}

/// An ordered sequence of tokens observed on one channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenStream {
    /// The tokens in arrival order.
    pub tokens: Vec<Token>,
}

impl TokenStream {
    /// Just the payload values, in order.
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.tokens.iter().map(|t| t.value).collect()
    }
}

/// A protocol violation observed by a consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// Both rails of a dual-rail pair (or two rails of a 1-of-N group)
    /// were high simultaneously.
    NonOneHot {
        /// Channel name.
        channel: String,
        /// Digit index within the channel.
        digit: usize,
        /// When it was observed.
        time: SimTime,
    },
}

/// The `(net, value, delay)` input changes agents schedule in one
/// reaction, in submission order (one buffer, reused every timestep).
type Actions = Vec<(NetId, bool, u64)>;

/// How a token sits on a channel's wires: the only part of the 4-phase
/// handshake that differs between styles.
enum Wires {
    /// Delay-insensitive (dual-rail or 1-of-N): `radix` rails per digit,
    /// least significant digit first, each digit's rails in value order.
    /// A token is valid once every digit has one rail high.
    Rails { rails: Vec<NetId>, radix: usize },
    /// Bundled data, least significant bit first: valid while `req` is
    /// high.
    Bundled { data: Vec<NetId>, req: NetId },
}

impl Wires {
    fn of(ch: &Channel) -> Self {
        let data = ch.data();
        match ch.encoding() {
            // data[2i] is digit i's true rail (value 1), data[2i + 1] its
            // false rail (value 0).
            Encoding::DualRail { width } => Wires::Rails {
                rails: (0..width)
                    .flat_map(|i| [data[2 * i + 1], data[2 * i]])
                    .collect(),
                radix: 2,
            },
            Encoding::OneOfN { n, .. } => Wires::Rails {
                rails: data.to_vec(),
                radix: n,
            },
            Encoding::Bundled { .. } => Wires::Bundled {
                data: data.to_vec(),
                req: ch.req().expect("bundled channel has req"),
            },
        }
    }

    /// The payload wires: every rail, or the bundled data bits.
    fn payload(&self) -> &[NetId] {
        match self {
            Wires::Rails { rails, .. } => rails,
            Wires::Bundled { data, .. } => data,
        }
    }

    /// Puts `value` on the wires: rails digit by digit, each digit's rails
    /// in value order; or the data bits, then `req`.
    fn put(&self, value: u64, actions: &mut Actions) {
        match self {
            Wires::Rails { rails, radix } => {
                let radix = *radix as u64;
                let mut rest = value;
                for digit in rails.chunks(radix as usize) {
                    let d = rest % radix;
                    rest /= radix;
                    for (v, &rail) in digit.iter().enumerate() {
                        actions.push((rail, v as u64 == d, GAP));
                    }
                }
            }
            Wires::Bundled { data, req } => {
                for (bit, &net) in data.iter().enumerate() {
                    actions.push((net, (value >> bit) & 1 == 1, GAP));
                }
                actions.push((*req, true, GAP + BUNDLING_SETUP));
            }
        }
    }

    /// Returns the wires to zero: every rail low, or `req` low.
    fn release(&self, actions: &mut Actions) {
        match self {
            Wires::Rails { rails, .. } => {
                actions.extend(rails.iter().map(|&rail| (rail, false, GAP)));
            }
            Wires::Bundled { req, .. } => actions.push((*req, false, GAP)),
        }
    }

    /// Reads a token off the wires: the complete codeword, or the data
    /// once `req` is high. A digit with two rails high is no token; it is
    /// recorded in `violations`. Called on every wake-up, so it counts
    /// rails in place, without scratch allocation.
    fn take(
        &self,
        sim: &Simulator<'_>,
        channel: &str,
        violations: &mut Vec<ProtocolViolation>,
    ) -> Option<u64> {
        match self {
            Wires::Rails { rails, radix } => {
                let mut value = 0u64;
                let mut scale = 1u64;
                for (digit, group) in rails.chunks(*radix).enumerate() {
                    let mut high_count = 0usize;
                    let mut high_value = 0usize;
                    for (v, &rail) in group.iter().enumerate() {
                        if sim.value(rail) {
                            high_count += 1;
                            high_value = v;
                        }
                    }
                    match high_count {
                        1 => value += high_value as u64 * scale,
                        0 => return None,
                        _ => {
                            violations.push(ProtocolViolation::NonOneHot {
                                channel: channel.to_string(),
                                digit,
                                time: sim.now(),
                            });
                            return None;
                        }
                    }
                    // Wrapping: after the most-significant digit of a
                    // 64-bit channel (e.g. 64 binary digits) the next
                    // scale is 2^64, which is never used but would
                    // overflow the multiply.
                    scale = scale.wrapping_mul(*radix as u64);
                }
                Some(value)
            }
            Wires::Bundled { data, req } => sim.value(*req).then(|| {
                data.iter()
                    .enumerate()
                    .filter(|&(_, &net)| sim.value(net))
                    .fold(0, |value, (bit, _)| value | 1 << bit)
            }),
        }
    }

    /// True once the token is off the wires: every rail low, or `req`
    /// low.
    fn neutral(&self, sim: &Simulator<'_>) -> bool {
        match self {
            Wires::Rails { rails, .. } => rails.iter().all(|&rail| !sim.value(rail)),
            Wires::Bundled { req, .. } => !sim.value(*req),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProducerState {
    SendNext,
    WaitAckHigh,
    WaitAckLow,
    Done,
}

/// 4-phase producer for an input channel: puts a token on the wires,
/// waits for `ack`↑, returns the wires to zero, waits for `ack`↓ (and,
/// bundled, for its own `req`↓), then sends the next token.
struct Producer<'a> {
    channel: &'a str,
    ack: NetId,
    wires: Wires,
    tokens: &'a [u64],
    /// Tokens put on the wires so far.
    sent: usize,
    state: ProducerState,
}

impl<'a> Producer<'a> {
    fn new(ch: &'a Channel, tokens: &'a [u64]) -> Self {
        Self {
            channel: ch.name(),
            ack: ch.ack(),
            wires: Wires::of(ch),
            tokens,
            sent: 0,
            state: ProducerState::SendNext,
        }
    }

    /// `ack`, plus a bundled producer's own `req`, whose fall completes
    /// its return to zero.
    fn watched(&self) -> Vec<NetId> {
        match self.wires {
            Wires::Rails { .. } => vec![self.ack],
            Wires::Bundled { req, .. } => vec![self.ack, req],
        }
    }

    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        match self.state {
            ProducerState::SendNext => {
                if !sim.value(self.ack) {
                    if let Some(&token) = self.tokens.get(self.sent) {
                        self.wires.put(token, actions);
                        self.sent += 1;
                        self.state = ProducerState::WaitAckHigh;
                    } else {
                        self.state = ProducerState::Done;
                    }
                }
            }
            ProducerState::WaitAckHigh => {
                if sim.value(self.ack) {
                    self.wires.release(actions);
                    self.state = ProducerState::WaitAckLow;
                }
            }
            ProducerState::WaitAckLow => {
                let req_low = match self.wires {
                    Wires::Rails { .. } => true,
                    Wires::Bundled { req, .. } => !sim.value(req),
                };
                if !sim.value(self.ack) && req_low {
                    self.state = ProducerState::SendNext;
                    // Immediately try to send in the same reaction.
                    self.react(sim, actions);
                }
            }
            ProducerState::Done => {}
        }
    }

    /// The handshake this producer is blocked in, if any (`None` between
    /// tokens or when done). The frontier is the watched nets, then the
    /// payload.
    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        // A token counts as "through" once its full 4-phase handshake
        // completed; in the WaitAck* states one is still in flight.
        let (waiting_for, in_flight) = match (self.state, &self.wires) {
            (ProducerState::SendNext, _) if self.sent == self.tokens.len() => return None,
            (ProducerState::SendNext, _) => ("waiting for ack to fall before the next token", 0),
            (ProducerState::WaitAckHigh, _) => ("waiting for ack to rise", 1),
            (ProducerState::WaitAckLow, Wires::Rails { .. }) => ("waiting for ack to fall", 1),
            (ProducerState::WaitAckLow, Wires::Bundled { .. }) => {
                ("waiting for ack and req to fall", 1)
            }
            (ProducerState::Done, _) => return None,
        };
        let mut nets = self.watched();
        nets.extend_from_slice(self.wires.payload());
        Some(StallDiagnosis {
            channel: self.channel.to_string(),
            role: "producer",
            waiting_for,
            tokens_done: self.sent - in_flight,
            tokens_expected: Some(self.tokens.len()),
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
}

/// 4-phase consumer for an output channel: takes a token off the wires
/// (trusting the bundling constraint on `req`↑ — wrong samples are
/// exactly what a broken timing assumption produces), raises `ack`,
/// waits for the wires to return to zero, lowers `ack`.
struct Consumer<'a> {
    channel: &'a str,
    ack: NetId,
    wires: Wires,
    /// `ack` is high: waiting for the wires to return to zero.
    acked: bool,
    stream: TokenStream,
    violations: Vec<ProtocolViolation>,
}

impl<'a> Consumer<'a> {
    fn new(ch: &'a Channel) -> Self {
        Self {
            channel: ch.name(),
            ack: ch.ack(),
            wires: Wires::of(ch),
            acked: false,
            stream: TokenStream::default(),
            violations: Vec::new(),
        }
    }

    /// Every rail, or bundled `req`.
    fn watched(&self) -> Vec<NetId> {
        match &self.wires {
            Wires::Rails { rails, .. } => rails.clone(),
            Wires::Bundled { req, .. } => vec![*req],
        }
    }

    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        if !self.acked {
            if let Some(value) = self.wires.take(sim, self.channel, &mut self.violations) {
                self.stream.tokens.push(Token {
                    value,
                    time: sim.now(),
                });
                actions.push((self.ack, true, GAP));
                self.acked = true;
            }
        } else if self.wires.neutral(sim) {
            actions.push((self.ack, false, GAP));
            self.acked = false;
        }
    }

    /// The handshake this consumer is blocked in, if any. The frontier is
    /// the watched nets, then `ack`, then any unwatched payload.
    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        let waiting_for = match (self.acked, &self.wires) {
            // Idle between tokens unless a partial codeword is stuck on
            // the rails (some digit resolved, others never will).
            (false, Wires::Rails { .. }) if !self.wires.neutral(sim) => {
                "waiting for a complete codeword"
            }
            (false, _) => return None,
            (true, Wires::Rails { .. }) => "waiting for rails to return to neutral",
            (true, Wires::Bundled { .. }) => "waiting for req to fall",
        };
        let mut nets = self.watched();
        nets.push(self.ack);
        if let Wires::Bundled { data, .. } = &self.wires {
            nets.extend_from_slice(data);
        }
        Some(StallDiagnosis {
            channel: self.channel.to_string(),
            role: "consumer",
            waiting_for,
            tokens_done: self.stream.tokens.len(),
            tokens_expected: None,
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
}

/// One channel's environment, in channel declaration order.
enum Agent<'a> {
    Producer(Producer<'a>),
    Consumer(Consumer<'a>),
}

// ---------------------------------------------------------------------------
// token_run: the one-call experiment driver
// ---------------------------------------------------------------------------

/// Options for [`token_run`].
#[derive(Debug, Clone, Default)]
pub struct TokenRunOptions {
    /// Flight recorder for the run: a `sim.run` span, the engine's
    /// progress counters (events, queue depth, glitches) on a fixed
    /// timestep cadence, and a final `sim.summary` event with the effort
    /// totals and per-wheel-level queue high-water marks. No-op by
    /// default. Token results are byte-identical with any sink or none:
    /// tracing observes the schedule, it never perturbs it.
    pub tracer: Tracer,
}

/// Errors from [`token_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenRunError {
    /// The circuit stopped responding before all input tokens were
    /// consumed — a handshake deadlock. Each stalled agent contributes a
    /// diagnosis naming the channel, phase and frontier nets.
    Deadlock {
        /// Time of the deadlock.
        at: SimTime,
        /// Per-agent stall diagnoses, in channel declaration order.
        stalls: Vec<StallDiagnosis>,
    },
    /// The underlying simulation failed (event budget exhausted). The
    /// stall watchdog still reports every agent blocked mid-handshake at
    /// the moment the budget ran out.
    Sim {
        /// The engine error.
        error: SimError,
        /// Agents blocked mid-handshake when the budget ran out.
        stalls: Vec<StallDiagnosis>,
    },
    /// `inputs` referenced a channel name not present in the netlist.
    UnknownChannel(String),
    /// An input channel was given no token vector.
    MissingInput(String),
}

impl TokenRunError {
    /// Names of the stalled channels, if this error carries diagnoses.
    #[must_use]
    pub fn stalled_channels(&self) -> Vec<&str> {
        match self {
            TokenRunError::Deadlock { stalls, .. } | TokenRunError::Sim { stalls, .. } => {
                stalls.iter().map(|s| s.channel.as_str()).collect()
            }
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Display for TokenRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenRunError::Deadlock { at, stalls } => {
                write!(f, "handshake deadlock at t={at}: ")?;
                render_stalls(f, stalls)
            }
            TokenRunError::Sim { error, stalls } => {
                write!(f, "simulation failed: {error}")?;
                if !stalls.is_empty() {
                    write!(f, "; stalled: ")?;
                    render_stalls(f, stalls)?;
                }
                Ok(())
            }
            TokenRunError::UnknownChannel(c) => write!(f, "unknown channel '{c}'"),
            TokenRunError::MissingInput(c) => write!(f, "no tokens for input channel '{c}'"),
        }
    }
}

impl std::error::Error for TokenRunError {}

/// Result of a [`token_run`].
#[derive(Debug, Clone)]
pub struct TokenRunReport {
    /// Output channel name → observed token stream.
    pub outputs: BTreeMap<String, TokenStream>,
    /// All protocol violations observed by consumers.
    pub violations: Vec<ProtocolViolation>,
    /// Inertially filtered pulses during the run (hazard indicator).
    pub glitches: usize,
    /// When each glitch happened, in commit order — lets callers
    /// attribute hazards to the token in flight (see
    /// [`crate::ditest::DiReport::glitches_by_value`]).
    pub glitch_times: Vec<SimTime>,
    /// Simulation time when the run went quiescent.
    pub end_time: SimTime,
    /// Committed events.
    pub events: u64,
    /// Timesteps the engine executed (perf diagnostic).
    pub steps: u64,
    /// Gate evaluations the engine performed (perf diagnostic).
    pub evaluations: u64,
}

/// Runs a complete token-level experiment: builds a producer for every
/// input channel (fed from `inputs`) and a consumer for every output
/// channel, simulates to quiescence, and returns the observed streams.
/// The run is recorded on [`TokenRunOptions::tracer`].
///
/// # Errors
///
/// * [`TokenRunError::MissingInput`] / [`TokenRunError::UnknownChannel`]
///   when `inputs` does not match the netlist's input channels;
/// * [`TokenRunError::Deadlock`] when the circuit stops responding;
/// * [`TokenRunError::Sim`] when the event budget is exhausted.
pub fn token_run(
    netlist: &Netlist,
    model: &dyn DelayModel,
    inputs: &BTreeMap<String, Vec<u64>>,
    opts: &TokenRunOptions,
) -> Result<TokenRunReport, TokenRunError> {
    drive(netlist, model, inputs, None, &opts.tracer)
}

/// The one token-run driver behind [`token_run`] and every faulted run
/// of a fault campaign: builds the agents, plants `fault` (if any)
/// between `Simulator::new` and power-up, runs the handshakes and
/// assembles the report. A `sim.run` span and the engine's counters go
/// to `tracer`.
pub(crate) fn drive(
    netlist: &Netlist,
    model: &dyn DelayModel,
    inputs: &BTreeMap<String, Vec<u64>>,
    fault: Option<&Fault>,
    tracer: &Tracer,
) -> Result<TokenRunReport, TokenRunError> {
    let channels = netlist.channels();
    let mut agents = Vec::with_capacity(channels.len());
    for ch in channels {
        agents.push(match ch.dir() {
            ChannelDir::Input => {
                let tokens = inputs
                    .get(ch.name())
                    .ok_or_else(|| TokenRunError::MissingInput(ch.name().to_string()))?;
                Agent::Producer(Producer::new(ch, tokens))
            }
            ChannelDir::Output => Agent::Consumer(Consumer::new(ch)),
        });
    }
    let is_input = |name: &String| {
        channels
            .iter()
            .any(|ch| ch.dir() == ChannelDir::Input && ch.name() == name)
    };
    if let Some(name) = inputs.keys().find(|name| !is_input(name)) {
        return Err(TokenRunError::UnknownChannel(name.clone()));
    }

    let run_span = tracer.span_args("sim.run", || {
        vec![
            ("design", netlist.name().to_string().into()),
            ("agents", agents.len().into()),
        ]
    });
    let mut sim = match fault {
        Some(fault) => fault.simulator(netlist, model),
        None => Simulator::new(netlist, model),
    };
    sim.set_tracer(tracer.clone());
    let handshakes = run_handshakes(&mut sim, &mut agents);
    sim.trace_summary();
    drop(run_span);
    handshakes?;

    let mut outputs = BTreeMap::new();
    let mut violations = Vec::new();
    for agent in agents {
        if let Agent::Consumer(c) = agent {
            outputs.insert(c.channel.to_string(), c.stream);
            violations.extend(c.violations);
        }
    }
    Ok(TokenRunReport {
        outputs,
        violations,
        glitches: sim.glitches().len(),
        glitch_times: sim.glitches().iter().map(|g| g.time).collect(),
        end_time: sim.now(),
        events: sim.events_processed(),
        steps: sim.steps_executed(),
        evaluations: sim.gates_evaluated(),
    })
}

/// Powers the circuit up, then alternates agent reactions with simulator
/// timesteps until every producer is done, the circuit goes quiet with
/// tokens outstanding (a deadlock), or the event budget runs out.
fn run_handshakes(sim: &mut Simulator<'_>, agents: &mut [Agent<'_>]) -> Result<(), TokenRunError> {
    // Let the circuit power up before the environment engages.
    if let Err(error) = sim.settle(MAX_EVENTS) {
        let stalls = stalls(sim, agents);
        return Err(TokenRunError::Sim { error, stalls });
    }

    // Dense per-agent watch masks, built once: the wake test after each
    // timestep is |changed| × |agents| bit reads.
    let n_nets = sim.netlist().nets().len();
    let masks: Vec<Vec<bool>> = agents
        .iter()
        .map(|agent| {
            let watched = match agent {
                Agent::Producer(p) => p.watched(),
                Agent::Consumer(c) => c.watched(),
            };
            let mut mask = vec![false; n_nets];
            for net in watched {
                mask[net.index()] = true;
            }
            mask
        })
        .collect();

    let mut actions = Actions::new();
    let mut wake = vec![true; agents.len()];
    // Set while every agent takes one unconditional look at a quiet
    // circuit (some may have slept through the last timestep) before the
    // run ends.
    let mut last_look = false;
    loop {
        actions.clear();
        for (agent, &woken) in agents.iter_mut().zip(&wake) {
            match agent {
                _ if !woken => {}
                Agent::Producer(p) => p.react(sim, &mut actions),
                Agent::Consumer(c) => c.react(sim, &mut actions),
            }
        }
        if actions.is_empty() && sim.is_quiescent() {
            if last_look {
                let done = agents.iter().all(|agent| match agent {
                    Agent::Producer(p) => p.state == ProducerState::Done,
                    Agent::Consumer(_) => true,
                });
                if done {
                    return Ok(());
                }
                // Stall watchdog: quiescent with tokens outstanding.
                // Every blocked agent names its channel, phase and
                // frontier nets.
                return Err(TokenRunError::Deadlock {
                    at: sim.now(),
                    stalls: stalls(sim, agents),
                });
            }
            wake.fill(true);
            last_look = true;
            continue;
        }
        last_look = false;
        for &(net, value, delay) in &actions {
            sim.set_input(net, value, delay);
        }
        if sim.events_processed() > MAX_EVENTS {
            return Err(TokenRunError::Sim {
                error: SimError::EventLimit {
                    limit: MAX_EVENTS,
                    at: sim.now(),
                },
                stalls: stalls(sim, agents),
            });
        }
        sim.step();
        // Wake an agent iff one of its watched nets just changed.
        for (woken, mask) in wake.iter_mut().zip(&masks) {
            *woken = sim.changed_nets().iter().any(|n| mask[n.index()]);
        }
    }
}

/// Every agent's stall diagnosis, in channel declaration order.
fn stalls(sim: &Simulator<'_>, agents: &[Agent<'_>]) -> Vec<StallDiagnosis> {
    agents
        .iter()
        .filter_map(|agent| match agent {
            Agent::Producer(p) => p.diagnose(sim),
            Agent::Consumer(c) => c.diagnose(sim),
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use msaf_netlist::{GateKind, Netlist, Protocol};

    /// Declares four-phase channel `name` over `data`: bundled bits when
    /// there is a `req`, dual-rail digits (true rail first) otherwise.
    fn channel(
        nl: &mut Netlist,
        name: &str,
        dir: ChannelDir,
        req: Option<NetId>,
        ack: NetId,
        data: Vec<NetId>,
    ) {
        let encoding = match req {
            Some(_) => Encoding::Bundled { width: data.len() },
            None => Encoding::DualRail {
                width: data.len() / 2,
            },
        };
        nl.add_channel(Channel::new(
            name,
            dir,
            Protocol::FourPhase,
            encoding,
            req,
            ack,
            data,
        ));
    }

    /// `values` as the tokens of input channel `in`.
    fn into_in(values: &[u64]) -> BTreeMap<String, Vec<u64>> {
        BTreeMap::from([("in".to_string(), values.to_vec())])
    }

    fn run(
        nl: &Netlist,
        inputs: &BTreeMap<String, Vec<u64>>,
    ) -> Result<TokenRunReport, TokenRunError> {
        token_run(nl, &FixedDelay::new(1), inputs, &TokenRunOptions::default())
    }

    /// A dual-rail 4-phase buffer: out rails = in rails (wires), in.ack
    /// driven by completion of the output side (here: consumer's ack wired
    /// straight back). The simplest legal QDI "circuit": identity.
    pub(crate) fn dual_rail_wire() -> Netlist {
        let mut nl = Netlist::new("dr_wire");
        let in_t = nl.add_input("in_t");
        let in_f = nl.add_input("in_f");
        let out_ack = nl.add_input("out_ack");
        // Completion: the input is acknowledged when the environment acks
        // the output; buffer rails through.
        let (_, t) = nl.add_gate_new(GateKind::Buf, "bt", &[in_t]);
        let (_, f) = nl.add_gate_new(GateKind::Buf, "bf", &[in_f]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for n in [t, f, ia] {
            nl.mark_output(n);
        }
        channel(&mut nl, "in", ChannelDir::Input, None, ia, vec![in_t, in_f]);
        channel(
            &mut nl,
            "out",
            ChannelDir::Output,
            None,
            out_ack,
            vec![t, f],
        );
        nl
    }

    /// A bundled `width`-bit pipe `in` → `out`: data bits buffered, the
    /// output `req` built from the input one by `req_out`, the
    /// consumer's ack looped back as the producer's.
    fn bundled_pipe(width: usize, req_out: impl FnOnce(&mut Netlist, NetId) -> NetId) -> Netlist {
        let mut nl = Netlist::new("bd_pipe");
        let data: Vec<NetId> = (0..width).map(|i| nl.add_input(format!("d{i}"))).collect();
        let req = nl.add_input("req");
        let out_ack = nl.add_input("out_ack");
        let q: Vec<NetId> = data
            .iter()
            .enumerate()
            .map(|(i, &d)| nl.add_gate_new(GateKind::Buf, format!("b{i}"), &[d]).1)
            .collect();
        let qr = req_out(&mut nl, req);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for &n in q.iter().chain([&qr, &ia]) {
            nl.mark_output(n);
        }
        channel(&mut nl, "in", ChannelDir::Input, Some(req), ia, data);
        channel(&mut nl, "out", ChannelDir::Output, Some(qr), out_ack, q);
        nl
    }

    /// `bundled_pipe` with `req` through a 4-unit matched delay.
    pub(crate) fn bundled_wire() -> Netlist {
        bundled_pipe(2, delay4)
    }

    fn delay4(nl: &mut Netlist, req: NetId) -> NetId {
        nl.add_gate_new(GateKind::Delay(4), "dreq", &[req]).1
    }

    #[test]
    fn dual_rail_identity_transfers_tokens() {
        let report = run(&dual_rail_wire(), &into_in(&[1, 0, 1, 1, 0])).expect("runs");
        assert_eq!(report.outputs["out"].values(), vec![1, 0, 1, 1, 0]);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn missing_input_reported() {
        let err = run(&dual_rail_wire(), &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, TokenRunError::MissingInput(_)));
    }

    #[test]
    fn unknown_channel_reported() {
        let mut inputs = into_in(&[1]);
        inputs.insert("bogus".to_string(), vec![1]);
        let err = run(&dual_rail_wire(), &inputs).unwrap_err();
        assert!(matches!(err, TokenRunError::UnknownChannel(_)));
    }

    #[test]
    fn deadlock_detected() {
        // Input ack never rises (tied to constant 0 via a const gate):
        // the producer waits forever on ack↑... actually it waits with
        // rails asserted and the sim goes quiescent -> deadlock.
        let mut nl = Netlist::new("dead");
        let in_t = nl.add_input("in_t");
        let in_f = nl.add_input("in_f");
        let (_, zero) = nl.add_gate_new(GateKind::Const(false), "z", &[]);
        let (_, t) = nl.add_gate_new(GateKind::Buf, "bt", &[in_t]);
        let (_, f) = nl.add_gate_new(GateKind::Buf, "bf", &[in_f]);
        for n in [t, f, zero] {
            nl.mark_output(n);
        }
        channel(
            &mut nl,
            "in",
            ChannelDir::Input,
            None,
            zero,
            vec![in_t, in_f],
        );
        let err = run(&nl, &into_in(&[1, 0])).unwrap_err();
        match &err {
            TokenRunError::Deadlock { stalls, .. } => {
                assert_eq!(err.stalled_channels(), vec!["in"]);
                let stall = &stalls[0];
                assert_eq!(stall.role, "producer");
                assert_eq!(stall.waiting_for, "waiting for ack to rise");
                assert_eq!((stall.tokens_done, stall.tokens_expected), (0, Some(2)));
                // Frontier: ack stuck low, first token's true rail up.
                let vals: Vec<(&str, bool)> = stall
                    .frontier
                    .iter()
                    .map(|n| (n.name.as_str(), n.value))
                    .collect();
                assert!(
                    vals.contains(&("z_y", false)),
                    "ack net in frontier: {vals:?}"
                );
                assert!(
                    vals.contains(&("in_t", true)),
                    "rails in frontier: {vals:?}"
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn bundled_identity_transfers_tokens() {
        let report = run(&bundled_wire(), &into_in(&[3, 1, 2, 0])).expect("runs");
        assert_eq!(report.outputs["out"].values(), vec![3, 1, 2, 0]);
    }

    #[test]
    fn bundled_violation_when_data_slower_than_req() {
        // Data path has a big delay, req path none: the consumer samples
        // stale data -> wrong tokens. This is the bundling-constraint
        // failure mode the PDE exists to prevent.
        let mut nl = Netlist::new("bd_bad");
        let d0 = nl.add_input("d0");
        let req = nl.add_input("req");
        let out_ack = nl.add_input("out_ack");
        let (_, q0) = nl.add_gate_new(GateKind::Delay(50), "slow", &[d0]);
        let (_, qr) = nl.add_gate_new(GateKind::Buf, "fast", &[req]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for n in [q0, qr, ia] {
            nl.mark_output(n);
        }
        channel(&mut nl, "in", ChannelDir::Input, Some(req), ia, vec![d0]);
        channel(
            &mut nl,
            "out",
            ChannelDir::Output,
            Some(qr),
            out_ack,
            vec![q0],
        );
        let report = run(&nl, &into_in(&[1, 0, 1])).expect("runs");
        assert_ne!(
            report.outputs["out"].values(),
            vec![1, 0, 1],
            "broken bundling must corrupt data"
        );
    }

    /// Runs `tokens` into channel `in` and renders the deadlock's stalls.
    fn stalls(nl: &Netlist, tokens: &[u64]) -> Vec<String> {
        match run(nl, &into_in(tokens)) {
            Err(TokenRunError::Deadlock { stalls, .. }) => {
                stalls.iter().map(ToString::to_string).collect()
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    /// Input channel `in` (one dual-rail digit, or one bundled bit) whose
    /// `ack` is the constant `ack`.
    fn const_ack(bundled: bool, ack: bool) -> Netlist {
        let mut nl = Netlist::new("const_ack");
        let (_, k) = nl.add_gate_new(GateKind::Const(ack), "k", &[]);
        nl.mark_output(k);
        if bundled {
            let (d0, req) = (nl.add_input("d0"), nl.add_input("req"));
            channel(&mut nl, "in", ChannelDir::Input, Some(req), k, vec![d0]);
        } else {
            let rails = vec![nl.add_input("in_t"), nl.add_input("in_f")];
            channel(&mut nl, "in", ChannelDir::Input, None, k, rails);
        }
        nl
    }

    /// A set-only latch `y = x | y`: high for good once `x` rises.
    fn hold(nl: &mut Netlist, name: &str, x: NetId) -> NetId {
        let y = nl.add_net(format!("{name}_y"));
        let g = nl.add_gate(GateKind::Or, name, &[x, y], y);
        nl.mark_feedback(g);
        y
    }

    /// A `width`-digit dual-rail pipe `in` → `out`, acked straight back,
    /// whose output rail `i` is `rail(nl, i, input rail i)`.
    fn di_pipe(width: usize, rail: impl Fn(&mut Netlist, usize, NetId) -> NetId) -> Netlist {
        let mut nl = Netlist::new("di_pipe");
        let ins: Vec<NetId> = (0..2 * width)
            .map(|i| nl.add_input(format!("in{i}")))
            .collect();
        let out_ack = nl.add_input("out_ack");
        let outs: Vec<NetId> = ins
            .iter()
            .enumerate()
            .map(|(i, &n)| rail(&mut nl, i, n))
            .collect();
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for &n in outs.iter().chain([&ia]) {
            nl.mark_output(n);
        }
        channel(&mut nl, "in", ChannelDir::Input, None, ia, ins);
        channel(&mut nl, "out", ChannelDir::Output, None, out_ack, outs);
        nl
    }

    /// Every state a producer or consumer can stall in, in both wire
    /// styles, each reached by a real deadlock: nine states, seven phase
    /// texts, each pinned with its token counts and frontier nets.
    #[test]
    fn every_stall_state_is_diagnosed() {
        let buf = |nl: &mut Netlist, i: usize, n: NetId| {
            nl.add_gate_new(GateKind::Buf, format!("b{i}"), &[n]).1
        };
        // Producers stuck on a constant ack: before a handshake (ack
        // high) and inside one (ack low).
        let producer = "channel 'in' (producer): 0/2 tokens through, waiting for ack to";
        for (bundled, ack, want) in [
            (
                false,
                true,
                "fall before the next token; frontier: k_y=1 in_f=0 in_t=0",
            ),
            (false, false, "rise; frontier: k_y=0 in_f=0 in_t=1"),
            (
                true,
                true,
                "fall before the next token; frontier: k_y=1 req=0 d0=0",
            ),
            (true, false, "rise; frontier: k_y=0 req=1 d0=1"),
        ] {
            let want = format!("{producer} {want}");
            assert_eq!(stalls(&const_ack(bundled, ack), &[1, 0]), [want]);
        }
        // The true output rail sticks high once token 1 sets it.
        let held_rail = di_pipe(1, |nl, i, n| {
            if i == 0 {
                hold(nl, "ht", n)
            } else {
                buf(nl, i, n)
            }
        });
        assert_eq!(
            stalls(&held_rail, &[0, 1, 0]),
            [
                "channel 'in' (producer): 1/3 tokens through, waiting for ack to fall; \
                 frontier: ba_y=1 in1=0 in0=0",
                "channel 'out' (consumer): 2 tokens through, waiting for rails to return to \
                 neutral; frontier: b1_y=0 ht_y=1 out_ack=1",
            ]
        );
        // The second output digit's rails are constant 0.
        let dead_digit = di_pipe(2, |nl, i, n| {
            if i < 2 {
                buf(nl, i, n)
            } else {
                nl.add_gate_new(GateKind::Const(false), format!("z{i}"), &[])
                    .1
            }
        });
        assert_eq!(
            stalls(&dead_digit, &[2]),
            [
                "channel 'in' (producer): 0/1 tokens through, waiting for ack to rise; \
                 frontier: ba_y=0 in1=1 in0=0 in3=0 in2=1",
                "channel 'out' (consumer): 0 tokens through, waiting for a complete codeword; \
                 frontier: b1_y=1 b0_y=0 z3_y=0 z2_y=0 out_ack=0",
            ]
        );
        // The output req sticks high once the first token raises it.
        let held_req = bundled_pipe(1, |nl, req| {
            let late = delay4(nl, req);
            hold(nl, "hr", late)
        });
        assert_eq!(
            stalls(&held_req, &[1, 0, 1]),
            [
                "channel 'in' (producer): 0/3 tokens through, waiting for ack and req to fall; \
                 frontier: ba_y=1 req=0 d0=1",
                "channel 'out' (consumer): 1 tokens through, waiting for req to fall; \
                 frontier: hr_y=1 out_ack=1 b0_y=1",
            ]
        );
    }

    /// A producer puts digits on the wires least significant first, each
    /// digit's rails in value order with exactly the digit's rail high.
    #[test]
    fn encode_digits_radix4() {
        let put = |encoding, value| {
            let rails = (0..8).map(NetId::new).collect();
            let ch = Channel::new(
                "c",
                ChannelDir::Input,
                Protocol::FourPhase,
                encoding,
                None,
                NetId::new(8),
                rails,
            );
            let mut actions = Actions::new();
            Wires::of(&ch).put(value, &mut actions);
            let rails: Vec<(usize, bool)> = actions
                .iter()
                .map(|&(n, high, _)| (n.index(), high))
                .collect();
            rails
        };
        // Digits 0, 1, 1, 1; a dual-rail digit's false rail data[2i + 1]
        // comes first.
        assert_eq!(
            put(Encoding::DualRail { width: 4 }, 0b1110),
            [
                (1, true),
                (0, false),
                (3, false),
                (2, true),
                (5, false),
                (4, true),
                (7, false),
                (6, true)
            ]
        );
        // Digits 3, 2.
        assert_eq!(
            put(Encoding::OneOfN { n: 4, digits: 2 }, 11),
            [
                (0, false),
                (1, false),
                (2, false),
                (3, true),
                (4, false),
                (5, false),
                (6, true),
                (7, false)
            ]
        );
    }
}
