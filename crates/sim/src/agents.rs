//! Handshake environment agents: token producers, consumers and protocol
//! monitors for the circuit's [`Channel`] annotations, plus [`token_run`],
//! the one-call token-level experiment driver.
//!
//! Agents are cooperative state machines invoked after every simulation
//! timestep; they observe net values and schedule primary-input changes.
//! The 4-phase protocol implemented here is the one both example adders in
//! the paper use:
//!
//! * **dual-rail / 1-of-N (QDI)**: producer asserts a complete codeword →
//!   consumer raises `ack` → producer returns rails to neutral → consumer
//!   lowers `ack`. Validity is *in* the data (delay-insensitive).
//! * **bundled data (micropipeline)**: producer drives data then raises
//!   `req` → consumer samples data on `req`↑, raises `ack` → producer
//!   lowers `req` → consumer lowers `ack`. Correct sampling relies on the
//!   bundling timing assumption — which the fabric's programmable delay
//!   element must cover.

use crate::delay::DelayModel;
use crate::diagnose::{render_stalls, StallDiagnosis};
use crate::engine::{SimError, SimTime, Simulator};
use msaf_netlist::{Channel, ChannelDir, Encoding, NetId, Netlist};
use msaf_trace::Tracer;
use std::collections::{BTreeMap, VecDeque};

/// Environment response delay between observation and action.
const GAP: u64 = 2;
/// Extra data→req margin applied by bundled producers.
const BUNDLING_SETUP: u64 = 0;
/// Committed-event budget of one run.
const MAX_EVENTS: u64 = 2_000_000;

/// One transferred token: its payload and the time its handshake completed
/// (sample time for consumers, acknowledge time for producers).
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

/// A protocol violation observed by a consumer or monitor.
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

/// Primary-input changes an agent wants to schedule.
#[derive(Debug, Default)]
pub struct Actions {
    sets: Vec<(NetId, bool, u64)>,
}

impl Actions {
    /// Schedules `net := value` after `delay` time units (min 1 enforced by
    /// the driver loop to avoid zero-delay agent livelock).
    pub fn set(&mut self, net: NetId, value: bool, delay: u64) {
        self.sets.push((net, value, delay.max(1)));
    }

    /// True when no action was produced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Forgets all collected actions, keeping the buffer (the driver loop
    /// reuses one `Actions` across timesteps to stay allocation-free).
    pub fn clear(&mut self) {
        self.sets.clear();
    }

    /// The collected `(net, value, delay)` requests, in submission order.
    #[must_use]
    pub fn sets(&self) -> &[(NetId, bool, u64)] {
        &self.sets
    }
}

/// A cooperative environment process attached to a simulation.
pub trait Agent {
    /// Inspects the circuit state and schedules input changes.
    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions);
    /// The nets this agent observes (its sensitivity list, as in a VHDL
    /// process). The driver loop may skip `react` on timesteps where no
    /// listed net changed — agents must therefore be Moore machines over
    /// these nets: given unchanged observations and unchanged internal
    /// state, `react` must produce no actions. An empty list (the
    /// default) opts out of filtering: the agent reacts every timestep.
    fn sensitivity(&self) -> &[NetId] {
        &[]
    }
    /// True when the agent has no more work to initiate (consumers and
    /// monitors are always "done"; producers finish after their last
    /// handshake completes).
    fn done(&self) -> bool {
        true
    }
    /// Tokens collected so far (consumers only).
    fn stream(&self) -> Option<&TokenStream> {
        None
    }
    /// Protocol violations observed so far.
    fn violations(&self) -> &[ProtocolViolation] {
        &[]
    }
    /// Channel this agent serves.
    fn channel_name(&self) -> &str;
    /// Describes the handshake this agent is blocked in, if any — taken
    /// at quiescence by the driver loop's stall watchdog. `None` means
    /// the agent is idle between tokens (nothing to report).
    fn diagnose(&self, _sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        None
    }
}

// ---------------------------------------------------------------------------
// Delay-insensitive (dual-rail / 1-of-N) agents
// ---------------------------------------------------------------------------

/// Groups a DI channel's rails by digit, rails in value order.
fn di_groups(ch: &Channel) -> (Vec<Vec<NetId>>, u64) {
    match ch.encoding() {
        Encoding::DualRail { width } => {
            // data[2i] = true rail (value 1), data[2i+1] = false rail (value 0).
            let groups = (0..width)
                .map(|i| vec![ch.data()[2 * i + 1], ch.data()[2 * i]])
                .collect();
            (groups, 2)
        }
        Encoding::OneOfN { n, digits } => {
            let groups = (0..digits)
                .map(|d| ch.data()[d * n..(d + 1) * n].to_vec())
                .collect();
            (groups, n as u64)
        }
        Encoding::Bundled { .. } => panic!("DI agent on bundled channel"),
    }
}

/// Reference digit encoding (the production path in
/// [`DiProducer::drive_token`] streams digits without allocating; this
/// form exists for the unit tests that pin the digit order).
#[cfg(test)]
fn encode_digits(value: u64, radix: u64, digits: usize) -> Vec<u64> {
    let mut v = value;
    let mut out = Vec::with_capacity(digits);
    for _ in 0..digits {
        out.push(v % radix);
        v /= radix;
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProducerState {
    SendNext,
    WaitAckHigh,
    WaitAckLow,
    Done,
}

/// 4-phase producer for a delay-insensitive input channel.
#[derive(Debug)]
pub struct DiProducer {
    name: String,
    groups: Vec<Vec<NetId>>,
    radix: u64,
    ack: NetId,
    watched: [NetId; 1],
    tokens: VecDeque<u64>,
    state: ProducerState,
    completed: TokenStream,
}

impl DiProducer {
    /// Builds a producer for input channel `ch` feeding `tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not a delay-insensitive input channel.
    #[must_use]
    pub fn new(ch: &Channel, tokens: Vec<u64>) -> Self {
        assert_eq!(ch.dir(), ChannelDir::Input, "producer needs input channel");
        let (groups, radix) = di_groups(ch);
        Self {
            name: ch.name().to_string(),
            groups,
            radix,
            ack: ch.ack(),
            watched: [ch.ack()],
            tokens: tokens.into(),
            state: ProducerState::SendNext,
            completed: TokenStream::default(),
        }
    }

    fn drive_token(&mut self, value: u64, actions: &mut Actions) {
        let mut rest = value;
        for group in &self.groups {
            let digit = rest % self.radix;
            rest /= self.radix;
            for (v, &rail) in group.iter().enumerate() {
                actions.set(rail, v as u64 == digit, GAP);
            }
        }
    }

    /// Tokens whose full 4-phase handshake has completed.
    #[must_use]
    pub fn completed(&self) -> &TokenStream {
        &self.completed
    }
}

impl Agent for DiProducer {
    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        match self.state {
            ProducerState::SendNext => {
                if !sim.value(self.ack) {
                    if let Some(tok) = self.tokens.pop_front() {
                        self.drive_token(tok, actions);
                        self.completed.tokens.push(Token {
                            value: tok,
                            time: sim.now(),
                        });
                        self.state = ProducerState::WaitAckHigh;
                    } else {
                        self.state = ProducerState::Done;
                    }
                }
            }
            ProducerState::WaitAckHigh => {
                if sim.value(self.ack) {
                    for group in &self.groups {
                        for &rail in group {
                            actions.set(rail, false, GAP);
                        }
                    }
                    self.state = ProducerState::WaitAckLow;
                }
            }
            ProducerState::WaitAckLow => {
                if !sim.value(self.ack) {
                    self.state = ProducerState::SendNext;
                    // Immediately try to send in the same reaction.
                    self.react(sim, actions);
                }
            }
            ProducerState::Done => {}
        }
    }

    fn done(&self) -> bool {
        self.state == ProducerState::Done
    }

    fn sensitivity(&self) -> &[NetId] {
        &self.watched
    }

    fn channel_name(&self) -> &str {
        &self.name
    }

    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        // A token counts as "through" once its full 4-phase handshake
        // completed; in the WaitAck* states one is still in flight.
        let (waiting_for, in_flight) = match self.state {
            ProducerState::SendNext if self.tokens.is_empty() => return None,
            ProducerState::SendNext => ("waiting for ack to fall before the next token", 0),
            ProducerState::WaitAckHigh => ("waiting for ack to rise", 1),
            ProducerState::WaitAckLow => ("waiting for ack to fall", 1),
            ProducerState::Done => return None,
        };
        let mut nets = vec![self.ack];
        nets.extend(self.groups.iter().flatten().copied());
        Some(StallDiagnosis {
            channel: self.name.clone(),
            role: "producer",
            waiting_for,
            tokens_done: self.completed.tokens.len() - in_flight,
            tokens_expected: Some(self.completed.tokens.len() + self.tokens.len()),
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsumerState {
    WaitValid,
    WaitNeutral,
}

/// 4-phase consumer for a delay-insensitive output channel. Detects
/// complete codewords, acknowledges them, and records the token stream.
#[derive(Debug)]
pub struct DiConsumer {
    name: String,
    groups: Vec<Vec<NetId>>,
    radix: u64,
    ack: NetId,
    watched: Vec<NetId>,
    state: ConsumerState,
    stream: TokenStream,
    violations: Vec<ProtocolViolation>,
}

impl DiConsumer {
    /// Builds a consumer for output channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not a delay-insensitive output channel.
    #[must_use]
    pub fn new(ch: &Channel) -> Self {
        assert_eq!(
            ch.dir(),
            ChannelDir::Output,
            "consumer needs output channel"
        );
        let (groups, radix) = di_groups(ch);
        let watched: Vec<NetId> = groups.iter().flatten().copied().collect();
        Self {
            name: ch.name().to_string(),
            groups,
            radix,
            ack: ch.ack(),
            watched,
            state: ConsumerState::WaitValid,
            stream: TokenStream::default(),
            violations: Vec::new(),
        }
    }

    /// Decodes the current codeword: `Some(value)` when every digit has
    /// exactly one rail high, `None` otherwise. Flags non-one-hot digits.
    /// Called every timestep, so it counts rails in place — no scratch
    /// allocation.
    fn decode(&mut self, sim: &Simulator<'_>) -> Option<u64> {
        let mut value = 0u64;
        let mut scale = 1u64;
        for (digit, group) in self.groups.iter().enumerate() {
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
                    self.violations.push(ProtocolViolation::NonOneHot {
                        channel: self.name.clone(),
                        digit,
                        time: sim.now(),
                    });
                    return None;
                }
            }
            // Wrapping: after the most-significant digit of a 64-bit
            // channel (e.g. 64 binary digits) the next scale is 2^64,
            // which is never used but would overflow the multiply.
            scale = scale.wrapping_mul(self.radix);
        }
        Some(value)
    }

    fn all_neutral(&self, sim: &Simulator<'_>) -> bool {
        self.groups
            .iter()
            .all(|g| g.iter().all(|&rail| !sim.value(rail)))
    }
}

impl Agent for DiConsumer {
    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        match self.state {
            ConsumerState::WaitValid => {
                if let Some(value) = self.decode(sim) {
                    self.stream.tokens.push(Token {
                        value,
                        time: sim.now(),
                    });
                    actions.set(self.ack, true, GAP);
                    self.state = ConsumerState::WaitNeutral;
                }
            }
            ConsumerState::WaitNeutral => {
                if self.all_neutral(sim) {
                    actions.set(self.ack, false, GAP);
                    self.state = ConsumerState::WaitValid;
                }
            }
        }
    }

    fn stream(&self) -> Option<&TokenStream> {
        Some(&self.stream)
    }

    fn violations(&self) -> &[ProtocolViolation] {
        &self.violations
    }

    fn sensitivity(&self) -> &[NetId] {
        &self.watched
    }

    fn channel_name(&self) -> &str {
        &self.name
    }

    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        let waiting_for = match self.state {
            ConsumerState::WaitValid => {
                // Idle between tokens unless a partial codeword is stuck
                // on the rails (some digit resolved, others never will).
                if !self.groups.iter().flatten().any(|&r| sim.value(r)) {
                    return None;
                }
                "waiting for a complete codeword"
            }
            ConsumerState::WaitNeutral => "waiting for rails to return to neutral",
        };
        let mut nets: Vec<NetId> = self.groups.iter().flatten().copied().collect();
        nets.push(self.ack);
        Some(StallDiagnosis {
            channel: self.name.clone(),
            role: "consumer",
            waiting_for,
            tokens_done: self.stream.tokens.len(),
            tokens_expected: None,
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
}

// ---------------------------------------------------------------------------
// Bundled-data (micropipeline) agents
// ---------------------------------------------------------------------------

/// 4-phase producer for a bundled-data input channel: drives data and
/// raises `req` `BUNDLING_SETUP` units later (the environment-side
/// bundling margin: zero, so the circuit's matched delay alone must cover
/// bundling), completing the return-to-zero phase on `ack`.
#[derive(Debug)]
pub struct BundledProducer {
    name: String,
    data: Vec<NetId>,
    req: NetId,
    ack: NetId,
    watched: [NetId; 2],
    tokens: VecDeque<u64>,
    state: ProducerState,
    completed: TokenStream,
}

impl BundledProducer {
    /// Builds a producer for bundled input channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not a bundled-data input channel.
    #[must_use]
    pub fn new(ch: &Channel, tokens: Vec<u64>) -> Self {
        assert_eq!(ch.dir(), ChannelDir::Input, "producer needs input channel");
        assert!(
            matches!(ch.encoding(), Encoding::Bundled { .. }),
            "bundled producer on non-bundled channel"
        );
        let req = ch.req().expect("bundled channel has req");
        Self {
            name: ch.name().to_string(),
            data: ch.data().to_vec(),
            req,
            ack: ch.ack(),
            watched: [ch.ack(), req],
            tokens: tokens.into(),
            state: ProducerState::SendNext,
            completed: TokenStream::default(),
        }
    }

    /// Tokens whose handshake has been initiated, in order.
    #[must_use]
    pub fn completed(&self) -> &TokenStream {
        &self.completed
    }
}

impl Agent for BundledProducer {
    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        match self.state {
            ProducerState::SendNext => {
                if !sim.value(self.ack) {
                    if let Some(tok) = self.tokens.pop_front() {
                        for (bit, &net) in self.data.iter().enumerate() {
                            actions.set(net, (tok >> bit) & 1 == 1, GAP);
                        }
                        actions.set(self.req, true, GAP + BUNDLING_SETUP);
                        self.completed.tokens.push(Token {
                            value: tok,
                            time: sim.now(),
                        });
                        self.state = ProducerState::WaitAckHigh;
                    } else {
                        self.state = ProducerState::Done;
                    }
                }
            }
            ProducerState::WaitAckHigh => {
                if sim.value(self.ack) {
                    actions.set(self.req, false, GAP);
                    self.state = ProducerState::WaitAckLow;
                }
            }
            ProducerState::WaitAckLow => {
                if !sim.value(self.ack) && !sim.value(self.req) {
                    self.state = ProducerState::SendNext;
                    self.react(sim, actions);
                }
            }
            ProducerState::Done => {}
        }
    }

    fn done(&self) -> bool {
        self.state == ProducerState::Done
    }

    fn sensitivity(&self) -> &[NetId] {
        &self.watched
    }

    fn channel_name(&self) -> &str {
        &self.name
    }

    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        let (waiting_for, in_flight) = match self.state {
            ProducerState::SendNext if self.tokens.is_empty() => return None,
            ProducerState::SendNext => ("waiting for ack to fall before the next token", 0),
            ProducerState::WaitAckHigh => ("waiting for ack to rise", 1),
            ProducerState::WaitAckLow => ("waiting for ack and req to fall", 1),
            ProducerState::Done => return None,
        };
        let mut nets = vec![self.ack, self.req];
        nets.extend_from_slice(&self.data);
        Some(StallDiagnosis {
            channel: self.name.clone(),
            role: "producer",
            waiting_for,
            tokens_done: self.completed.tokens.len() - in_flight,
            tokens_expected: Some(self.completed.tokens.len() + self.tokens.len()),
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
}

/// 4-phase consumer for a bundled-data output channel: samples data on
/// `req`↑ (trusting the bundling constraint — wrong samples are exactly
/// what a broken timing assumption produces), acknowledges, completes RZ.
#[derive(Debug)]
pub struct BundledConsumer {
    name: String,
    data: Vec<NetId>,
    req: NetId,
    ack: NetId,
    watched: [NetId; 1],
    state: ConsumerState,
    stream: TokenStream,
}

impl BundledConsumer {
    /// Builds a consumer for bundled output channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not a bundled-data output channel.
    #[must_use]
    pub fn new(ch: &Channel) -> Self {
        assert_eq!(
            ch.dir(),
            ChannelDir::Output,
            "consumer needs output channel"
        );
        assert!(
            matches!(ch.encoding(), Encoding::Bundled { .. }),
            "bundled consumer on non-bundled channel"
        );
        let req = ch.req().expect("bundled channel has req");
        Self {
            name: ch.name().to_string(),
            data: ch.data().to_vec(),
            req,
            ack: ch.ack(),
            watched: [req],
            state: ConsumerState::WaitValid,
            stream: TokenStream::default(),
        }
    }
}

impl Agent for BundledConsumer {
    fn react(&mut self, sim: &Simulator<'_>, actions: &mut Actions) {
        match self.state {
            ConsumerState::WaitValid => {
                if sim.value(self.req) {
                    let mut value = 0u64;
                    for (bit, &net) in self.data.iter().enumerate() {
                        if sim.value(net) {
                            value |= 1 << bit;
                        }
                    }
                    self.stream.tokens.push(Token {
                        value,
                        time: sim.now(),
                    });
                    actions.set(self.ack, true, GAP);
                    self.state = ConsumerState::WaitNeutral;
                }
            }
            ConsumerState::WaitNeutral => {
                if !sim.value(self.req) {
                    actions.set(self.ack, false, GAP);
                    self.state = ConsumerState::WaitValid;
                }
            }
        }
    }

    fn stream(&self) -> Option<&TokenStream> {
        Some(&self.stream)
    }

    fn sensitivity(&self) -> &[NetId] {
        &self.watched
    }

    fn channel_name(&self) -> &str {
        &self.name
    }

    fn diagnose(&self, sim: &Simulator<'_>) -> Option<StallDiagnosis> {
        let waiting_for = match self.state {
            ConsumerState::WaitValid => return None,
            ConsumerState::WaitNeutral => "waiting for req to fall",
        };
        let mut nets = vec![self.req, self.ack];
        nets.extend_from_slice(&self.data);
        Some(StallDiagnosis {
            channel: self.name.clone(),
            role: "consumer",
            waiting_for,
            tokens_done: self.stream.tokens.len(),
            tokens_expected: None,
            frontier: StallDiagnosis::frontier_of(sim, &nets),
        })
    }
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

impl From<SimError> for TokenRunError {
    fn from(e: SimError) -> Self {
        TokenRunError::Sim {
            error: e,
            stalls: Vec::new(),
        }
    }
}

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
    let mut agents = build_agents(netlist, inputs)?;
    let run_span = opts.tracer.span_args("sim.run", || {
        vec![
            ("design", netlist.name().to_string().into()),
            ("agents", agents.len().into()),
        ]
    });
    let mut sim = Simulator::new(netlist, model);
    sim.set_tracer(opts.tracer.clone());
    let driven = drive_agents(&mut sim, &mut agents);
    sim.trace_summary();
    drop(run_span);
    driven?;
    Ok(collect_report(&sim, &agents))
}

/// Builds the standard agent set for a netlist's channel annotations: a
/// producer per input channel (fed from `inputs`), a consumer per output
/// channel, protocol chosen by encoding. Shared by [`token_run`] and the
/// fault-campaign runner, which needs the agents around a simulator it
/// has injected faults into.
///
/// # Errors
///
/// [`TokenRunError::MissingInput`] / [`TokenRunError::UnknownChannel`]
/// when `inputs` does not match the netlist's input channels.
pub fn build_agents(
    netlist: &Netlist,
    inputs: &BTreeMap<String, Vec<u64>>,
) -> Result<Vec<Box<dyn Agent>>, TokenRunError> {
    let mut agents: Vec<Box<dyn Agent>> = Vec::new();
    let mut seen = Vec::new();
    for ch in netlist.channels() {
        match ch.dir() {
            ChannelDir::Input => {
                let toks = inputs
                    .get(ch.name())
                    .ok_or_else(|| TokenRunError::MissingInput(ch.name().to_string()))?
                    .clone();
                seen.push(ch.name().to_string());
                match ch.encoding() {
                    Encoding::Bundled { .. } => {
                        agents.push(Box::new(BundledProducer::new(ch, toks)));
                    }
                    _ => agents.push(Box::new(DiProducer::new(ch, toks))),
                }
            }
            ChannelDir::Output => match ch.encoding() {
                Encoding::Bundled { .. } => agents.push(Box::new(BundledConsumer::new(ch))),
                _ => agents.push(Box::new(DiConsumer::new(ch))),
            },
        }
    }
    for name in inputs.keys() {
        if !seen.contains(name) {
            return Err(TokenRunError::UnknownChannel(name.clone()));
        }
    }
    Ok(agents)
}

/// Assembles a [`TokenRunReport`] from a driven simulator + agent set
/// (shared with the fault-campaign runner).
pub(crate) fn collect_report(sim: &Simulator<'_>, agents: &[Box<dyn Agent>]) -> TokenRunReport {
    let mut outputs = BTreeMap::new();
    let mut violations = Vec::new();
    for agent in agents {
        if let Some(s) = agent.stream() {
            outputs.insert(agent.channel_name().to_string(), s.clone());
        }
        violations.extend_from_slice(agent.violations());
    }
    TokenRunReport {
        outputs,
        violations,
        glitches: sim.glitches().len(),
        glitch_times: sim.glitches().iter().map(|g| g.time).collect(),
        end_time: sim.now(),
        events: sim.events_processed(),
        steps: sim.steps_executed(),
        evaluations: sim.gates_evaluated(),
    }
}

/// Core agent/simulator interleaving loop, reusable for custom agent sets.
///
/// # Errors
///
/// Propagates simulator failures (more than `MAX_EVENTS` committed
/// events) and reports deadlocks (quiescence while a producer still holds
/// tokens).
pub fn drive_agents(
    sim: &mut Simulator<'_>,
    agents: &mut [Box<dyn Agent>],
) -> Result<(), TokenRunError> {
    // Let the circuit power up before the environment engages.
    if let Err(error) = sim.settle(MAX_EVENTS) {
        let stalls = collect_stalls(sim, agents);
        return Err(TokenRunError::Sim { error, stalls });
    }

    // Dense per-agent sensitivity masks (None ⇒ always react). Built
    // once; the per-timestep wake test is |changed| × |agents| bit reads.
    let n_nets = sim.netlist().nets().len();
    let masks: Vec<Option<Vec<bool>>> = agents
        .iter()
        .map(|a| {
            let sens = a.sensitivity();
            if sens.is_empty() {
                None
            } else {
                let mut m = vec![false; n_nets];
                for &net in sens {
                    m[net.index()] = true;
                }
                Some(m)
            }
        })
        .collect();

    let mut actions = Actions::default();
    let mut wake = vec![true; agents.len()];
    loop {
        actions.clear();
        for (agent, &w) in agents.iter_mut().zip(&wake) {
            if w {
                agent.react(sim, &mut actions);
            }
        }
        let idle = actions.is_empty();
        for &(net, value, delay) in actions.sets() {
            sim.set_input(net, value, delay);
        }
        if idle && sim.is_quiescent() {
            // Some agents may have been skipped this round; give every
            // agent one unconditional look before concluding.
            actions.clear();
            for agent in agents.iter_mut() {
                agent.react(sim, &mut actions);
            }
            if actions.is_empty() {
                if agents.iter().all(|a| a.done()) {
                    return Ok(());
                }
                // Stall watchdog: quiescent with tokens outstanding.
                // Every blocked agent names its channel, phase and
                // frontier nets.
                return Err(TokenRunError::Deadlock {
                    at: sim.now(),
                    stalls: collect_stalls(sim, agents),
                });
            }
            for &(net, value, delay) in actions.sets() {
                sim.set_input(net, value, delay);
            }
        }
        if sim.events_processed() > MAX_EVENTS {
            return Err(TokenRunError::Sim {
                error: SimError::EventLimit {
                    limit: MAX_EVENTS,
                    at: sim.now(),
                },
                stalls: collect_stalls(sim, agents),
            });
        }
        sim.step();
        // Wake an agent iff one of its watched nets just changed.
        for (w, mask) in wake.iter_mut().zip(&masks) {
            *w = match mask {
                None => true,
                Some(m) => sim.changed_nets().iter().any(|n| m[n.index()]),
            };
        }
    }
}

/// Every agent's stall diagnosis, in agent (channel declaration) order.
fn collect_stalls(sim: &Simulator<'_>, agents: &[Box<dyn Agent>]) -> Vec<StallDiagnosis> {
    agents.iter().filter_map(|a| a.diagnose(sim)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use msaf_netlist::{GateKind, Netlist, Protocol};

    /// A dual-rail 4-phase buffer: out rails = in rails (wires), in.ack
    /// driven by completion of the output side (here: consumer's ack wired
    /// straight back). The simplest legal QDI "circuit": identity.
    fn dual_rail_wire() -> Netlist {
        let mut nl = Netlist::new("dr_wire");
        let in_t = nl.add_input("in_t");
        let in_f = nl.add_input("in_f");
        let out_ack = nl.add_input("out_ack");
        // Completion: the input is acknowledged when the environment acks
        // the output; buffer rails through.
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

    #[test]
    fn dual_rail_identity_transfers_tokens() {
        let nl = dual_rail_wire();
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1, 0, 1, 1, 0]);
        let report = token_run(
            &nl,
            &FixedDelay::new(1),
            &inputs,
            &TokenRunOptions::default(),
        )
        .expect("runs");
        assert_eq!(report.outputs["out"].values(), vec![1, 0, 1, 1, 0]);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn missing_input_reported() {
        let nl = dual_rail_wire();
        let err = token_run(
            &nl,
            &FixedDelay::new(1),
            &BTreeMap::new(),
            &TokenRunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TokenRunError::MissingInput(_)));
    }

    #[test]
    fn unknown_channel_reported() {
        let nl = dual_rail_wire();
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1]);
        inputs.insert("bogus".to_string(), vec![1]);
        let err = token_run(
            &nl,
            &FixedDelay::new(1),
            &inputs,
            &TokenRunOptions::default(),
        )
        .unwrap_err();
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
        nl.mark_output(t);
        nl.mark_output(f);
        nl.mark_output(zero);
        nl.add_channel(Channel::new(
            "in",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::DualRail { width: 1 },
            None,
            zero,
            vec![in_t, in_f],
        ));
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![1, 0]);
        let err = token_run(
            &nl,
            &FixedDelay::new(1),
            &inputs,
            &TokenRunOptions::default(),
        )
        .unwrap_err();
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
        // Bundled 2-bit wire: data and req buffered straight through,
        // consumer ack looped back as producer ack.
        let mut nl = Netlist::new("bd_wire");
        let d0 = nl.add_input("d0");
        let d1 = nl.add_input("d1");
        let req = nl.add_input("req");
        let out_ack = nl.add_input("out_ack");
        let (_, q0) = nl.add_gate_new(GateKind::Buf, "b0", &[d0]);
        let (_, q1) = nl.add_gate_new(GateKind::Buf, "b1", &[d1]);
        let (_, qr) = nl.add_gate_new(GateKind::Delay(4), "dreq", &[req]);
        let (_, ia) = nl.add_gate_new(GateKind::Buf, "ba", &[out_ack]);
        for n in [q0, q1, qr, ia] {
            nl.mark_output(n);
        }
        nl.add_channel(Channel::new(
            "in",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::Bundled { width: 2 },
            Some(req),
            ia,
            vec![d0, d1],
        ));
        nl.add_channel(Channel::new(
            "out",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::Bundled { width: 2 },
            Some(qr),
            out_ack,
            vec![q0, q1],
        ));
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), vec![3, 1, 2, 0]);
        let report = token_run(
            &nl,
            &FixedDelay::new(1),
            &inputs,
            &TokenRunOptions::default(),
        )
        .expect("runs");
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
        inputs.insert("in".to_string(), vec![1, 0, 1]);
        let report = token_run(
            &nl,
            &FixedDelay::new(1),
            &inputs,
            &TokenRunOptions::default(),
        )
        .expect("runs");
        assert_ne!(
            report.outputs["out"].values(),
            vec![1, 0, 1],
            "broken bundling must corrupt data"
        );
    }

    #[test]
    fn encode_digits_radix4() {
        assert_eq!(encode_digits(0b1110, 2, 4), vec![0, 1, 1, 1]);
        assert_eq!(encode_digits(11, 4, 2), vec![3, 2]);
    }
}
