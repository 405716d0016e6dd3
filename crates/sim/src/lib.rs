//! # msaf-sim
//!
//! Event-driven, hazard-aware gate-level simulator for asynchronous
//! circuits, built for the MSAF reproduction of *"FPGA architecture for
//! multi-style asynchronous logic"* (DATE 2005).
//!
//! Asynchronous logic styles differ precisely in what they assume about
//! delays (Section 2 of the paper), so the simulator's delay model is a
//! first-class, pluggable object ([`delay::DelayModel`]): the same netlist
//! can be run with unit delays, per-kind delays, or per-gate randomised
//! delays to *stress* delay-insensitivity claims
//! ([`ditest`]). Gates use inertial delay semantics — pulses shorter than
//! a gate's delay are filtered and recorded as [`engine::Glitch`]es, the
//! tell-tale of hazards that hazard-free synthesis must avoid.
//!
//! Handshake environments ([`agents`]) drive and observe the circuit's
//! [`msaf_netlist::Channel`]s: a 4-phase producer on every input channel
//! and a consumer on every output channel, in dual-rail/1-of-N or
//! bundled-data wire style, so token-level experiments are one function
//! call: [`token_run`].
//!
//! ## Example
//!
//! ```
//! use msaf_netlist::{GateKind, Netlist};
//! use msaf_sim::delay::FixedDelay;
//! use msaf_sim::engine::Simulator;
//!
//! let mut nl = Netlist::new("inv");
//! let a = nl.add_input("a");
//! let (_, y) = nl.add_gate_new(GateKind::Not, "n0", &[a]);
//! nl.mark_output(y);
//!
//! let mut sim = Simulator::new(&nl, &FixedDelay::new(1));
//! sim.settle(10_000)?;
//! assert!(sim.value(y)); // inverter of a low input settles high
//! sim.set_input(a, true, 0);
//! sim.settle(10_000)?;
//! assert!(!sim.value(y));
//! # Ok::<(), msaf_sim::engine::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod delay;
pub mod diagnose;
pub mod ditest;
pub mod engine;
pub mod faults;
mod queue;

pub use agents::{token_run, Token, TokenRunError, TokenRunOptions, TokenStream};
pub use delay::{DelayModel, FixedDelay, PerKindDelay, RandomDelay};
pub use diagnose::{FrontierNet, StallDiagnosis};
pub use ditest::{DiConfig, DiReport};
pub use engine::{Glitch, SimError, SimTime, Simulator};
pub use faults::{
    default_stimulus, run_campaign, CampaignOptions, Fault, FaultOutcome, FaultReport, FaultResult,
    KindSummary, FAULT_KINDS,
};
