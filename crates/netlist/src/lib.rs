//! # msaf-netlist
//!
//! Gate-level netlist intermediate representation for the MSAF
//! (Multi-Style Asynchronous FPGA) tool-chain, a reproduction of
//! *"FPGA architecture for multi-style asynchronous logic"*
//! (Huot, Dubreuil, Fesquet, Renaudin — DATE 2005).
//!
//! Asynchronous circuits are ordinary gate networks plus two things the
//! synchronous world does not need:
//!
//! * **state-holding combinational loops** — Muller C-elements and
//!   transparent latches are first-class [`GateKind`]s, and arbitrary
//!   gates can be marked as intentional feedback points
//!   (see [`Netlist::mark_feedback`]) so that the looped-LUT realisation
//!   of a C-element used by the paper's PLB is representable; and
//! * **handshake channels** — groups of nets carrying a request, an
//!   acknowledge and data rails under a [`Protocol`] /
//!   [`Encoding`] pair ([`Channel`]), which simulation drivers, protocol
//!   monitors and the CAD reports all consume.
//!
//! The IR is deliberately flat (no module hierarchy): circuit generators in
//! `msaf-cells` are plain Rust functions that extend a [`Netlist`], which is
//! both simpler and closer to what a technology mapper wants to see.
//!
//! ## Hot-path access: the CSR fanout index
//!
//! Consumers that traverse connectivity per-event (the event-driven
//! simulator above all) must not walk the per-net `Vec<Sink>` lists; they
//! call [`Netlist::fanout_index`] once and read the returned
//! [`FanoutIndex`] — two flat arrays (`u32` row offsets + a shared
//! [`GateId`] sink array) answering "which gates observe net *n*" with
//! zero allocation. Its invariants (documented in [`fanout`]) are:
//! offsets are non-decreasing with one row per net; sink order matches
//! [`Net::sinks`] including one entry *per consuming pin* (a gate reading
//! a net on two pins appears twice); and the index is a **snapshot** —
//! it must be rebuilt after any netlist mutation.
//!
//! ## Example
//!
//! ```
//! use msaf_netlist::{GateKind, Netlist};
//!
//! let mut nl = Netlist::new("c_element_demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let (_, y) = nl.add_gate_new(GateKind::Celement, "c0", &[a, b]);
//! nl.mark_output(y);
//! assert!(nl.validate().is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fanout;
pub mod gate;
pub mod ids;
pub mod netlist;
pub mod stats;
pub mod topo;
pub mod validate;

pub use channel::{Channel, ChannelDir, Encoding, Protocol};
pub use fanout::FanoutIndex;
pub use gate::{GateKind, LutTable};
pub use ids::{ChannelId, GateId, NetId};
pub use netlist::{Gate, Net, Netlist, Sink};
pub use stats::NetlistStats;
pub use topo::{levelize, LevelizeError, Levels};
pub use validate::{Issue, Severity, Validation};
