//! # msaf-cells
//!
//! Asynchronous cell and circuit library for the MSAF reproduction of
//! *"FPGA architecture for multi-style asynchronous logic"* (DATE 2005).
//!
//! The paper demonstrates its fabric with a full adder implemented in two
//! styles (Figure 3): **QDI dual-rail** (DIMS logic built from Muller
//! C-elements) and **micropipeline bundled-data** (single-rail logic with
//! latches, a C-element controller and a matched delay), both under the
//! 4-phase protocol. This crate provides those exact circuits plus the
//! building blocks and parameterised generators the evaluation sweeps
//! need:
//!
//! * [`dualrail`] — dual-rail signals, DIMS function blocks, completion
//!   detection;
//! * [`celement`] — C-element constructions, including the looped-LUT
//!   realisation the paper's PLB interconnection matrix enables;
//! * [`bundled`] — 4-phase bundled-data latch stages and FIFOs
//!   (micropipelines);
//! * [`wchb`] — weak-conditioned half-buffer QDI pipelines;
//! * [`fulladder`] — the two Figure-3 adders;
//! * [`adders`] — n-bit ripple-carry sweeps of both styles;
//! * [`generators`] — a QDI parity tree, plus the parity and mux-tree
//!   reference functions.
//!
//! Every constructor extends a caller-supplied [`msaf_netlist::Netlist`]
//! or returns a complete netlist with [`msaf_netlist::Channel`]
//! annotations ready for `msaf_sim::token_run`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adders;
pub mod bundled;
pub mod celement;
pub mod dualrail;
pub mod fulladder;
pub mod generators;
pub mod wchb;

pub use adders::{bundled_ripple_adder, qdi_ripple_adder};
pub use bundled::{bundled_fifo, bundled_stage, BundledStage};
pub use celement::{celement2, celement_lut, celement_tree};
pub use dualrail::{completion_tree, dims, dr_channel_data, dr_inputs, validity, Dr};
pub use fulladder::{micropipeline_full_adder, qdi_full_adder};
pub use wchb::{one_of_four_fifo, wchb_fifo, wchb_stage};
