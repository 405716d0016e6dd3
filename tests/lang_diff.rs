//! Differential tests for the hierarchy front-end (modules, params,
//! generate-loops).
//!
//! Two claims are pinned here:
//!
//! 1. **Stat-identity.** Module-built sources (`adder4_mod.msa`,
//!    `fifo2_mod.msa`) elaborate to *exactly* the netlist their flat
//!    counterparts produce — same [`NetlistStats`], same simulated
//!    tokens, same event and glitch counts — in all three styles.
//!    Instance port bindings are pure aliases, so hierarchy must cost
//!    zero gates.
//!
//! 2. **Scale.** The generate-loop workloads (`adder64.msa`,
//!    `fir4.msa`, `fifomesh.msa`) compile through the full CAD flow and
//!    the programmed fabric transfers the same tokens as the source
//!    netlist (`verify_tokens`), checked against independent Rust
//!    references. The QDI adder64 elaborates past 1000 nets — the
//!    fabric-scale regime the colored-negotiation router targets.
//!    Every workload runs in every style, the thousands-of-gates WCHB
//!    builds of adder64 and fifomesh included.

use msaf::netlist::NetlistStats;
use msaf::prelude::*;
use std::collections::BTreeMap;

const ADDER4: &str = include_str!("../examples/msa/adder4.msa");
const ADDER4_MOD: &str = include_str!("../examples/msa/adder4_mod.msa");
const FIFO2: &str = include_str!("../examples/msa/fifo2.msa");
const FIFO2_MOD: &str = include_str!("../examples/msa/fifo2_mod.msa");
const ADDER64: &str = include_str!("../examples/msa/adder64.msa");
const FIR4: &str = include_str!("../examples/msa/fir4.msa");
const FIFOMESH: &str = include_str!("../examples/msa/fifomesh.msa");

/// The modular source must produce a netlist *indistinguishable* from
/// the flat one: identical statistics, tokens, event counts.
fn assert_stat_identical(flat: &str, modular: &str, inputs: &BTreeMap<String, Vec<u64>>) {
    for style in Style::ALL {
        let a = compile_msa(flat, style).expect("flat elaborates");
        let b = compile_msa(modular, style).expect("modular elaborates");
        assert_eq!(
            NetlistStats::of(&a),
            NetlistStats::of(&b),
            "{style}: modular netlist diverged structurally from the flat source"
        );

        let opts = TokenRunOptions::default();
        let ra = token_run(&a, &PerKindDelay::new(), inputs, &opts).expect("flat simulates");
        let rb = token_run(&b, &PerKindDelay::new(), inputs, &opts).expect("modular simulates");
        for (chan, toks) in &ra.outputs {
            assert_eq!(
                toks.values(),
                rb.outputs[chan].values(),
                "{style}: tokens diverge on '{chan}'"
            );
        }
        // Identical structure under the same delay model must replay the
        // same event schedule, not just the same tokens.
        assert_eq!(ra.events, rb.events, "{style}: event counts diverge");
        assert_eq!(ra.glitches, rb.glitches, "{style}: glitch counts diverge");
    }
}

/// Compile `src` in `style`, check the source netlist against `want`
/// on the single output channel, then run the full CAD flow and verify
/// the programmed fabric token-for-token.
fn compile_and_verify(
    src: &str,
    style: Style,
    inputs: &BTreeMap<String, Vec<u64>>,
    want: &[u64],
) -> NetlistStats {
    let nl = compile_msa(src, style).expect("elaborates");
    let v = nl.validate();
    assert!(v.is_ok(), "{style}: {v}");
    let stats = NetlistStats::of(&nl);

    let opts = TokenRunOptions::default();
    let golden = token_run(&nl, &PerKindDelay::new(), inputs, &opts).expect("source simulates");
    let out_chan = nl
        .channels()
        .iter()
        .find(|c| matches!(c.dir(), ChannelDir::Output))
        .expect("one output channel")
        .name()
        .to_string();
    assert_eq!(
        golden.outputs[&out_chan].values(),
        want,
        "{style}: source-level tokens diverge from the Rust reference"
    );

    let compiled = compile(&nl, &FlowOptions::default())
        .unwrap_or_else(|e| panic!("{style}: CAD flow failed: {e}"));
    let verdict = verify_tokens(
        &nl,
        &compiled.mapped,
        &compiled.config,
        inputs,
        &PerKindDelay::new(),
        &opts,
    )
    .expect("verification runs");
    assert!(
        verdict.matches,
        "{style}: fabric diverged: source {:?} vs fabric {:?}",
        verdict.original, verdict.fabric
    );
    stats
}

fn adder64_inputs() -> (BTreeMap<String, Vec<u64>>, Vec<u64>) {
    let a: Vec<u64> = vec![0, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1 << 63];
    let b: Vec<u64> = vec![0, 1, 0x0123_4567_89AB_CDEF, (1 << 63) | 5];
    let cin: Vec<u64> = vec![0, 1, 1, 0];
    // 64-bit sum wraps mod 2^64 — the final carry is deliberately
    // dropped by the source, so `wrapping_add` *is* the reference.
    let want: Vec<u64> = a
        .iter()
        .zip(&b)
        .zip(&cin)
        .map(|((&a, &b), &c)| a.wrapping_add(b).wrapping_add(c))
        .collect();
    let mut inputs = BTreeMap::new();
    inputs.insert("a".to_string(), a);
    inputs.insert("b".to_string(), b);
    inputs.insert("cin".to_string(), cin);
    (inputs, want)
}

/// `y = Σ_k c_k · x_k mod 2^8` over four packed 8-bit samples — an
/// independent Rust model of the 4-tap coefficient-gated FIR.
fn fir4_reference(x: u64, c: u64) -> u64 {
    let mut acc: u64 = 0;
    for k in 0..4 {
        if (c >> k) & 1 == 1 {
            acc = acc.wrapping_add((x >> (8 * k)) & 0xFF);
        }
    }
    acc & 0xFF
}

fn fir4_inputs() -> (BTreeMap<String, Vec<u64>>, Vec<u64>) {
    let x: Vec<u64> = vec![0, 0x0102_0304, 0xFFFF_FFFF, 0x80C0_21FF];
    let c: Vec<u64> = vec![0b1111, 0b1111, 0b1010, 0b0110];
    let want: Vec<u64> = x
        .iter()
        .zip(&c)
        .map(|(&x, &c)| fir4_reference(x, c))
        .collect();
    let mut inputs = BTreeMap::new();
    inputs.insert("x".to_string(), x);
    inputs.insert("c".to_string(), c);
    (inputs, want)
}

fn fifomesh_inputs() -> (BTreeMap<String, Vec<u64>>, Vec<u64>) {
    let a: Vec<u64> = vec![0, 0x0102_0304, 0xFFFF_FFFF, 0xA5C3_0F11];
    // The merge stage XOR-folds the four 8-bit lanes.
    let want: Vec<u64> = a
        .iter()
        .map(|&t| (t ^ (t >> 8) ^ (t >> 16) ^ (t >> 24)) & 0xFF)
        .collect();
    let mut inputs = BTreeMap::new();
    inputs.insert("a".to_string(), a);
    (inputs, want)
}

#[test]
fn modular_adder4_is_stat_identical_to_flat() {
    let toks: Vec<u64> = vec![0, 0b0001_1111, (1 << 8) | 0b1111_1111, 0b1010_0101];
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), toks);
    assert_stat_identical(ADDER4, ADDER4_MOD, &inputs);
}

#[test]
fn modular_fifo2_is_stat_identical_to_flat() {
    let mut inputs = BTreeMap::new();
    inputs.insert("inp".to_string(), vec![1, 2, 3, 0, 15, 8]);
    assert_stat_identical(FIFO2, FIFO2_MOD, &inputs);
}

#[test]
fn modular_adder4_verifies_through_fabric_all_styles() {
    let toks: Vec<u64> = vec![0, 0b0001_1111, (1 << 8) | 0b1111_1111, 0b1010_0101];
    let want: Vec<u64> = toks
        .iter()
        .map(|&t| ((t & 0xF) + ((t >> 4) & 0xF) + ((t >> 8) & 1)) & 0x1F)
        .collect();
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), toks);
    for style in Style::ALL {
        compile_and_verify(ADDER4_MOD, style, &inputs, &want);
    }
}

#[test]
fn modular_fifo2_verifies_through_fabric_all_styles() {
    let toks: Vec<u64> = vec![1, 2, 3, 0, 15, 8];
    let mut inputs = BTreeMap::new();
    inputs.insert("inp".to_string(), toks.clone());
    for style in Style::ALL {
        compile_and_verify(FIFO2_MOD, style, &inputs, &toks);
    }
}

#[test]
fn adder64_qdi_through_fabric_past_1000_nets() {
    let (inputs, want) = adder64_inputs();
    let stats = compile_and_verify(ADDER64, Style::Qdi, &inputs, &want);
    // The fabric-scale acceptance bar: the pinned BENCH_cad.json row
    // route_msa_adder64_qdi routes this netlist.
    assert!(
        stats.nets >= 1000,
        "adder64 QDI must elaborate past 1000 nets, got {}",
        stats.nets
    );
}

#[test]
fn adder64_bundled_through_fabric() {
    // Eight bits per generated stage: each matched delay stays inside
    // the PDE range (a flat 64-bit ripple would need delay ~265 > 64).
    let (inputs, want) = adder64_inputs();
    compile_and_verify(ADDER64, Style::Bundled, &inputs, &want);
}

#[test]
fn fir4_all_styles_through_fabric() {
    let (inputs, want) = fir4_inputs();
    for style in Style::ALL {
        compile_and_verify(FIR4, style, &inputs, &want);
    }
}

#[test]
fn fifomesh_qdi_and_bundled_through_fabric() {
    let (inputs, want) = fifomesh_inputs();
    for style in [Style::Qdi, Style::Bundled] {
        compile_and_verify(FIFOMESH, style, &inputs, &want);
    }
}

#[test]
fn adder64_wchb_through_fabric() {
    let (inputs, want) = adder64_inputs();
    compile_and_verify(ADDER64, Style::Wchb, &inputs, &want);
}

#[test]
fn fifomesh_wchb_through_fabric() {
    let (inputs, want) = fifomesh_inputs();
    compile_and_verify(FIFOMESH, Style::Wchb, &inputs, &want);
}
