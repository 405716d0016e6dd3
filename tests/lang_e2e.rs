//! End-to-end tests for the `.msa` front-end: every committed example
//! program elaborates in **all three styles**, compiles through the full
//! CAD flow (map → pack → place → route → bitstream), and the
//! programmed fabric transfers the same tokens as the source circuit
//! (`verify_tokens`) — the multi-style claim with style as a one-token
//! compile knob.
//!
//! Also pins the front-end against the hand-built reference: the
//! `.msa`-elaborated QDI adder must match
//! `msaf_cells::adders::qdi_ripple_adder` on netlist statistics and on
//! simulated token streams.

use msaf::netlist::NetlistStats;
use msaf::prelude::*;
use msaf_cells::adders::ripple_adder_reference;
use msaf_cells::generators::{muxtree_reference, parity_reference};
use std::collections::BTreeMap;

const ADDER4: &str = include_str!("../examples/msa/adder4.msa");
const PARITY8: &str = include_str!("../examples/msa/parity8.msa");
const MUXTREE4: &str = include_str!("../examples/msa/muxtree4.msa");
const FIFO2: &str = include_str!("../examples/msa/fifo2.msa");

/// Elaborate in `style`, compile onto the fabric, and check the
/// programmed bitstream transfers the expected tokens.
fn compile_and_verify(src: &str, style: Style, channel: &str, toks: &[u64], want: &[u64]) {
    let nl = compile_msa(src, style).expect("elaborates");
    let v = nl.validate();
    assert!(v.is_ok(), "{style}: {v}");

    let mut inputs = BTreeMap::new();
    inputs.insert(channel.to_string(), toks.to_vec());

    // Source-level behaviour matches the reference function.
    let golden = token_run(
        &nl,
        &PerKindDelay::new(),
        &inputs,
        &TokenRunOptions::default(),
    )
    .expect("source simulates");
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
        "{style}: source-level tokens diverge from the reference"
    );

    // Fabric-level: compile and verify token-for-token.
    let compiled = compile(&nl, &FlowOptions::default())
        .unwrap_or_else(|e| panic!("{style}: CAD flow failed: {e}"));
    let verdict = verify_tokens(
        &nl,
        &compiled.mapped,
        &compiled.config,
        &inputs,
        &PerKindDelay::new(),
        &TokenRunOptions::default(),
    )
    .expect("verification runs");
    assert!(
        verdict.matches,
        "{style}: fabric diverged: source {:?} vs fabric {:?}",
        verdict.original, verdict.fabric
    );
}

#[test]
fn adder4_all_styles_through_fabric() {
    let toks: Vec<u64> = vec![0, 0b0001_1111, (1 << 8) | 0b1111_1111, 0b1010_0101];
    let want: Vec<u64> = toks.iter().map(|&t| ripple_adder_reference(4, t)).collect();
    for style in Style::ALL {
        compile_and_verify(ADDER4, style, "op", &toks, &want);
    }
}

#[test]
fn parity8_all_styles_through_fabric() {
    let toks: Vec<u64> = vec![0, 0b1111_1111, 0b1010_1010, 0b0000_0001];
    let want: Vec<u64> = toks.iter().map(|&t| parity_reference(8, t)).collect();
    for style in Style::ALL {
        compile_and_verify(PARITY8, style, "op", &toks, &want);
    }
}

#[test]
fn muxtree4_all_styles_through_fabric() {
    // All four select values over a fixed data pattern.
    let toks: Vec<u64> = (0..4).map(|s| (s << 4) | 0b0110).collect();
    let want: Vec<u64> = toks.iter().map(|&t| muxtree_reference(2, t)).collect();
    assert_eq!(want, vec![0, 1, 1, 0]);
    for style in Style::ALL {
        compile_and_verify(MUXTREE4, style, "op", &toks, &want);
    }
}

#[test]
fn fifo2_all_styles_through_fabric() {
    let toks: Vec<u64> = vec![1, 2, 3, 0, 15, 8];
    for style in Style::ALL {
        compile_and_verify(FIFO2, style, "inp", &toks, &toks);
    }
}

/// On an IM without feedback, WCHB's looped LUTs round-trip through the
/// routing fabric and take PLB input pins the packer does not budget
/// for: the flow names the overflowing PLB instead of panicking.
#[test]
fn no_feedback_pin_overflow_is_a_named_bitgen_error() {
    use msaf::cad::bitgen::BitgenError;
    let nl = compile_msa(ADDER4, Style::Wchb).expect("elaborates");
    let opts = FlowOptions {
        arch: ArchSpec::no_feedback(1, 1),
        ..FlowOptions::default()
    };
    let err = compile(&nl, &opts).expect_err("adder4 WCHB overflows a no-feedback PLB");
    assert!(
        matches!(
            err,
            FlowError::Bitgen(BitgenError::InputPinOverflow {
                plb: 10,
                needed: 11,
                available: 10
            })
        ),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        "bitgen: PLB 10 needs 11 input pins, the architecture has 10"
    );
}

#[test]
fn msa_qdi_adder_equals_cells_generator() {
    // The front-end must not drift from the hand-built reference: same
    // netlist statistics (gate/net/kind counts, depth, fanout) and the
    // same simulated token stream.
    let lang = compile_msa(ADDER4, Style::Qdi).expect("elaborates");
    let cells = qdi_ripple_adder(4);
    assert_eq!(
        NetlistStats::of(&lang),
        NetlistStats::of(&cells),
        "elaborated QDI adder diverged structurally from qdi_ripple_adder(4)"
    );

    let toks: Vec<u64> = vec![0, 5 | (9 << 4), (1 << 8) | 0xFF, 0b1_0110_1011];
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), toks);
    let opts = TokenRunOptions::default();
    let a = token_run(&lang, &PerKindDelay::new(), &inputs, &opts).unwrap();
    let b = token_run(&cells, &PerKindDelay::new(), &inputs, &opts).unwrap();
    assert_eq!(a.outputs["res"].values(), b.outputs["res"].values());
    // Identical structure under the same delay model must produce the
    // same event count, not just the same tokens.
    assert_eq!(a.events, b.events);
    assert_eq!(a.glitches, b.glitches);
}

#[test]
fn wchb_elaboration_is_delay_insensitive() {
    // The WCHB style's whole point: token streams invariant under
    // adversarial per-gate delays, even with logic between the buffers.
    let nl = compile_msa(FIFO2, Style::Wchb).expect("elaborates");
    let mut inputs = BTreeMap::new();
    inputs.insert("inp".to_string(), vec![3, 0, 9, 14]);
    let cfg = DiConfig {
        seeds: (0..8).collect(),
        delay_lo: 1,
        delay_hi: 25,
        ..DiConfig::default()
    };
    let report = di_stress(&nl, &inputs, &cfg).expect("reference run");
    assert!(report.is_delay_insensitive(), "{:?}", report.failures);
}

#[test]
fn malformed_source_reports_line_and_column() {
    // Acceptance criterion: parse errors carry line/column spans.
    let src = "pipeline broken {\n  input op[4];\n  output res[4]\n  stage s { res = op; }\n}";
    let err = compile_msa(src, Style::Qdi).expect_err("must not parse");
    let diags = err.diags();
    assert_eq!(diags.len(), 1);
    let pos = diags[0].position(src);
    // The missing ';' after `output res[4]` is noticed at 'stage' (4:3).
    assert_eq!((pos.line, pos.col), (4, 3));
    let rendered = err.render(src);
    assert!(rendered.contains("at 4:3"), "{rendered}");
    assert!(rendered.contains("stage s"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn check_errors_also_carry_spans() {
    let src = "pipeline w {\n  input a[2];\n  output y[4];\n  stage s { y = a; }\n}";
    let err = compile_msa(src, Style::Qdi).expect_err("width mismatch");
    let diags = err.diags();
    assert!(!diags.is_empty());
    let pos = diags[0].position(src);
    assert_eq!(pos.line, 4, "{}", err.render(src));
}
