//! Integration tests pinning the paper's evaluation claims, one per
//! experiment the `msaf-bench` binaries print (E5 `table_filling_ratio`,
//! X2 `ext_baseline_compare`, X3 `ext_di_robustness`, X4
//! `ext_arch_ablation`): the filling-ratio ordering, the style coverage
//! of the fabric vs the baselines, the robustness contrast between QDI
//! and bundled data, and the cost of each architecture ablation.

use msaf::prelude::*;
use msaf_baselines::{lut4_synchronous, papa_like};
use std::collections::BTreeMap;

#[test]
fn e5_filling_ratio_ordering_and_band() {
    // Paper: micropipeline 51 %, QDI 76 %. Reproduction target: same
    // ordering, a gap of at least 10 points, and both ratios within a
    // generous ±15-point band of the paper's values.
    let qdi = compile(&qdi_full_adder(), &FlowOptions::default())
        .unwrap()
        .report;
    let mp = compile(
        &micropipeline_full_adder(SAFE_FA_MATCHED_DELAY),
        &FlowOptions::default(),
    )
    .unwrap()
    .report;
    let (rq, rm) = (qdi.filling_ratio(), mp.filling_ratio());
    assert!(rq > rm + 0.10, "gap too small: qdi {rq:.2} mp {rm:.2}");
    assert!((0.61..=0.91).contains(&rq), "QDI ratio {rq:.2} out of band");
    assert!((0.36..=0.77).contains(&rm), "MP ratio {rm:.2} out of band");
}

#[test]
fn x2_multi_style_fabric_vs_single_style_baselines() {
    let mp = micropipeline_full_adder(SAFE_FA_MATCHED_DELAY);
    // The paper's fabric takes both styles.
    assert!(compile(&qdi_full_adder(), &FlowOptions::default()).is_ok());
    assert!(compile(&mp, &FlowOptions::default()).is_ok());
    // The PAPA-like fabric refuses bundled data (no PDE).
    let papa = FlowOptions {
        arch: papa_like(1, 1),
        ..FlowOptions::default()
    };
    assert!(compile(&mp, &papa).is_err());
    // The synchronous LUT4 baseline maps QDI only with a clear LE blowup.
    let lut4 = FlowOptions {
        arch: lut4_synchronous(1, 1),
        ..FlowOptions::default()
    };
    let on_lut4 = compile(&qdi_full_adder(), &lut4).unwrap().report;
    let on_paper = compile(&qdi_full_adder(), &FlowOptions::default())
        .unwrap()
        .report;
    assert!(on_lut4.les as f64 >= 1.5 * on_paper.les as f64);
}

#[test]
fn x3_qdi_robust_micropipeline_fragile() {
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), (0..8).collect::<Vec<u64>>());
    let cfg = DiConfig {
        seeds: (0..12).collect(),
        delay_lo: 1,
        delay_hi: 25,
        ..DiConfig::default()
    };
    let qdi = di_stress(&qdi_full_adder(), &inputs, &cfg).unwrap();
    assert!(qdi.is_delay_insensitive(), "{:?}", qdi.failures);
    let mp = di_stress(
        &micropipeline_full_adder(SAFE_FA_MATCHED_DELAY),
        &inputs,
        &cfg,
    )
    .unwrap();
    assert!(
        !mp.is_delay_insensitive(),
        "bundled data must not survive 1..25 adversarial delays on a 12-unit margin"
    );
}

#[test]
fn x4_ablations_cost_a_style_or_density() {
    let qdi = qdi_full_adder();
    let paper = compile(&qdi, &FlowOptions::default()).unwrap().report;

    // no_aux: still maps, but strictly more LEs and lower fill.
    let noaux = FlowOptions {
        arch: ArchSpec::no_aux_outputs(1, 1),
        ..FlowOptions::default()
    };
    let r = compile(&qdi, &noaux).unwrap().report;
    assert!(r.les > paper.les);

    // no_pde: QDI unaffected, micropipeline unmappable.
    let nopde = FlowOptions {
        arch: ArchSpec::no_pde(1, 1),
        ..FlowOptions::default()
    };
    assert!(compile(&qdi, &nopde).is_ok());
    assert!(compile(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &nopde).is_err());

    // no_feedback: still maps (fabric round trip) with more routing.
    let nofb = FlowOptions {
        arch: ArchSpec::no_feedback(1, 1),
        ..FlowOptions::default()
    };
    let r = compile(&qdi, &nofb).unwrap().report;
    assert!(
        r.wirelength > paper.wirelength,
        "feedback through the fabric must cost wirelength ({} vs {})",
        r.wirelength,
        paper.wirelength
    );
}

#[test]
fn no_feedback_fabric_still_functions() {
    // The round-tripped C-elements must still behave: full verification
    // on the ablated architecture.
    let nl = qdi_full_adder();
    let opts = FlowOptions {
        arch: ArchSpec::no_feedback(1, 1),
        ..FlowOptions::default()
    };
    let compiled = compile(&nl, &opts).unwrap();
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), (0..8).collect::<Vec<u64>>());
    let verdict = verify_tokens(
        &nl,
        &compiled.mapped,
        &compiled.config,
        &inputs,
        &PerKindDelay::new(),
        &TokenRunOptions::default(),
    )
    .unwrap();
    assert!(verdict.matches);
}
