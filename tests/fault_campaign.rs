//! Cross-crate contract tests for the fault-injection campaign engine
//! (`msaf_sim::faults`): the paper's style-robustness tradeoff held as
//! executable invariants over compiled `.msa` designs.
//!
//! * the delay-fault envelope — QDI/WCHB show **zero** token
//!   corruptions under any per-gate slowdown, bundled data corrupts
//!   once the matched-delay slack is exceeded;
//! * per-data-value glitch attribution — QDI's histogram is empty,
//!   bundled's is non-flat (the data-dependent hazard signature);
//! * determinism — identical `FaultReport` digest at 1 and 4 worker
//!   threads, over randomized campaign shapes (property test);
//! * the fir4 smoke — one fault class per style on the largest committed
//!   example, with the expected classification for each.

use msaf::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ADDER4: &str = include_str!("../examples/msa/adder4.msa");
const FIR4: &str = include_str!("../examples/msa/fir4.msa");

fn compiled(src: &str, style: Style) -> Netlist {
    compile_msa(src, style).expect("committed example compiles")
}

/// Satellite 3: glitch attribution by output data value, asserted
/// style-by-style. A QDI full adder is hazard-free under adversarial
/// delays (empty histogram); a micropipeline full adder with a mid-size
/// matched delay glitches, and the pulses key to specific data values.
#[test]
fn glitch_histograms_separate_the_styles() {
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), (0..8).collect::<Vec<u64>>());
    let cfg = DiConfig {
        seeds: (0..12).collect(),
        delay_lo: 1,
        delay_hi: 25,
        ..DiConfig::default()
    };

    let qdi = di_stress(&qdi_full_adder(), &inputs, &cfg).expect("reference runs");
    assert!(qdi.is_delay_insensitive());
    assert_eq!(qdi.total_glitches, 0, "QDI full adder must be hazard-free");
    assert!(qdi.glitches_by_value.is_empty());

    let bundled = di_stress(&micropipeline_full_adder(20), &inputs, &cfg).expect("reference runs");
    assert!(
        bundled.total_glitches > 0,
        "an under-margined bundled datapath must glitch under delay stress"
    );
    // Every glitch is attributed to exactly one output value...
    let attributed: usize = bundled.glitches_by_value.values().sum();
    assert_eq!(attributed, bundled.total_glitches);
    // ...and the histogram is data-dependent, not flat: at least two
    // distinct values with different counts (the side-channel signature).
    let counts: Vec<usize> = bundled.glitches_by_value.values().copied().collect();
    assert!(
        counts.len() >= 2 && counts.iter().any(|&c| c != counts[0]),
        "expected a non-flat per-value histogram, got {:?}",
        bundled.glitches_by_value
    );
}

/// The committed adder4 campaign seen end-to-end through the facade:
/// the same contract `BENCH_faults.json` pins, asserted per style.
#[test]
fn adder4_campaign_respects_the_style_contract() {
    for style in Style::ALL {
        let nl = compiled(ADDER4, style);
        let stimulus = default_stimulus(&nl);
        let report = run_campaign(
            &nl,
            &PerKindDelay::new(),
            &stimulus,
            &CampaignOptions::default(),
        )
        .expect("clean reference");
        let delay = report.summary("delay");
        if style == Style::Bundled {
            assert!(
                report.delay_corruption_threshold().is_some(),
                "bundled adder4 must corrupt within the swept delay multipliers"
            );
        } else {
            assert_eq!(
                delay.corrupted, 0,
                "{style}: a delay fault corrupted a DI style"
            );
            assert_eq!(report.delay_corruption_threshold(), None);
        }
        // Every deadlock carries its diagnosis: a named channel.
        for r in &report.results {
            if let FaultOutcome::Deadlocked { channel } = &r.outcome {
                assert!(
                    !channel.is_empty() && channel != "?",
                    "{style}: deadlocked fault at {} lost its channel diagnosis",
                    r.site
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Satellite 4: the campaign digest is a pure function of the fault
    // list — randomizing the campaign shape (site budgets, SEU
    // sampling, delay sweep) and the worker count never changes it,
    // and re-running the identical campaign reproduces it exactly.
    #[test]
    fn campaign_digest_is_thread_and_rerun_stable(
        max_stuck in 2usize..10,
        max_seu in 1usize..6,
        seu_samples in 1usize..4,
        mult_hi in 1usize..4,
    ) {
        let nl = compiled(ADDER4, Style::Qdi);
        let stimulus = default_stimulus(&nl);
        let opts = CampaignOptions {
            max_stuck_sites: max_stuck,
            max_seu_sites: max_seu,
            seu_samples,
            max_delay_sites: 4,
            delay_mults: (1..=mult_hi).map(|k| 1 << k).collect(),
            ..CampaignOptions::default()
        };
        let serial = run_campaign(&nl, &PerKindDelay::new(), &stimulus, &opts)
            .expect("clean reference");
        let parallel = run_campaign(
            &nl,
            &PerKindDelay::new(),
            &stimulus,
            &CampaignOptions { threads: 4, ..opts.clone() },
        )
        .expect("clean reference");
        let rerun = run_campaign(&nl, &PerKindDelay::new(), &stimulus, &opts)
            .expect("clean reference");

        prop_assert_eq!(serial.digest(), parallel.digest(), "thread count changed the digest");
        prop_assert_eq!(serial.digest(), rerun.digest(), "rerun changed the digest");
        // Stable enumeration: the site sequences agree row-for-row, not
        // just in aggregate.
        let sites = |r: &FaultReport| -> Vec<String> {
            r.results.iter().map(|f| f.site.clone()).collect()
        };
        prop_assert_eq!(sites(&serial), sites(&parallel));
    }
}

/// One fault class per style on fir4, the largest committed example.
#[test]
fn fir4_fault_smoke() {
    // QDI + delay faults: every outcome masked or detected, never a
    // corrupted token.
    let qdi = compiled(FIR4, Style::Qdi);
    let report = run_campaign(
        &qdi,
        &PerKindDelay::new(),
        &default_stimulus(&qdi),
        &CampaignOptions {
            max_stuck_sites: 0,
            max_seu_sites: 0,
            max_delay_sites: 6,
            delay_mults: vec![4, 16],
            threads: 4,
            ..CampaignOptions::default()
        },
    )
    .expect("clean reference");
    let delay = report.summary("delay");
    assert!(delay.faults > 0);
    assert_eq!(delay.corrupted, 0, "delay fault corrupted QDI fir4");

    // WCHB + stuck-at on the protocol surface: nothing silent — every
    // non-masked outcome is a diagnosed deadlock naming its channel.
    let wchb = compiled(FIR4, Style::Wchb);
    let report = run_campaign(
        &wchb,
        &PerKindDelay::new(),
        &default_stimulus(&wchb),
        &CampaignOptions {
            max_stuck_sites: 6,
            max_seu_sites: 0,
            max_delay_sites: 0,
            threads: 4,
            ..CampaignOptions::default()
        },
    )
    .expect("clean reference");
    let stuck0 = report.summary("stuck-at-0");
    let stuck1 = report.summary("stuck-at-1");
    assert!(
        stuck0.deadlocked + stuck1.deadlocked > 0,
        "no stuck-at deadlocked"
    );
    assert_eq!(
        stuck0.corrupted + stuck1.corrupted,
        0,
        "stuck-at silently corrupted WCHB"
    );
    for r in &report.results {
        if let FaultOutcome::Deadlocked { channel } = &r.outcome {
            assert!(
                !channel.is_empty() && channel != "?",
                "undiagnosed deadlock at {}",
                r.site
            );
        }
    }

    // Bundled + delay faults: a finite corruption threshold — the
    // matched-delay assumption fails under a large enough slowdown.
    let bundled = compiled(FIR4, Style::Bundled);
    let report = run_campaign(
        &bundled,
        &PerKindDelay::new(),
        &default_stimulus(&bundled),
        &CampaignOptions {
            max_stuck_sites: 0,
            max_seu_sites: 0,
            max_delay_sites: 8,
            delay_mults: vec![2, 8, 32],
            threads: 4,
            ..CampaignOptions::default()
        },
    )
    .expect("clean reference");
    assert!(
        report.delay_corruption_threshold().is_some(),
        "bundled fir4 never corrupted: {:?}",
        report.summary("delay")
    );
}
