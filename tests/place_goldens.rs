//! Placement goldens for the incremental annealing engine (PR 4).
//!
//! The engine's contract: the O(nets-touched) incremental cost path and
//! the O(nets) full-recompute reference path replay the identical move
//! sequence and make bit-identical accept/reject decisions — every
//! per-net HPWL contribution is an integer-valued `f64`, so delta
//! accumulation is exact. These tests pin that contract on real
//! workloads and pin the bench workload's final cost as a drift alarm
//! (`BENCH_cad.json`'s `place_qdi_adder_4b.cost` carries the same
//! number through CI's structural gate).

use msaf::cad::pack::pack;
use msaf::cad::place::{hpwl, place_with, CostMode, PlaceOptions};
use msaf::cad::techmap::map;
use msaf::fabric::arch::ArchSpec;
use msaf::prelude::*;

/// Captured from the incremental engine on the `place_qdi_adder_4b`
/// bench workload (paper arch 8×8, seed 7).
const GOLDEN_ADDER4_COST: f64 = 226.0;

#[test]
fn incremental_and_reference_modes_are_bit_identical() {
    // Several designs, several seeds: same placement, same cost, same
    // move counters in both cost modes.
    let arch = ArchSpec::paper(8, 8);
    for nl in [qdi_ripple_adder(4), qdi_full_adder()] {
        let mapped = map(&nl, &arch).expect("maps");
        let packed = pack(&mapped, &arch).expect("packs");
        for seed in [1, 7, 99] {
            let inc =
                place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(seed)).expect("places");
            let full = place_with(
                &mapped,
                &packed,
                &arch,
                &PlaceOptions {
                    cost_mode: CostMode::FullRecompute,
                    ..PlaceOptions::seeded(seed)
                },
            )
            .expect("places");
            assert_eq!(inc.plb_pos, full.plb_pos, "seed {seed}: placements");
            assert_eq!(inc.cost, full.cost, "seed {seed}: costs");
            assert_eq!(inc.stats, full.stats, "seed {seed}: move counters");
            // And the accumulated cost is the true objective, not an
            // approximation of it.
            assert_eq!(inc.cost, hpwl(&mapped, &packed, &arch, &inc));
        }
    }
}

#[test]
fn bench_workload_final_cost_is_pinned() {
    let arch = ArchSpec::paper(8, 8);
    let nl = qdi_ripple_adder(4);
    let mapped = map(&nl, &arch).expect("maps");
    let packed = pack(&mapped, &arch).expect("packs");
    let pl = place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(7)).expect("places");
    assert_eq!(
        pl.cost, GOLDEN_ADDER4_COST,
        "place_qdi_adder_4b(seed 7) final cost drifted — if intended, \
         re-pin here and regenerate BENCH_cad.json in the same commit"
    );
}
