//! Placement: packed PLBs onto the island grid plus I/O pad assignment,
//! by seeded simulated annealing with a half-perimeter wirelength
//! (HPWL) objective.
//!
//! # Incremental cost engine
//!
//! The annealer evaluates every proposed swap in **O(nets touched)**,
//! not O(nets): a per-net bounding-box cache holds each net's current
//! extent and cost, a CSR PLB→nets membership index names exactly the
//! nets a move can affect, and the move's delta is the sum of the
//! touched nets' recomputed costs minus their cached ones. Every
//! per-net cost is an integer-valued `f64` (`Δx + Δy + 1` over grid
//! coordinates), so incremental accumulation is *exact* — no floating
//! point drift ever separates the running cost from a full recompute.
//! That exactness is load-bearing: [`CostMode::FullRecompute`] replays
//! the identical move sequence with a full-HPWL recompute per move and
//! must accept/reject bit-identically (the same seed then yields the
//! same final placement and cost — pinned by `tests/place_goldens.rs`
//! and a property test over random seeds).
//!
//! # Move generator
//!
//! Moves are **range-limited** (VPR-style): pick a random PLB, then a
//! random target slot within a `±rlim` window around it. The window
//! starts at the whole chip and adapts each temperature step toward a
//! ~44% acceptance rate (`rlim × (0.56 + rate)`, clamped to the grid),
//! so early high-temperature moves explore globally while late moves
//! fine-tune locally — the classic annealing efficiency refinement that
//! matters once fabric-scale grids make random global swaps useless.

use crate::pack::PackedDesign;
use crate::techmap::{MappedDesign, Producer, SignalId};
use msaf_fabric::arch::ArchSpec;
use msaf_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The placement result.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Grid coordinates of each packed PLB (indexed like
    /// [`PackedDesign::plbs`]).
    pub plb_pos: Vec<(usize, usize)>,
    /// Pad index for each design-level I/O signal.
    pub pad_of_signal: HashMap<SignalId, usize>,
    /// Final HPWL cost.
    pub cost: f64,
    /// Annealing effort counters.
    pub stats: PlaceStats,
}

/// Annealing effort counters — the observables the placement benchmark
/// rows track (`moves_attempted / best_ms` is the moves-per-second
/// figure `BENCH_cad.json` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceStats {
    /// Proposed moves evaluated (identical across cost modes: the move
    /// sequence is driven by the seed alone).
    pub moves_attempted: u64,
    /// Moves accepted by the Metropolis criterion.
    pub moves_accepted: u64,
}

/// How the annealer evaluates a move's cost delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CostMode {
    /// O(nets-touched) delta from the per-net bounding-box cache — the
    /// production mode.
    #[default]
    Incremental,
    /// Full-HPWL recompute per move — the O(nets) reference the
    /// incremental engine is pinned bit-identical against. Only used by
    /// tests and the benchmark's speedup baseline.
    FullRecompute,
}

/// Tuning knobs for [`place_with`].
#[derive(Debug, Clone, Default)]
pub struct PlaceOptions {
    /// Annealing seed (same seed ⇒ same placement, in either cost mode).
    pub seed: u64,
    /// Delta evaluation strategy.
    pub cost_mode: CostMode,
    /// Flight recorder: one `place.temperature` event per annealing
    /// temperature step (temperature, acceptance rate, cost, range
    /// limit — i.e. progress every `moves_per_t` moves) and a running
    /// `place.cost` counter. No-op by default. Tracing observes only:
    /// the move sequence, acceptances and final placement are
    /// byte-identical with any sink or none (the RNG stream and cost
    /// arithmetic never see the tracer).
    pub tracer: Tracer,
}

impl PlaceOptions {
    /// Untraced incremental-mode options with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Errors from [`place`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Grid too small for the PLB count.
    GridTooSmall {
        /// PLBs to place.
        needed: usize,
        /// Grid capacity.
        capacity: usize,
    },
    /// Not enough perimeter pads for the design's I/O signals.
    NotEnoughPads {
        /// I/O signals to bind.
        needed: usize,
        /// Pads available.
        available: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::GridTooSmall { needed, capacity } => {
                write!(f, "{needed} PLBs exceed grid capacity {capacity}")
            }
            PlaceError::NotEnoughPads { needed, available } => {
                write!(f, "{needed} I/O signals exceed {available} pads")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Pad grid position (same convention as `Rrg::pad_position`, duplicated
/// here so placement does not need the full graph).
fn pad_position(arch: &ArchSpec, id: usize) -> (usize, usize) {
    let (w, h) = (arch.width, arch.height);
    if id < w {
        (id, 0)
    } else if id < 2 * w {
        (id - w, h - 1)
    } else if id < 2 * w + h {
        (0, id - 2 * w)
    } else {
        (w - 1, id - 2 * w - h)
    }
}

/// One net of the HPWL objective: the PLBs touching a routed signal plus
/// an optional fixed pad endpoint (pads never move during annealing, so
/// their coordinate folds into a constant).
struct Net {
    /// PLB endpoints (unique).
    plbs: Vec<u32>,
    /// Fixed pad coordinate, when the signal is bound to a pad.
    pad: Option<(usize, usize)>,
}

/// A net's cached HPWL contribution (bounding-box half-perimeter + 1),
/// always an exact integer in `f64`.
#[derive(Clone, Copy)]
struct NetBox {
    cost: f64,
}

/// Builds the signal → endpoints table used by the HPWL objective: for
/// each routed signal, the PLB indices that produce/consume it and
/// whether it touches a pad.
struct NetModel {
    /// (plb endpoints, io signal?) per signal that crosses PLBs.
    nets: Vec<(SignalId, Vec<usize>)>,
}

impl NetModel {
    fn build(design: &MappedDesign, packed: &PackedDesign) -> Self {
        // signal -> PLBs touching it.
        let mut touch: HashMap<SignalId, Vec<usize>> = HashMap::new();
        for (bi, plb) in packed.plbs.iter().enumerate() {
            let mut sigs: Vec<SignalId> = Vec::new();
            for &li in &plb.les {
                sigs.extend(design.les[li].input_signals());
                sigs.extend(design.les[li].output_signals());
            }
            if let Some(pi) = plb.pde {
                sigs.push(design.pdes[pi].input);
                sigs.push(design.pdes[pi].output);
            }
            sigs.sort();
            sigs.dedup();
            for s in sigs {
                touch.entry(s).or_default().push(bi);
            }
        }
        // Keep signals that span >1 PLB or touch the environment.
        let mut nets: Vec<(SignalId, Vec<usize>)> = touch
            .into_iter()
            .filter(|(s, plbs)| {
                plbs.len() > 1
                    || matches!(design.producers[s.index()], Producer::Pi)
                    || design.pos.contains(s)
            })
            .collect();
        nets.sort_by_key(|(s, _)| *s);
        Self { nets }
    }
}

/// The deterministic initial pad binding: I/O signals spread evenly
/// around the perimeter.
fn initial_pads(io: &[SignalId], pad_total: usize) -> HashMap<SignalId, usize> {
    let stride = (pad_total / io.len().max(1)).max(1);
    io.iter()
        .enumerate()
        .map(|(i, &s)| (s, (i * stride) % pad_total))
        .collect()
}

/// Half-perimeter wirelength of `placement` for the given design — the
/// exact objective the annealer minimises, recomputed from scratch.
///
/// Public so tests and reports can compare placements against the true
/// cost (the annealer's final [`Placement::cost`] is guaranteed to equal
/// this value bit-for-bit: every per-net cost is an integer-valued
/// `f64`, so the incremental accumulation never drifts).
#[must_use]
pub fn hpwl(
    design: &MappedDesign,
    packed: &PackedDesign,
    arch: &ArchSpec,
    placement: &Placement,
) -> f64 {
    let model = NetModel::build(design, packed);
    let mut total = 0.0;
    for (s, plbs) in &model.nets {
        let mut min_x = usize::MAX;
        let mut max_x = 0;
        let mut min_y = usize::MAX;
        let mut max_y = 0;
        let mut any = false;
        let mut add = |x: usize, y: usize| {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            any = true;
        };
        for &bi in plbs {
            let (x, y) = placement.plb_pos[bi];
            add(x, y);
        }
        if let Some(&pad) = placement.pad_of_signal.get(s) {
            let (x, y) = pad_position(arch, pad);
            add(x, y);
        }
        if any {
            total += (max_x - min_x + max_y - min_y) as f64 + 1.0;
        }
    }
    total
}

/// The annealing engine: slots, per-net bounding-box cache and the CSR
/// PLB→nets membership index.
struct Annealer {
    width: usize,
    /// Nets with fixed pad endpoints folded in.
    nets: Vec<Net>,
    /// CSR index: `net_items[net_start[bi]..net_start[bi + 1]]` are the
    /// nets PLB `bi` touches — the only nets a move of `bi` can affect.
    net_start: Vec<u32>,
    net_items: Vec<u32>,
    /// plb -> slot.
    pos: Vec<usize>,
    /// slot -> plb.
    slots: Vec<Option<usize>>,
    /// Per-net cached cost (always equal to a fresh recompute).
    cache: Vec<NetBox>,
    /// Dedup stamp per net for touched-set gathering.
    net_stamp: Vec<u32>,
    stamp: u32,
    /// Scratch: touched net indices and their recomputed boxes.
    touched: Vec<u32>,
    fresh: Vec<NetBox>,
}

impl Annealer {
    fn new(
        model: &NetModel,
        pads: &HashMap<SignalId, usize>,
        arch: &ArchSpec,
        n: usize,
        capacity: usize,
    ) -> Self {
        let nets: Vec<Net> = model
            .nets
            .iter()
            .map(|(s, plbs)| Net {
                plbs: plbs.iter().map(|&bi| bi as u32).collect(),
                pad: pads.get(s).map(|&pad| pad_position(arch, pad)),
            })
            .collect();
        // CSR membership: count, prefix-sum, fill.
        let mut net_start = vec![0u32; n + 1];
        for net in &nets {
            for &bi in &net.plbs {
                net_start[bi as usize + 1] += 1;
            }
        }
        for i in 0..n {
            net_start[i + 1] += net_start[i];
        }
        let mut cursor = net_start.clone();
        let mut net_items = vec![0u32; net_start[n] as usize];
        for (ni, net) in nets.iter().enumerate() {
            for &bi in &net.plbs {
                net_items[cursor[bi as usize] as usize] = ni as u32;
                cursor[bi as usize] += 1;
            }
        }

        let mut slots: Vec<Option<usize>> = vec![None; capacity];
        let pos: Vec<usize> = (0..n).collect();
        for (bi, &slot) in pos.iter().enumerate() {
            slots[slot] = Some(bi);
        }
        let n_nets = nets.len();
        let mut a = Self {
            width: arch.width,
            nets,
            net_start,
            net_items,
            pos,
            slots,
            cache: Vec::with_capacity(n_nets),
            net_stamp: vec![0; n_nets],
            stamp: 0,
            touched: Vec::new(),
            fresh: Vec::new(),
        };
        for ni in 0..n_nets {
            let nb = a.net_box(ni);
            a.cache.push(nb);
        }
        a
    }

    #[inline]
    fn coord(&self, slot: usize) -> (usize, usize) {
        (slot % self.width, slot / self.width)
    }

    /// Recomputes one net's extent and cost from current positions.
    fn net_box(&self, ni: usize) -> NetBox {
        let net = &self.nets[ni];
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (usize::MAX, 0usize, usize::MAX, 0usize);
        for &bi in &net.plbs {
            let (x, y) = self.coord(self.pos[bi as usize]);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        if let Some((x, y)) = net.pad {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        NetBox {
            cost: (max_x - min_x + max_y - min_y) as f64 + 1.0,
        }
    }

    /// Total HPWL from scratch — the FullRecompute reference path.
    fn full_cost(&self) -> f64 {
        (0..self.nets.len()).map(|ni| self.net_box(ni).cost).sum()
    }

    /// Swaps the occupants of slots `a` and `b` (either may be empty).
    fn apply_swap(&mut self, a: usize, b: usize) {
        let (oa, ob) = (self.slots[a], self.slots[b]);
        self.slots[a] = ob;
        self.slots[b] = oa;
        if let Some(bi) = self.slots[a] {
            self.pos[bi] = a;
        }
        if let Some(bi) = self.slots[b] {
            self.pos[bi] = b;
        }
    }

    /// Collects the deduplicated nets touched by moving `bi` (and the
    /// displaced occupant, if any) into `self.touched`.
    fn gather_touched(&mut self, bi: usize, displaced: Option<usize>) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.net_stamp.fill(0);
            self.stamp = 1;
        }
        self.touched.clear();
        for plb in std::iter::once(bi).chain(displaced) {
            let lo = self.net_start[plb] as usize;
            let hi = self.net_start[plb + 1] as usize;
            for &ni in &self.net_items[lo..hi] {
                if self.net_stamp[ni as usize] != self.stamp {
                    self.net_stamp[ni as usize] = self.stamp;
                    self.touched.push(ni);
                }
            }
        }
    }

    /// Incremental delta of the already-applied swap: recompute every
    /// touched net's box and diff against the cache (`self.fresh` holds
    /// the new boxes for a subsequent [`Self::commit`]).
    fn incremental_delta(&mut self) -> f64 {
        self.fresh.clear();
        let mut delta = 0.0;
        for i in 0..self.touched.len() {
            let ni = self.touched[i] as usize;
            let nb = self.net_box(ni);
            delta += nb.cost - self.cache[ni].cost;
            self.fresh.push(nb);
        }
        delta
    }

    /// Writes the recomputed boxes of the touched nets into the cache.
    fn commit(&mut self) {
        for (&ni, &nb) in self.touched.iter().zip(&self.fresh) {
            self.cache[ni as usize] = nb;
        }
    }
}

/// Places `packed` onto the grid of `arch` with annealing seeded by
/// `seed` (incremental cost mode).
///
/// # Errors
///
/// See [`PlaceError`].
pub fn place(
    design: &MappedDesign,
    packed: &PackedDesign,
    arch: &ArchSpec,
    seed: u64,
) -> Result<Placement, PlaceError> {
    place_with(design, packed, arch, &PlaceOptions::seeded(seed))
}

/// Places `packed` onto the grid of `arch` under explicit options.
///
/// Both [`CostMode`]s run the identical move sequence (the RNG stream
/// depends only on the seed) and compute bit-identical deltas, so the
/// final placement and cost are the same — the incremental mode is just
/// O(nets-touched) per move instead of O(nets).
///
/// # Errors
///
/// See [`PlaceError`].
pub fn place_with(
    design: &MappedDesign,
    packed: &PackedDesign,
    arch: &ArchSpec,
    opts: &PlaceOptions,
) -> Result<Placement, PlaceError> {
    let capacity = arch.plb_count();
    let n = packed.plb_count();
    if n > capacity {
        return Err(PlaceError::GridTooSmall {
            needed: n,
            capacity,
        });
    }
    let io = design.io_signals();
    let pad_total = 2 * arch.width + 2 * arch.height;
    if io.len() > pad_total {
        return Err(PlaceError::NotEnoughPads {
            needed: io.len(),
            available: pad_total,
        });
    }

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let pad_of_signal = initial_pads(&io, pad_total);
    let model = NetModel::build(design, packed);
    let mut eng = Annealer::new(&model, &pad_of_signal, arch, n, capacity);

    let mut cost: f64 = eng.cache.iter().map(|nb| nb.cost).sum();
    let mut stats = PlaceStats::default();
    if n > 0 && !eng.nets.is_empty() {
        let (w, h) = (arch.width, arch.height);
        // Annealing schedule: geometric cooling; range-limited moves
        // with a window that adapts toward ~44% acceptance.
        let mut temp = (cost / eng.nets.len() as f64).max(1.0) * 2.0;
        let max_dim = w.max(h) as f64;
        let mut rlim = max_dim;
        let moves_per_t = (20 * n).max(50);
        while temp > 0.01 {
            let mut accepted_this_t = 0u64;
            let mut attempted_this_t = 0u64;
            for _ in 0..moves_per_t {
                // Range-limited proposal: a random PLB, a random target
                // slot within the ±rlim window around it.
                let bi = rng.random_range(0..n);
                let a = eng.pos[bi];
                let (ax, ay) = eng.coord(a);
                let r = rlim as usize;
                let x_lo = ax.saturating_sub(r);
                let x_hi = (ax + r).min(w - 1);
                let y_lo = ay.saturating_sub(r);
                let y_hi = (ay + r).min(h - 1);
                let tx = rng.random_range(x_lo..=x_hi);
                let ty = rng.random_range(y_lo..=y_hi);
                let b = ty * w + tx;
                if a == b {
                    continue;
                }
                attempted_this_t += 1;
                let displaced = eng.slots[b];
                eng.gather_touched(bi, displaced);
                eng.apply_swap(a, b);
                let delta = match opts.cost_mode {
                    CostMode::Incremental => eng.incremental_delta(),
                    CostMode::FullRecompute => {
                        // The O(nets) reference. Both paths are exact
                        // integer arithmetic in f64, so they agree
                        // bit-for-bit — asserted here so any future
                        // drift fails loudly in debug builds.
                        let inc = eng.incremental_delta();
                        let full = eng.full_cost() - cost;
                        debug_assert!(
                            full == inc,
                            "incremental delta {inc} != full recompute {full}"
                        );
                        full
                    }
                };
                if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                    cost += delta;
                    eng.commit();
                    accepted_this_t += 1;
                } else {
                    eng.apply_swap(a, b);
                }
            }
            stats.moves_attempted += attempted_this_t;
            stats.moves_accepted += accepted_this_t;
            // VPR-style window adaptation: aim for ~44% acceptance.
            let rate = if attempted_this_t == 0 {
                0.0
            } else {
                accepted_this_t as f64 / attempted_this_t as f64
            };
            // Annealing progress, once per temperature step (i.e. every
            // `moves_per_t` moves): enough to plot the cooling curve
            // without per-move overhead.
            opts.tracer.event("place.temperature", || {
                vec![
                    ("temp", temp.into()),
                    ("acceptance", rate.into()),
                    ("cost", cost.into()),
                    ("rlim", rlim.into()),
                    ("moves", attempted_this_t.into()),
                ]
            });
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            opts.tracer.counter("place.cost", cost.max(0.0) as u64);
            rlim = (rlim * (0.56 + rate)).clamp(1.0, max_dim);
            temp *= 0.8;
        }
    }

    Ok(Placement {
        plb_pos: eng.pos.iter().map(|&slot| eng.coord(slot)).collect(),
        pad_of_signal,
        cost,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use crate::techmap::map;
    use msaf_cells::adders::qdi_ripple_adder;
    use msaf_cells::fulladder::qdi_full_adder;
    use proptest::prelude::*;

    fn setup() -> (MappedDesign, PackedDesign, ArchSpec) {
        let arch = ArchSpec::paper(4, 4);
        let mapped = map(&qdi_full_adder(), &arch).unwrap();
        let packed = pack(&mapped, &arch).unwrap();
        (mapped, packed, arch)
    }

    #[test]
    fn placement_is_legal() {
        let (mapped, packed, arch) = setup();
        let pl = place(&mapped, &packed, &arch, 42).unwrap();
        assert_eq!(pl.plb_pos.len(), packed.plb_count());
        // No two PLBs on the same tile.
        let mut seen = std::collections::HashSet::new();
        for &p in &pl.plb_pos {
            assert!(p.0 < arch.width && p.1 < arch.height);
            assert!(seen.insert(p), "tile {p:?} double-booked");
        }
        // Every I/O signal got a distinct pad.
        let mut pads = std::collections::HashSet::new();
        for &pad in pl.pad_of_signal.values() {
            assert!(pads.insert(pad), "pad {pad} double-booked");
        }
        assert!(pl.stats.moves_attempted > 0);
        assert!(pl.stats.moves_accepted <= pl.stats.moves_attempted);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let (mapped, packed, arch) = setup();
        let a = place(&mapped, &packed, &arch, 7).unwrap();
        let b = place(&mapped, &packed, &arch, 7).unwrap();
        assert_eq!(a.plb_pos, b.plb_pos);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn grid_too_small_detected() {
        let (mapped, packed, _) = setup();
        let tiny = ArchSpec::paper(1, 1);
        let err = place(&mapped, &packed, &tiny, 0).unwrap_err();
        assert!(matches!(err, PlaceError::GridTooSmall { .. }));
    }

    #[test]
    fn final_cost_equals_true_hpwl() {
        // The cached incremental cost must never drift from the real
        // objective.
        let (mapped, packed, arch) = setup();
        let pl = place(&mapped, &packed, &arch, 42).unwrap();
        assert_eq!(pl.cost, hpwl(&mapped, &packed, &arch, &pl));
    }

    #[test]
    fn annealing_not_worse_than_initial() {
        // With a fixed seed the annealer must end at a cost no worse
        // than the starting row-major layout — compared against the
        // *true* initial HPWL via the public helper (the original form
        // of this test could only sanity-check positivity because the
        // cost function was private).
        let (mapped, packed, arch) = setup();
        let pl = place(&mapped, &packed, &arch, 3).unwrap();
        let initial = Placement {
            plb_pos: (0..packed.plb_count())
                .map(|bi| (bi % arch.width, bi / arch.width))
                .collect(),
            pad_of_signal: pl.pad_of_signal.clone(),
            cost: 0.0,
            stats: PlaceStats::default(),
        };
        let initial_cost = hpwl(&mapped, &packed, &arch, &initial);
        assert!(initial_cost > 0.0);
        assert!(
            pl.cost <= initial_cost,
            "annealing ended worse than it started: {} > {}",
            pl.cost,
            initial_cost
        );
    }

    #[test]
    fn cost_modes_are_bit_identical() {
        let (mapped, packed, arch) = setup();
        for seed in [0, 1, 7, 42] {
            let inc = place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(seed)).unwrap();
            let full = place_with(
                &mapped,
                &packed,
                &arch,
                &PlaceOptions {
                    cost_mode: CostMode::FullRecompute,
                    ..PlaceOptions::seeded(seed)
                },
            )
            .unwrap();
            assert_eq!(inc.plb_pos, full.plb_pos, "seed {seed}: placements differ");
            assert_eq!(inc.cost, full.cost, "seed {seed}: costs differ");
            assert_eq!(inc.stats, full.stats, "seed {seed}: move counts differ");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Over random seeds (and therefore random move sequences), the
        // incremental delta accumulation agrees with full recomputation:
        // both cost modes land on the identical placement, and the
        // accumulated cost equals a from-scratch HPWL of the result.
        #[test]
        fn incremental_equals_full_recompute(seed in any::<u64>()) {
            let arch = ArchSpec::paper(5, 5);
            let mapped = map(&qdi_ripple_adder(1), &arch).unwrap();
            let packed = pack(&mapped, &arch).unwrap();
            let inc = place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(seed)).unwrap();
            let full = place_with(
                &mapped,
                &packed,
                &arch,
                &PlaceOptions { cost_mode: CostMode::FullRecompute, ..PlaceOptions::seeded(seed) },
            )
            .unwrap();
            prop_assert_eq!(&inc.plb_pos, &full.plb_pos);
            prop_assert_eq!(inc.cost, full.cost);
            prop_assert_eq!(inc.cost, hpwl(&mapped, &packed, &arch, &inc));
        }
    }
}
