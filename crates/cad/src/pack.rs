//! Packing: mapped LEs → PLBs (two LEs + one PDE each in the paper's
//! architecture), maximising intra-PLB connectivity so the IM absorbs
//! nets that would otherwise burn routing tracks and PLB pins.

use crate::techmap::{MappedDesign, SignalId, SignalUses};
use msaf_fabric::arch::ArchSpec;
use std::cmp::Reverse;

/// One packed PLB: indices into [`MappedDesign::les`] / `pdes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedPlb {
    /// LEs in this PLB (at most `arch.plb.les`).
    pub les: Vec<usize>,
    /// PDE request hosted here, if any.
    pub pde: Option<usize>,
}

/// The packing result.
#[derive(Debug, Clone, Default)]
pub struct PackedDesign {
    /// The PLBs, in creation order (placement assigns coordinates).
    pub plbs: Vec<PackedPlb>,
}

/// Errors from [`pack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// A single LE's external connectivity exceeds the PLB pin budget —
    /// the architecture is too narrow for the design.
    PinOverflow {
        /// The offending LE index.
        le: usize,
        /// External inputs needed.
        needs: usize,
        /// Pins available.
        available: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::PinOverflow {
                le,
                needs,
                available,
            } => write!(
                f,
                "LE {le} needs {needs} external inputs, PLB offers {available}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// External I/O demand of a tentative PLB: the distinct LEs `les` plus
/// an optional PDE. Costs O(pins of the trial).
///
/// A consumed signal is an external input unless the trial produces it
/// or it is a constant. A produced signal is an external output when it
/// is a primary output, feeds a PDE other than the trial's, or has LE
/// consumers outside the trial.
fn plb_io(
    design: &MappedDesign,
    uses: &SignalUses,
    les: &[usize],
    pde: Option<usize>,
) -> (usize, usize) {
    let mut produced: Vec<SignalId> = Vec::new();
    let mut consumed: Vec<SignalId> = Vec::new();
    for &li in les {
        produced.extend_from_slice(uses.outputs(li));
        consumed.extend_from_slice(uses.inputs(li));
    }
    let pde = pde.map(|pi| design.pdes[pi]);
    if let Some(p) = pde {
        produced.push(p.output);
        consumed.push(p.input);
    }
    for set in [&mut produced, &mut consumed] {
        set.sort_unstable();
        set.dedup();
    }
    let ext_in = consumed
        .iter()
        .filter(|&&s| produced.binary_search(&s).is_err() && !uses.is_const(s))
        .count();
    let ext_out = produced
        .iter()
        .filter(|&&s| {
            let trial_pdes = usize::from(pde.is_some_and(|p| p.input == s));
            let trial_les = les
                .iter()
                .filter(|&&li| uses.inputs(li).binary_search(&s).is_ok())
                .count();
            uses.is_po(s)
                || uses.pde_consumers(s).len() > trial_pdes
                || uses.consumers(s).len() > trial_les
        })
        .count();
    (ext_in, ext_out)
}

/// Whether `les` plus `pde` fit the PLB pin budget of `arch`.
fn fits(
    design: &MappedDesign,
    uses: &SignalUses,
    arch: &ArchSpec,
    les: &[usize],
    pde: Option<usize>,
) -> bool {
    let (ext_in, ext_out) = plb_io(design, uses, les, pde);
    ext_in <= arch.plb.inputs && ext_out <= arch.plb.outputs
}

/// The lowest not-yet-taken slot at or after an index, over `0..n`:
/// a union-find "next" forest with path halving, so skipping taken
/// slots costs near-constant time amortized.
struct NextFree(Vec<usize>);

impl NextFree {
    fn new(n: usize) -> Self {
        Self((0..=n).collect())
    }

    /// The first free slot `>= i`, or `n` when there is none.
    fn first_at(&mut self, mut i: usize) -> usize {
        while self.0[i] != i {
            self.0[i] = self.0[self.0[i]];
            i = self.0[i];
        }
        i
    }

    fn take(&mut self, i: usize) {
        self.0[i] = i + 1;
    }
}

/// `seed`'s unplaced neighbours — the LEs producing or consuming one of
/// its signals — by affinity with the seed (highest first), then index.
///
/// Affinity counts the candidate's input signals, then its output
/// signals, that the seed consumes or produces; a signal the candidate
/// both consumes and produces counts twice.
fn neighbours(uses: &SignalUses, seed: usize, placed: &[bool]) -> Vec<usize> {
    let seed_signals: Vec<SignalId> = uses
        .inputs(seed)
        .iter()
        .chain(uses.outputs(seed))
        .copied()
        .collect();
    let mut found: Vec<usize> = seed_signals
        .iter()
        .flat_map(|&s| uses.consumers(s).iter().copied().chain(uses.producer(s)))
        .filter(|&le| !placed[le])
        .collect();
    found.sort_unstable();
    found.dedup();
    let mut scored: Vec<(Reverse<usize>, usize)> = found
        .into_iter()
        .map(|le| {
            let affinity = uses
                .inputs(le)
                .iter()
                .chain(uses.outputs(le))
                .filter(|s| seed_signals.contains(s))
                .count();
            (Reverse(affinity), le)
        })
        .collect();
    scored.sort_unstable();
    scored.into_iter().map(|(_, le)| le).collect()
}

/// Packs `design` for `arch`.
///
/// Greedy: seed each PLB with the lowest-index unpacked LE, then fill
/// it one LE at a time with the candidate of highest affinity with the
/// seed that keeps the external pin demand within the PLB budget,
/// lowest index first among equals. PDEs are then attached to the PLB
/// with the strongest link to them (+2 for hosting the producer of the
/// PDE's input, +1 per LE consuming its output), first such PLB first.
///
/// Runs in near-linear time: candidates come from the seed's signals
/// through a per-design signal-use index, and each fit is checked in
/// O(pins).
///
/// # Errors
///
/// [`PackError::PinOverflow`] when a single LE cannot fit any PLB.
pub fn pack(design: &MappedDesign, arch: &ArchSpec) -> Result<PackedDesign, PackError> {
    let uses = SignalUses::build(design);
    let n = design.les.len();
    let mut packed: Vec<PackedPlb> = Vec::new();
    let mut placed = vec![false; n];
    let mut unplaced = NextFree::new(n);

    for seed in 0..n {
        if placed[seed] {
            continue;
        }
        let (si, so) = plb_io(design, &uses, &[seed], None);
        if si > arch.plb.inputs || so > arch.plb.outputs {
            return Err(PackError::PinOverflow {
                le: seed,
                needs: si.max(so),
                available: arch.plb.inputs.min(arch.plb.outputs),
            });
        }
        placed[seed] = true;
        unplaced.take(seed);
        let ranked = neighbours(&uses, seed, &placed);
        let mut les = vec![seed];
        while les.len() < arch.plb.les {
            let mut fits_with = |cand: usize| {
                les.push(cand);
                let ok = fits(design, &uses, arch, &les, None);
                les.pop();
                ok
            };
            // A neighbour has affinity ≥ 1, every other LE affinity 0.
            let mut pick = ranked.iter().copied().find(|&c| !placed[c] && fits_with(c));
            if pick.is_none() {
                let mut c = unplaced.first_at(seed + 1);
                while c < n && !fits_with(c) {
                    c = unplaced.first_at(c + 1);
                }
                pick = (c < n).then_some(c);
            }
            let Some(cand) = pick else { break };
            placed[cand] = true;
            unplaced.take(cand);
            les.push(cand);
        }
        packed.push(PackedPlb { les, pde: None });
    }

    // Attach PDEs.
    let mut plb_of = vec![0; n];
    for (bi, plb) in packed.iter().enumerate() {
        for &li in &plb.les {
            plb_of[li] = bi;
        }
    }
    let le_plbs = packed.len();
    let mut free = NextFree::new(le_plbs);
    for (pi, pde) in design.pdes.iter().enumerate() {
        let mut host = None;
        if arch.plb.pde.is_some() {
            // Score the PLBs linked to the PDE, summed per PLB.
            let mut links: Vec<(usize, usize)> = uses
                .producer(pde.input)
                .map(|le| (plb_of[le], 2))
                .into_iter()
                .chain(uses.consumers(pde.output).iter().map(|&le| (plb_of[le], 1)))
                .collect();
            links.sort_unstable();
            let mut scored: Vec<(Reverse<usize>, usize)> = Vec::new();
            for (bi, score) in links {
                match scored.last_mut() {
                    Some((Reverse(total), last)) if *last == bi => *total += score,
                    _ => scored.push((Reverse(score), bi)),
                }
            }
            scored.sort_unstable();
            let free_and_fits = |bi: usize| {
                packed[bi].pde.is_none() && fits(design, &uses, arch, &packed[bi].les, Some(pi))
            };
            host = scored
                .iter()
                .map(|&(_, bi)| bi)
                .find(|&bi| free_and_fits(bi));
            if host.is_none() {
                let mut bi = free.first_at(0);
                while bi < le_plbs && !free_and_fits(bi) {
                    bi = free.first_at(bi + 1);
                }
                host = (bi < le_plbs).then_some(bi);
            }
        }
        match host {
            Some(bi) => {
                packed[bi].pde = Some(pi);
                free.take(bi);
            }
            None => {
                // No existing PLB can host it: dedicate a fresh one.
                packed.push(PackedPlb {
                    les: Vec::new(),
                    pde: Some(pi),
                });
            }
        }
    }

    Ok(PackedDesign { plbs: packed })
}

impl PackedDesign {
    /// Number of PLBs used.
    #[must_use]
    pub fn plb_count(&self) -> usize {
        self.plbs.len()
    }

    /// External inputs/outputs of PLB `i` under `design`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn io_of(&self, design: &MappedDesign, i: usize) -> (usize, usize) {
        let uses = SignalUses::build(design);
        plb_io(design, &uses, &self.plbs[i].les, self.plbs[i].pde)
    }
}

/// The packer as it was before [`SignalUses`]: every trial fit rescans
/// the whole design, so it is cubic in the LE count. Kept verbatim as
/// the equivalence oracle of [`pack`]; only ever run on small designs.
#[cfg(test)]
mod reference {
    use super::{PackError, PackedDesign, PackedPlb};
    use crate::techmap::{MappedDesign, SignalId};
    use msaf_fabric::arch::ArchSpec;
    use std::collections::HashSet;

    /// External I/O demand of a tentative PLB (a set of LEs + optional PDE).
    pub(super) fn plb_io(
        design: &MappedDesign,
        les: &[usize],
        pde: Option<usize>,
    ) -> (usize, usize) {
        let mut produced: HashSet<SignalId> = HashSet::new();
        let mut consumed: HashSet<SignalId> = HashSet::new();
        for &li in les {
            for s in design.les[li].output_signals() {
                produced.insert(s);
            }
            for s in design.les[li].input_signals() {
                consumed.insert(s);
            }
        }
        if let Some(pi) = pde {
            produced.insert(design.pdes[pi].output);
            consumed.insert(design.pdes[pi].input);
        }
        // External inputs: consumed but not produced here and not constant.
        let ext_in = consumed
            .iter()
            .filter(|s| {
                !produced.contains(s)
                    && !matches!(
                        design.producers[s.index()],
                        crate::techmap::Producer::Const(_)
                    )
            })
            .count();
        // External outputs: produced here and needed elsewhere (or a PO).
        let mut needed_elsewhere: HashSet<SignalId> = HashSet::new();
        for (oli, le) in design.les.iter().enumerate() {
            if les.contains(&oli) {
                continue;
            }
            for s in le.input_signals() {
                needed_elsewhere.insert(s);
            }
        }
        for (opi, p) in design.pdes.iter().enumerate() {
            if pde == Some(opi) {
                continue;
            }
            needed_elsewhere.insert(p.input);
        }
        for &po in &design.pos {
            needed_elsewhere.insert(po);
        }
        let ext_out = produced
            .iter()
            .filter(|s| needed_elsewhere.contains(s))
            .count();
        (ext_in, ext_out)
    }

    /// Signals shared between two LEs (affinity score).
    fn affinity(design: &MappedDesign, a: usize, b: usize) -> usize {
        let ia: HashSet<SignalId> = design.les[a]
            .input_signals()
            .into_iter()
            .chain(design.les[a].output_signals())
            .collect();
        design.les[b]
            .input_signals()
            .into_iter()
            .chain(design.les[b].output_signals())
            .filter(|s| ia.contains(s))
            .count()
    }

    /// Packs `design` for `arch`.
    ///
    /// Greedy: seed each PLB with the first unpacked LE, then add the
    /// highest-affinity partners that keep the external pin demand within
    /// the PLB budget. PDEs are attached to the PLB with the strongest
    /// affinity (producer or consumer of the delayed signal inside).
    ///
    /// # Errors
    ///
    /// [`PackError::PinOverflow`] when a single LE cannot fit any PLB.
    pub(super) fn pack_reference(
        design: &MappedDesign,
        arch: &ArchSpec,
    ) -> Result<PackedDesign, PackError> {
        let per_plb = arch.plb.les;
        let in_budget = arch.plb.inputs;
        let out_budget = arch.plb.outputs;

        let mut packed: Vec<PackedPlb> = Vec::new();
        let mut placed = vec![false; design.les.len()];

        for seed in 0..design.les.len() {
            if placed[seed] {
                continue;
            }
            let (si, so) = plb_io(design, &[seed], None);
            if si > in_budget || so > out_budget {
                return Err(PackError::PinOverflow {
                    le: seed,
                    needs: si.max(so),
                    available: in_budget.min(out_budget),
                });
            }
            let mut les = vec![seed];
            placed[seed] = true;
            while les.len() < per_plb {
                let mut best: Option<(usize, usize)> = None; // (le, affinity)
                for (cand, &cand_placed) in placed.iter().enumerate() {
                    if cand_placed {
                        continue;
                    }
                    let mut trial = les.clone();
                    trial.push(cand);
                    let (ti, to) = plb_io(design, &trial, None);
                    if ti > in_budget || to > out_budget {
                        continue;
                    }
                    let a = affinity(design, seed, cand);
                    if best.is_none_or(|(_, ba)| a > ba) {
                        best = Some((cand, a));
                    }
                }
                match best {
                    Some((cand, _)) => {
                        placed[cand] = true;
                        les.push(cand);
                    }
                    None => break,
                }
            }
            packed.push(PackedPlb { les, pde: None });
        }

        // Attach PDEs.
        for (pi, pde) in design.pdes.iter().enumerate() {
            let mut best: Option<(usize, usize)> = None; // (plb, score)
            for (bi, plb) in packed.iter().enumerate() {
                if plb.pde.is_some() || arch.plb.pde.is_none() {
                    continue;
                }
                // Score: the PDE's input produced here, or output consumed here.
                let mut score = 0;
                for &li in &plb.les {
                    if design.les[li].output_signals().contains(&pde.input) {
                        score += 2;
                    }
                    if design.les[li].input_signals().contains(&pde.output) {
                        score += 1;
                    }
                }
                // Keep pin budget honest with the PDE included.
                let (ti, to) = plb_io(design, &plb.les, Some(pi));
                if ti > in_budget || to > out_budget {
                    continue;
                }
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((bi, score));
                }
            }
            match best {
                Some((bi, _)) => packed[bi].pde = Some(pi),
                None => {
                    // No existing PLB can host it: dedicate a fresh one.
                    packed.push(PackedPlb {
                        les: Vec::new(),
                        pde: Some(pi),
                    });
                }
            }
        }

        Ok(PackedDesign { plbs: packed })
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{pack_reference, plb_io as plb_io_reference};
    use super::*;
    use crate::techmap::map;
    use msaf_cells::adders::qdi_ripple_adder;
    use msaf_cells::fulladder::{micropipeline_full_adder, qdi_full_adder, SAFE_FA_MATCHED_DELAY};
    use msaf_netlist::{GateKind, NetId, Netlist};
    use proptest::prelude::*;

    fn arch() -> ArchSpec {
        ArchSpec::paper(8, 8)
    }

    #[test]
    fn qdi_fa_packs_into_few_plbs() {
        let mapped = map(&qdi_full_adder(), &arch()).unwrap();
        let packed = pack(&mapped, &arch()).unwrap();
        let le_total: usize = packed.plbs.iter().map(|p| p.les.len()).sum();
        assert_eq!(le_total, mapped.les.len(), "every LE packed exactly once");
        assert!(
            packed.plb_count() <= mapped.les.len().div_ceil(2) + 1,
            "packing should pair LEs: {} PLBs for {} LEs",
            packed.plb_count(),
            mapped.les.len()
        );
    }

    #[test]
    fn micropipeline_fa_gets_its_pde() {
        let mapped = map(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &arch()).unwrap();
        let packed = pack(&mapped, &arch()).unwrap();
        let pdes: Vec<usize> = packed.plbs.iter().filter_map(|p| p.pde).collect();
        assert_eq!(pdes, vec![0], "the one PDE request must be placed");
    }

    #[test]
    fn pin_budgets_respected() {
        let mapped = map(&qdi_ripple_adder(4), &arch()).unwrap();
        let packed = pack(&mapped, &arch()).unwrap();
        for i in 0..packed.plb_count() {
            let (pin, pout) = packed.io_of(&mapped, i);
            assert!(pin <= arch().plb.inputs, "PLB {i} inputs {pin}");
            assert!(pout <= arch().plb.outputs, "PLB {i} outputs {pout}");
        }
    }

    #[test]
    fn no_pde_arch_gives_pde_its_own_plb_entry() {
        // On a PDE-less architecture the packer cannot place PDEs into
        // any PLB; they end up in fresh (invalid) PLBs, which the bitgen
        // stage rejects — here we just confirm the packer isolates them.
        let a = ArchSpec::no_pde(8, 8);
        let mapped = map(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &a).unwrap();
        let packed = pack(&mapped, &a).unwrap();
        let orphan = packed
            .plbs
            .iter()
            .find(|p| p.pde.is_some())
            .expect("PDE isolated");
        assert!(orphan.les.is_empty());
    }

    /// A random acyclic netlist: every gate reads earlier nets, and nets
    /// nothing reads become primary outputs. C-elements and latches map
    /// to looped LUTs, `Delay`s to PDE requests.
    fn random_netlist(n_inputs: usize, picks: &[(u8, u16, u16, u16)]) -> Netlist {
        let mut nl = Netlist::new("prop_pack");
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| nl.add_input(format!("pi{i}")))
            .collect();
        for (gi, &(sel, a, b, c)) in picks.iter().enumerate() {
            let pick = |k: u16| nets[usize::from(k) % nets.len()];
            let (a, b, c) = (pick(a), pick(b), pick(c));
            let (kind, ins) = match sel % 10 {
                0 => (GateKind::Not, vec![a]),
                1 => (GateKind::And, vec![a, b]),
                2 => (GateKind::Or, vec![a, b, c]),
                3 => (GateKind::Xor, vec![a, b]),
                4 => (GateKind::Nor, vec![a, b, c]),
                5 => (GateKind::Celement, vec![a, b]),
                6 => (GateKind::Celement, vec![a, b, c]),
                7 => (GateKind::Latch, vec![a, b]),
                8 => (GateKind::Mux2, vec![a, b, c]),
                _ => (GateKind::Delay(u32::from(sel)), vec![a]),
            };
            let (_, y) = nl.add_gate_new(kind, format!("g{gi}"), &ins);
            nets.push(y);
        }
        let danglers: Vec<NetId> = nl
            .iter_nets()
            .filter(|(_, n)| n.sinks().is_empty())
            .map(|(id, _)| id)
            .collect();
        for id in danglers {
            nl.mark_output(id);
        }
        nl
    }

    /// One of the paper's ablations, optionally with its PLB resized to
    /// `les` LEs and its (input, output) pin budgets set to `pins`.
    fn arch_variant(base: usize, resize: bool, les: usize, pins: (usize, usize)) -> ArchSpec {
        let mut arch = match base {
            0 => ArchSpec::paper(4, 4),
            1 => ArchSpec::no_aux_outputs(4, 4),
            2 => ArchSpec::no_pde(4, 4),
            3 => ArchSpec::no_lut2(4, 4),
            _ => ArchSpec::no_feedback(4, 4),
        };
        if resize {
            arch.plb.les = les;
            (arch.plb.inputs, arch.plb.outputs) = pins;
        }
        arch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // The indexed packer returns exactly the reference packer's PLBs,
        // pin-overflow errors included, and `io_of` agrees with the
        // reference pin count on every PLB.
        #[test]
        fn pack_equals_the_reference_packer(
            n_inputs in 1usize..6,
            picks in proptest::collection::vec(
                (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()), 1..40),
            shape in (0usize..5, 0usize..2, 1usize..5),
            pins in (2usize..11, 1usize..7),
        ) {
            let nl = random_netlist(n_inputs, &picks);
            let arch = arch_variant(shape.0, shape.1 == 1, shape.2, pins);
            let mapped = map(&nl, &arch);
            prop_assume!(mapped.is_ok());
            let mapped = mapped.unwrap();
            let got = pack(&mapped, &arch);
            let want = pack_reference(&mapped, &arch);
            prop_assert_eq!(
                got.as_ref().map(|p| &p.plbs),
                want.as_ref().map(|p| &p.plbs)
            );
            if let Ok(packed) = got {
                for (i, plb) in packed.plbs.iter().enumerate() {
                    prop_assert_eq!(
                        packed.io_of(&mapped, i),
                        plb_io_reference(&mapped, &plb.les, plb.pde)
                    );
                }
            }
        }
    }
}
