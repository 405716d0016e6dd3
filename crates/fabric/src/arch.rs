//! Architecture description: every dimension of the fabric is a
//! parameter, because the paper's stated goal is *genericity* — "the
//! structure is well suited to be rebuilt and adapted" (abstract). The
//! ablation experiment (X4, the `ext_arch_ablation` binary in
//! `msaf-bench`) exercises exactly these knobs.

use serde::{Deserialize, Serialize};

/// Switch-box topology joining the routing channels at each grid corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchBoxKind {
    /// Track `t` connects to track `t` on the other three sides
    /// (the classic "disjoint"/"planar" box; cheap, keeps tracks in
    /// independent domains).
    Disjoint,
    /// Wilton-style rotation: turning connections shift track index by
    /// one, improving routability at equal cost.
    Wilton,
}

/// Logic-element geometry (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LeSpec {
    /// LUT inputs (7 in the paper).
    pub lut_inputs: usize,
    /// Exported LUT outputs: 1 = root only (a plain LUT-k), 3 = the
    /// paper's multi-output LUT7-3 (two depth-(k-1) subtrees + root).
    pub lut_outputs: usize,
    /// Whether the validity LUT2-1 is present, plugged onto the two
    /// subtree outputs.
    pub has_lut2: bool,
}

impl LeSpec {
    /// The paper's LE: LUT7-3 plus LUT2-1.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            lut_inputs: 7,
            lut_outputs: 3,
            has_lut2: true,
        }
    }

    /// Inputs visible to each subtree output (one less than the root).
    #[must_use]
    pub fn subtree_inputs(&self) -> usize {
        self.lut_inputs - 1
    }

    /// Total configuration bits: `2^k` LUT bits + 4 LUT2 bits.
    #[must_use]
    pub fn config_bits(&self) -> usize {
        (1 << self.lut_inputs) + if self.has_lut2 { 4 } else { 0 }
    }
}

/// Programmable-delay-element geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PdeSpec {
    /// Number of selectable taps.
    pub taps: usize,
    /// Transport delay contributed by each tap, in simulator time units.
    pub tap_delay: u64,
}

impl PdeSpec {
    /// Paper-flavoured default: 32 taps of 2 units each.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            taps: 32,
            tap_delay: 2,
        }
    }

    /// Largest programmable delay.
    #[must_use]
    pub fn max_delay(&self) -> u64 {
        self.taps as u64 * self.tap_delay
    }
}

/// Interconnection-matrix capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ImSpec {
    /// Whether LE outputs may loop back to LE inputs of the same PLB —
    /// the mechanism behind looped-LUT memory elements. Disabling this is
    /// the `no_feedback` ablation: C-elements then need a routing-fabric
    /// round trip (as on a conventional FPGA, the paper's reference \[3\]).
    pub allows_feedback: bool,
}

/// Programmable-logic-block geometry (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlbSpec {
    /// Logic elements per PLB (2 in the paper).
    pub les: usize,
    /// LE geometry.
    pub le: LeSpec,
    /// PDE geometry; `None` is the `no_pde` ablation.
    pub pde: Option<PdeSpec>,
    /// IM capabilities.
    pub im: ImSpec,
    /// External PLB inputs served by the connection boxes.
    pub inputs: usize,
    /// External PLB outputs driven onto the routing network.
    pub outputs: usize,
    /// D flip-flops per PLB — **zero** in the paper's fabric (asynchronous
    /// logic cannot use them), non-zero on the synchronous baseline where
    /// they sit idle and depress the filling ratio (reference \[3\]).
    pub dffs: usize,
}

impl PlbSpec {
    /// The paper's PLB: IM + 2 × (LUT7-3 + LUT2-1) + PDE, no DFFs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            les: 2,
            le: LeSpec::paper(),
            pde: Some(PdeSpec::paper()),
            im: ImSpec {
                allows_feedback: true,
            },
            inputs: 10,
            outputs: 6,
            dffs: 0,
        }
    }

    /// LE input pins across the PLB.
    #[must_use]
    pub fn le_input_pins(&self) -> usize {
        self.les * self.le.lut_inputs
    }

    /// Candidate LE output signals across the PLB (LUT outputs + LUT2).
    #[must_use]
    pub fn le_output_signals(&self) -> usize {
        self.les * (self.le.lut_outputs + usize::from(self.le.has_lut2))
    }
}

/// Complete architecture description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Human-readable name, used in reports.
    pub name: String,
    /// PLB columns.
    pub width: usize,
    /// PLB rows.
    pub height: usize,
    /// Tracks per routing channel.
    pub channel_width: usize,
    /// Switch-box topology.
    pub switchbox: SwitchBoxKind,
    /// Fraction of channel tracks each PLB output can drive (0..=1].
    pub fc_out: f64,
    /// Fraction of channel tracks each PLB input can tap (0..=1].
    pub fc_in: f64,
    /// PLB geometry.
    pub plb: PlbSpec,
}

impl ArchSpec {
    /// The paper's architecture on a `width` × `height` grid.
    #[must_use]
    pub fn paper(width: usize, height: usize) -> Self {
        Self {
            name: format!("msaf-{width}x{height}"),
            width,
            height,
            channel_width: 12,
            switchbox: SwitchBoxKind::Disjoint,
            fc_out: 0.5,
            // Full input flexibility: with a disjoint switch box, tracks
            // form independent domains, so inputs must tap every track to
            // guarantee reachability from any output pin.
            fc_in: 1.0,
            plb: PlbSpec::paper(),
        }
    }

    /// Ablation: LEs export only the LUT root (no auxiliary outputs) —
    /// dual-rail pairs can no longer share an LE.
    #[must_use]
    pub fn no_aux_outputs(width: usize, height: usize) -> Self {
        let mut a = Self::paper(width, height);
        a.name = format!("msaf-noaux-{width}x{height}");
        a.plb.le.lut_outputs = 1;
        a.plb.le.has_lut2 = false;
        a
    }

    /// Ablation: no validity LUT2-1.
    #[must_use]
    pub fn no_lut2(width: usize, height: usize) -> Self {
        let mut a = Self::paper(width, height);
        a.name = format!("msaf-nolut2-{width}x{height}");
        a.plb.le.has_lut2 = false;
        a
    }

    /// Ablation: no programmable delay elements — bundled-data styles
    /// lose their timing-assumption mechanism.
    #[must_use]
    pub fn no_pde(width: usize, height: usize) -> Self {
        let mut a = Self::paper(width, height);
        a.name = format!("msaf-nopde-{width}x{height}");
        a.plb.pde = None;
        a
    }

    /// Ablation: IM cannot loop LE outputs back — memory elements must
    /// round-trip through the routing network.
    #[must_use]
    pub fn no_feedback(width: usize, height: usize) -> Self {
        let mut a = Self::paper(width, height);
        a.name = format!("msaf-nofb-{width}x{height}");
        a.plb.im.allows_feedback = false;
        a
    }

    /// Total PLB count.
    #[must_use]
    pub fn plb_count(&self) -> usize {
        self.width * self.height
    }

    /// Smallest near-square grid fitting `plbs` logic blocks **and**
    /// `io` perimeter pads (a `w × h` grid exposes `2(w + h)` pads) —
    /// the sizing policy shared by the CAD flow's automatic grid
    /// selection and the fabric-scale benchmark workloads. Wide
    /// designs (dual-rail buses) are usually pad-bound, not
    /// logic-bound, so both constraints matter.
    #[must_use]
    pub fn size_for(plbs: usize, io: usize) -> (usize, usize) {
        let mut w = (plbs as f64).sqrt().ceil() as usize;
        let mut h = w;
        while w * h < plbs {
            w += 1;
        }
        while 2 * (w + h) < io {
            w += 1;
            h += 1;
        }
        (w.max(1), h.max(1))
    }

    /// Number of tracks a PLB output pin connects to per adjacent channel.
    #[must_use]
    pub fn fc_out_tracks(&self) -> usize {
        ((self.channel_width as f64 * self.fc_out).ceil() as usize).clamp(1, self.channel_width)
    }

    /// Number of tracks a PLB input pin connects to per adjacent channel.
    #[must_use]
    pub fn fc_in_tracks(&self) -> usize {
        ((self.channel_width as f64 * self.fc_in).ceil() as usize).clamp(1, self.channel_width)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when a dimension is zero or a flexibility is out of range —
    /// architecture specs are authored by hand, so failing fast beats
    /// returning errors nobody checks.
    pub fn assert_valid(&self) {
        assert!(self.width >= 1 && self.height >= 1, "empty grid");
        assert!(self.channel_width >= 1, "no routing tracks");
        assert!(
            (0.0..=1.0).contains(&self.fc_in) && self.fc_in > 0.0,
            "fc_in out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.fc_out) && self.fc_out > 0.0,
            "fc_out out of range"
        );
        assert!(self.plb.les >= 1, "PLB needs at least one LE");
        assert!(
            (1..=7).contains(&self.plb.le.lut_inputs),
            "LUT inputs must be 1..=7"
        );
        assert!(
            self.plb.le.lut_outputs == 1 || self.plb.le.lut_outputs == 3,
            "LUT outputs must be 1 or 3"
        );
        assert!(
            !(self.plb.le.has_lut2 && self.plb.le.lut_outputs == 1),
            "LUT2 requires the auxiliary outputs it taps"
        );
        assert!(self.plb.inputs >= self.plb.le.lut_inputs, "PLB too narrow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arch_is_valid_and_matches_figures() {
        let a = ArchSpec::paper(4, 4);
        a.assert_valid();
        // Figure 1: two LEs + PDE per PLB.
        assert_eq!(a.plb.les, 2);
        assert!(a.plb.pde.is_some());
        assert!(a.plb.im.allows_feedback);
        assert_eq!(a.plb.dffs, 0);
        // Figure 2: LUT7-3 + LUT2.
        assert_eq!(a.plb.le.lut_inputs, 7);
        assert_eq!(a.plb.le.lut_outputs, 3);
        assert!(a.plb.le.has_lut2);
        assert_eq!(a.plb.le.config_bits(), 128 + 4);
        assert_eq!(a.plb.le_input_pins(), 14);
        assert_eq!(a.plb.le_output_signals(), 8);
    }

    #[test]
    fn ablations_change_the_right_knob() {
        assert_eq!(ArchSpec::no_aux_outputs(2, 2).plb.le.lut_outputs, 1);
        assert!(!ArchSpec::no_lut2(2, 2).plb.le.has_lut2);
        assert!(ArchSpec::no_pde(2, 2).plb.pde.is_none());
        assert!(!ArchSpec::no_feedback(2, 2).plb.im.allows_feedback);
        for a in [
            ArchSpec::no_aux_outputs(2, 2),
            ArchSpec::no_lut2(2, 2),
            ArchSpec::no_pde(2, 2),
            ArchSpec::no_feedback(2, 2),
        ] {
            a.assert_valid();
        }
    }

    #[test]
    fn fc_track_counts() {
        let mut a = ArchSpec::paper(2, 2);
        a.channel_width = 10;
        a.fc_in = 0.25;
        a.fc_out = 1.0;
        assert_eq!(a.fc_in_tracks(), 3);
        assert_eq!(a.fc_out_tracks(), 10);
    }

    #[test]
    fn pde_max_delay() {
        assert_eq!(PdeSpec::paper().max_delay(), 64);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn zero_grid_rejected() {
        ArchSpec::paper(0, 3).assert_valid();
    }

    #[test]
    #[should_panic(expected = "LUT2 requires")]
    fn lut2_without_aux_rejected() {
        let mut a = ArchSpec::paper(2, 2);
        a.plb.le.lut_outputs = 1;
        a.assert_valid();
    }

    #[test]
    fn serde_roundtrip() {
        let a = ArchSpec::paper(3, 2);
        let json = serde_json::to_string(&a).unwrap();
        let b: ArchSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
