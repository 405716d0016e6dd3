//! The programmable logic block (paper Figure 1): interconnection matrix
//! + two logic elements + programmable delay element.
//!
//! The IM is modelled as a full crossbar: every *sink* (LE input pin, PDE
//! input, PLB output) selects one *source* (PLB input, LE output tap, PDE
//! output) or is left unconnected. Feedback — an LE output selected by an
//! input pin of the *same* PLB — is exactly how the paper implements
//! memory elements from looped combinational logic; the
//! [`crate::arch::ImSpec::allows_feedback`] ablation forbids it.

use crate::arch::PlbSpec;
use crate::le::{LeConfig, LeOutput};
use crate::pde::PdeConfig;
use serde::{Deserialize, Serialize};

/// A signal source inside the IM crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ImSource {
    /// External PLB input pin.
    PlbInput(usize),
    /// An LE output tap.
    LeOut(usize, LeOutput),
    /// The PDE output.
    PdeOut,
    /// Constant driver.
    Const(bool),
}

/// A configurable sink inside the IM crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ImSink {
    /// Input pin `pin` of LE `le`.
    LeIn {
        /// LE index within the PLB.
        le: usize,
        /// Pin index (0..lut_inputs).
        pin: usize,
    },
    /// The PDE input.
    PdeIn,
    /// External PLB output pin.
    PlbOut(usize),
}

/// Full configuration of one PLB.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlbConfig {
    /// Per-LE configuration.
    pub les: Vec<LeConfig>,
    /// PDE configuration (meaningful only when the architecture has one).
    pub pde: PdeConfig,
    /// IM crosspoints: `(sink, source)` pairs; absent sinks float.
    pub im: Vec<(ImSink, ImSource)>,
}

impl PlbConfig {
    /// An unconfigured PLB for `spec`.
    #[must_use]
    pub fn empty(spec: &PlbSpec) -> Self {
        Self {
            les: vec![LeConfig::default(); spec.les],
            pde: PdeConfig::default(),
            im: Vec::new(),
        }
    }

    /// The source selected by `sink`, if any.
    #[must_use]
    pub fn im_source(&self, sink: ImSink) -> Option<ImSource> {
        self.im
            .iter()
            .find(|(s, _)| *s == sink)
            .map(|(_, src)| *src)
    }

    /// Connects `sink` to `source`, replacing any previous selection.
    pub fn im_connect(&mut self, sink: ImSink, source: ImSource) {
        self.im.retain(|(s, _)| *s != sink);
        self.im.push((sink, source));
        self.im.sort();
    }

    /// True when any LE, the PDE or any crosspoint is in use.
    #[must_use]
    pub fn is_used(&self) -> bool {
        self.les.iter().any(LeConfig::is_used) || self.pde.is_used() || !self.im.is_empty()
    }

    /// Validates the configuration against `spec`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation: out-of-range pins,
    /// taps an ablated LE does not export, a used PDE on a PDE-less
    /// architecture, or feedback on a feedback-less IM.
    pub fn check(&self, spec: &PlbSpec) -> Result<(), String> {
        if self.les.len() != spec.les {
            return Err(format!(
                "PLB has {} LE configs, spec says {}",
                self.les.len(),
                spec.les
            ));
        }
        for (i, le) in self.les.iter().enumerate() {
            le.check(&spec.le).map_err(|e| format!("LE{i}: {e}"))?;
        }
        if self.pde.is_used() {
            let pde_spec = spec
                .pde
                .as_ref()
                .ok_or("PDE used but architecture has none")?;
            if self.pde.taps > pde_spec.taps {
                return Err(format!(
                    "PDE programmed to {} taps, chain has {}",
                    self.pde.taps, pde_spec.taps
                ));
            }
        }
        for &(sink, source) in &self.im {
            match sink {
                ImSink::LeIn { le, pin } => {
                    if le >= spec.les || pin >= spec.le.lut_inputs {
                        return Err(format!("IM sink LE{le}.pin{pin} out of range"));
                    }
                }
                ImSink::PlbOut(o) => {
                    if o >= spec.outputs {
                        return Err(format!("IM sink PLB output {o} out of range"));
                    }
                }
                ImSink::PdeIn => {
                    if spec.pde.is_none() {
                        return Err("IM drives PDE input but architecture has none".into());
                    }
                }
            }
            match source {
                ImSource::PlbInput(i) => {
                    if i >= spec.inputs {
                        return Err(format!("IM source PLB input {i} out of range"));
                    }
                }
                ImSource::LeOut(le, tap) => {
                    if le >= spec.les {
                        return Err(format!("IM source LE{le} out of range"));
                    }
                    match tap {
                        LeOutput::A | LeOutput::B if spec.le.lut_outputs < 3 => {
                            return Err(format!("IM taps {tap:?} but LE exports only the root"));
                        }
                        LeOutput::Lut2 if !spec.le.has_lut2 => {
                            return Err("IM taps LUT2 but LE has none".into());
                        }
                        _ => {}
                    }
                    // Feedback check: LE output feeding an LE input.
                    if !spec.im.allows_feedback {
                        if let ImSink::LeIn { .. } = sink {
                            return Err(
                                "IM feedback (LE out -> LE in) forbidden by architecture".into()
                            );
                        }
                    }
                }
                ImSource::PdeOut => {
                    if spec.pde.is_none() {
                        return Err("IM taps PDE output but architecture has none".into());
                    }
                }
                ImSource::Const(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;

    fn spec() -> PlbSpec {
        ArchSpec::paper(2, 2).plb
    }

    #[test]
    fn empty_plb_is_clean() {
        let cfg = PlbConfig::empty(&spec());
        assert!(!cfg.is_used());
        assert!(cfg.check(&spec()).is_ok());
    }

    #[test]
    fn im_connect_replaces() {
        let mut cfg = PlbConfig::empty(&spec());
        let sink = ImSink::LeIn { le: 0, pin: 0 };
        cfg.im_connect(sink, ImSource::PlbInput(0));
        cfg.im_connect(sink, ImSource::PlbInput(3));
        assert_eq!(cfg.im_source(sink), Some(ImSource::PlbInput(3)));
        assert_eq!(cfg.im.len(), 1);
    }

    #[test]
    fn feedback_allowed_on_paper_arch() {
        let mut cfg = PlbConfig::empty(&spec());
        cfg.im_connect(
            ImSink::LeIn { le: 0, pin: 2 },
            ImSource::LeOut(0, LeOutput::A),
        );
        assert!(cfg.check(&spec()).is_ok());
    }

    #[test]
    fn feedback_rejected_on_ablated_arch() {
        let arch = ArchSpec::no_feedback(2, 2);
        let mut cfg = PlbConfig::empty(&arch.plb);
        cfg.im_connect(
            ImSink::LeIn { le: 0, pin: 2 },
            ImSource::LeOut(0, LeOutput::A),
        );
        let err = cfg.check(&arch.plb).unwrap_err();
        assert!(err.contains("feedback"));
        // Driving a PLB output from an LE is still fine.
        let mut cfg2 = PlbConfig::empty(&arch.plb);
        cfg2.im_connect(ImSink::PlbOut(0), ImSource::LeOut(0, LeOutput::Root));
        assert!(cfg2.check(&arch.plb).is_ok());
    }

    #[test]
    fn pde_rejected_on_pde_less_arch() {
        let arch = ArchSpec::no_pde(2, 2);
        let mut cfg = PlbConfig::empty(&arch.plb);
        cfg.pde.taps = 3;
        assert!(cfg.check(&arch.plb).is_err());
        let mut cfg2 = PlbConfig::empty(&arch.plb);
        cfg2.im_connect(ImSink::PdeIn, ImSource::PlbInput(0));
        assert!(cfg2.check(&arch.plb).is_err());
    }

    #[test]
    fn out_of_range_caught() {
        let s = spec();
        let mut cfg = PlbConfig::empty(&s);
        cfg.im_connect(ImSink::PlbOut(99), ImSource::PlbInput(0));
        assert!(cfg.check(&s).is_err());
        let mut cfg = PlbConfig::empty(&s);
        cfg.im_connect(ImSink::LeIn { le: 0, pin: 0 }, ImSource::PlbInput(99));
        assert!(cfg.check(&s).is_err());
        let mut cfg = PlbConfig::empty(&s);
        cfg.im_connect(ImSink::LeIn { le: 9, pin: 0 }, ImSource::PlbInput(0));
        assert!(cfg.check(&s).is_err());
    }

    #[test]
    fn aux_tap_rejected_on_noaux_arch() {
        let arch = ArchSpec::no_aux_outputs(2, 2);
        let mut cfg = PlbConfig::empty(&arch.plb);
        cfg.im_connect(ImSink::PlbOut(0), ImSource::LeOut(0, LeOutput::B));
        assert!(cfg.check(&arch.plb).is_err());
        let mut cfg2 = PlbConfig::empty(&arch.plb);
        cfg2.im_connect(ImSink::PlbOut(0), ImSource::LeOut(0, LeOutput::Root));
        assert!(cfg2.check(&arch.plb).is_ok());
    }
}
