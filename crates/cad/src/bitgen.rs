//! Bit generation: pin binding and bitstream assembly.
//!
//! Two entry points, bracketing the router:
//!
//! * [`bind`] — assigns physical LE pins, PLB input/output pins and I/O
//!   pads to every mapped signal, producing both the PLB configurations
//!   and the [`RouteRequest`]s the router needs;
//! * [`assemble`] — combines the binding with the routed trees into a
//!   final, checkable [`FabricConfig`].

use crate::pack::PackedDesign;
use crate::place::Placement;
use crate::route::RouteRequest;
use crate::techmap::{MappedDesign, MappedFunc, Producer, SignalId, SignalUses};
use msaf_fabric::arch::ArchSpec;
use msaf_fabric::bitstream::{FabricConfig, PadAssignment, PadDir, RouteTree};
use msaf_fabric::le::{LeConfig, LeOutput};
use msaf_fabric::pde::PdeConfig;
use msaf_fabric::plb::{ImSink, ImSource, PlbConfig};
use msaf_fabric::rrg::{NodeId, RrNodeKind, Rrg};
use msaf_netlist::LutTable;
use std::collections::HashMap;

/// Errors from bit generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitgenError {
    /// A PDE request was packed but the architecture has no PDE (the
    /// `no_pde` ablation) — bundled-data designs cannot be realised.
    NoPdeAvailable,
    /// A required delay exceeds the PDE chain.
    PdeOverflow {
        /// Requested delay.
        required: u64,
        /// Chain maximum.
        max: u64,
    },
    /// A signal is both a primary input and a primary output (pad
    /// passthrough), which the binder does not support.
    PadPassthrough(String),
    /// Internal inconsistency (a bug): a signal had no producer.
    NoProducer(String),
    /// A PLB needs more external input pins than the architecture has.
    /// On IMs without feedback, LE outputs looped back through the
    /// fabric take PLB inputs the packer does not budget for.
    InputPinOverflow {
        /// Index of the packed PLB.
        plb: usize,
        /// Input pins it needs.
        needed: usize,
        /// Input pins per PLB.
        available: usize,
    },
    /// A PLB needs more external output pins than the architecture has.
    OutputPinOverflow {
        /// Index of the packed PLB.
        plb: usize,
        /// Output pins it needs.
        needed: usize,
        /// Output pins per PLB.
        available: usize,
    },
}

impl std::fmt::Display for BitgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitgenError::NoPdeAvailable => {
                f.write_str("design needs a PDE but the architecture has none")
            }
            BitgenError::PdeOverflow { required, max } => {
                write!(f, "required delay {required} exceeds PDE maximum {max}")
            }
            BitgenError::PadPassthrough(s) => {
                write!(f, "signal '{s}' is both primary input and output")
            }
            BitgenError::NoProducer(s) => write!(f, "signal '{s}' has no producer"),
            BitgenError::InputPinOverflow {
                plb,
                needed,
                available,
            } => write!(
                f,
                "PLB {plb} needs {needed} input pins, the architecture has {available}"
            ),
            BitgenError::OutputPinOverflow {
                plb,
                needed,
                available,
            } => write!(
                f,
                "PLB {plb} needs {needed} output pins, the architecture has {available}"
            ),
        }
    }
}

impl std::error::Error for BitgenError {}

/// The pin-level binding of a design onto a placed fabric.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Partially-filled fabric (PLBs configured, no routes yet).
    pub config: FabricConfig,
    /// Nets for the router.
    pub requests: Vec<RouteRequest>,
    /// The mapped signal each request carries, parallel to `requests` —
    /// the link timing-driven routing needs to look route sinks up in
    /// the slack analysis (`timing::RouteTimingCtx::new`).
    pub request_signals: Vec<SignalId>,
}

/// Builds a physical LUT table for `func` given the signal→pin map.
fn physical_table(func: &MappedFunc, pin_of: &HashMap<SignalId, usize>, window: usize) -> LutTable {
    LutTable::from_fn(window, |pins| {
        let vals: Vec<bool> = func.inputs.iter().map(|s| pins[pin_of[s]]).collect();
        func.table.eval(&vals)
    })
}

/// Binds `design`/`packed`/`placement` onto `arch`, producing PLB configs
/// and route requests.
///
/// # Errors
///
/// See [`BitgenError`].
///
/// # Panics
///
/// Panics if the placement does not cover every packed PLB (caller
/// wiring bug).
pub fn bind(
    design: &MappedDesign,
    packed: &PackedDesign,
    placement: &Placement,
    arch: &ArchSpec,
    rrg: &Rrg,
) -> Result<Binding, BitgenError> {
    assert_eq!(
        placement.plb_pos.len(),
        packed.plb_count(),
        "placement mismatch"
    );
    let mut config = FabricConfig::empty(design.name.clone(), arch.clone());
    let uses = SignalUses::build(design);
    // The packed PLB hosting each LE and each PDE.
    let mut plb_of_le = vec![None; design.les.len()];
    let mut plb_of_pde = vec![None; design.pdes.len()];
    for (bi, plb) in packed.plbs.iter().enumerate() {
        for &li in &plb.les {
            plb_of_le[li] = Some(bi);
        }
        if let Some(pi) = plb.pde {
            plb_of_pde[pi] = Some(bi);
        }
    }

    // signal -> (plb index, local output pin) once bound.
    let mut opin_of: HashMap<SignalId, (usize, usize)> = HashMap::new();
    // per packed-PLB external input pin maps.
    let mut ipin_maps: Vec<HashMap<SignalId, usize>> = Vec::with_capacity(packed.plb_count());

    // Pass A: configure each PLB's internals and allocate pins.
    for (bi, plb) in packed.plbs.iter().enumerate() {
        let (x, y) = placement.plb_pos[bi];
        let mut cfg = PlbConfig::empty(&arch.plb);

        // Which signals are produced locally, and by what.
        #[derive(Clone, Copy)]
        enum Local {
            Le(usize, LeOutput),
            Pde,
        }
        let mut local: HashMap<SignalId, Local> = HashMap::new();
        for (slot, &li) in plb.les.iter().enumerate() {
            for f in &design.les[li].funcs {
                local.insert(f.output, Local::Le(slot, f.tap));
            }
        }
        if let Some(pi) = plb.pde {
            local.insert(design.pdes[pi].output, Local::Pde);
        }

        // External input pin allocation (deterministic order). On
        // architectures whose IM forbids feedback (the `no_feedback`
        // ablation and the synchronous LUT4 baseline), an LE output
        // consumed by an LE input of the same PLB must round-trip through
        // the routing fabric: it counts as an external input here and as
        // a PLB output below.
        let fb_external = !arch.plb.im.allows_feedback;
        let mut ext_in = Vec::<SignalId>::new();
        for &li in &plb.les {
            for &s in uses.inputs(li) {
                let local_le_out = matches!(local.get(&s), Some(Local::Le(..)));
                let external = !local.contains_key(&s) || (fb_external && local_le_out);
                if external
                    && !matches!(design.producers[s.index()], Producer::Const(_))
                    && !ext_in.contains(&s)
                {
                    ext_in.push(s);
                }
            }
        }
        if let Some(pi) = plb.pde {
            let s = design.pdes[pi].input;
            if !local.contains_key(&s)
                && !matches!(design.producers[s.index()], Producer::Const(_))
                && !ext_in.contains(&s)
            {
                ext_in.push(s);
            }
        }
        ext_in.sort();
        if ext_in.len() > arch.plb.inputs {
            return Err(BitgenError::InputPinOverflow {
                plb: bi,
                needed: ext_in.len(),
                available: arch.plb.inputs,
            });
        }
        let ipin_map: HashMap<SignalId, usize> =
            ext_in.iter().enumerate().map(|(i, &s)| (s, i)).collect();

        // Resolve a signal into an IM source within this PLB. When
        // `for_le_input` is set and the IM forbids feedback, locally
        // produced LE outputs are *not* legal sources — the signal comes
        // back in through a PLB input pin instead.
        let resolve_with = |s: SignalId, for_le_input: bool| -> Result<ImSource, BitgenError> {
            if let Some(l) = local.get(&s) {
                let allowed = match l {
                    Local::Le(..) => !(for_le_input && fb_external),
                    Local::Pde => true,
                };
                if allowed {
                    return Ok(match l {
                        Local::Le(slot, tap) => ImSource::LeOut(*slot, *tap),
                        Local::Pde => ImSource::PdeOut,
                    });
                }
            }
            if let Producer::Const(v) = design.producers[s.index()] {
                return Ok(ImSource::Const(v));
            }
            ipin_map
                .get(&s)
                .map(|&i| ImSource::PlbInput(i))
                .ok_or_else(|| BitgenError::NoProducer(design.signal_name(s).to_string()))
        };
        let resolve = |s: SignalId| resolve_with(s, false);

        // LEs.
        for (slot, &li) in plb.les.iter().enumerate() {
            let le = &design.les[li];
            let pin_of: HashMap<SignalId, usize> = uses
                .inputs(li)
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, i))
                .collect();
            let mut le_cfg = LeConfig::default();
            for f in &le.funcs {
                match f.tap {
                    LeOutput::A => {
                        le_cfg
                            .lut
                            .set_a(&physical_table(f, &pin_of, arch.plb.le.subtree_inputs()))
                    }
                    LeOutput::B => {
                        le_cfg
                            .lut
                            .set_b(&physical_table(f, &pin_of, arch.plb.le.subtree_inputs()))
                    }
                    LeOutput::Root => {
                        le_cfg
                            .lut
                            .set_root(&physical_table(f, &pin_of, arch.plb.le.lut_inputs))
                    }
                    LeOutput::Lut2 => {
                        // Table over (A, B); inputs are [A.out, B.out].
                        let mut bits = 0u8;
                        for idx in 0..4u8 {
                            let a = idx & 1 == 1;
                            let b = idx & 2 == 2;
                            if f.table.eval(&[a, b]) {
                                bits |= 1 << idx;
                            }
                        }
                        le_cfg.lut2 = bits;
                    }
                }
                le_cfg.used_outputs.push(f.tap);
            }
            for (&s, &pin) in &pin_of {
                le_cfg.pins_used[pin] = true;
                cfg.im_connect(ImSink::LeIn { le: slot, pin }, resolve_with(s, true)?);
            }
            cfg.les[slot] = le_cfg;
        }

        // PDE.
        if let Some(pi) = plb.pde {
            let spec = arch.plb.pde.as_ref().ok_or(BitgenError::NoPdeAvailable)?;
            let pde = &design.pdes[pi];
            cfg.pde = PdeConfig::covering(spec, pde.required_delay).map_err(|max| {
                BitgenError::PdeOverflow {
                    required: pde.required_delay,
                    max,
                }
            })?;
            cfg.im_connect(ImSink::PdeIn, resolve(pde.input)?);
        }

        // Output pins: produced locally and needed elsewhere — a primary
        // output, a fabric round trip, or read by another PLB.
        let elsewhere = |host: Option<usize>| host.is_some_and(|obi| obi != bi);
        let mut out_sigs: Vec<SignalId> = local
            .keys()
            .copied()
            .filter(|&s| {
                uses.is_po(s)
                    || ipin_map.contains_key(&s)
                    || uses.consumers(s).iter().any(|&li| elsewhere(plb_of_le[li]))
                    || uses
                        .pde_consumers(s)
                        .iter()
                        .any(|&pi| elsewhere(plb_of_pde[pi]))
            })
            .collect();
        out_sigs.sort();
        if out_sigs.len() > arch.plb.outputs {
            return Err(BitgenError::OutputPinOverflow {
                plb: bi,
                needed: out_sigs.len(),
                available: arch.plb.outputs,
            });
        }
        for (opin, s) in out_sigs.into_iter().enumerate() {
            cfg.im_connect(ImSink::PlbOut(opin), resolve(s)?);
            opin_of.insert(s, (bi, opin));
        }

        config.plbs[y * arch.width + x] = cfg;
        ipin_maps.push(ipin_map);
    }

    // Pass B: pads.
    for (&s, &pad) in &placement.pad_of_signal {
        let is_pi = matches!(design.producers[s.index()], Producer::Pi);
        if is_pi && uses.is_po(s) {
            return Err(BitgenError::PadPassthrough(
                design.signal_name(s).to_string(),
            ));
        }
        config.pads.push(PadAssignment {
            pad,
            net: design.signal_name(s).to_string(),
            dir: if is_pi { PadDir::Input } else { PadDir::Output },
        });
    }
    config.pads.sort_by_key(|p| p.pad);

    // Pass C: route requests, one per routed signal in signal order. Each
    // signal's Ipin sinks are gathered in one sweep over the PLBs, so
    // they come in PLB order.
    let mut ipin_sinks: Vec<Vec<NodeId>> = vec![Vec::new(); design.signal_names.len()];
    for (bi, map) in ipin_maps.iter().enumerate() {
        let (x, y) = placement.plb_pos[bi];
        for (&s, &pin) in map {
            ipin_sinks[s.index()].push(rrg.node(RrNodeKind::Ipin { x, y, pin }).expect("ipin"));
        }
    }
    let mut requests = Vec::new();
    let mut request_signals = Vec::new();
    for (si, ipins) in ipin_sinks.into_iter().enumerate() {
        let s = SignalId::from_index(si);
        let is_po = uses.is_po(s);
        if ipins.is_empty() && !is_po {
            continue;
        }
        let source = match design.producers[si] {
            Producer::Pi => {
                let pad = placement.pad_of_signal[&s];
                rrg.node(RrNodeKind::Pad { id: pad }).expect("pad exists")
            }
            Producer::Le { .. } | Producer::Pde { .. } => {
                let &(bi, opin) = opin_of
                    .get(&s)
                    .ok_or_else(|| BitgenError::NoProducer(design.signal_name(s).to_string()))?;
                let (x, y) = placement.plb_pos[bi];
                rrg.node(RrNodeKind::Opin { x, y, pin: opin })
                    .expect("opin exists")
            }
            Producer::Const(_) => continue, // constants materialise inside PLBs
        };
        let mut sinks = ipins;
        if is_po {
            let pad = placement.pad_of_signal[&s];
            sinks.push(rrg.node(RrNodeKind::Pad { id: pad }).expect("pad"));
        }
        requests.push(RouteRequest {
            net: design.signal_name(s).to_string(),
            source,
            sinks,
        });
        request_signals.push(s);
    }

    Ok(Binding {
        config,
        requests,
        request_signals,
    })
}

/// Installs routed trees into a binding, yielding the final bitstream.
#[must_use]
pub fn assemble(binding: Binding, trees: Vec<RouteTree>) -> FabricConfig {
    let mut config = binding.config;
    config.routes = trees;
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use crate::place::place;
    use crate::route::{route, RouteOptions};
    use crate::techmap::map;
    use msaf_cells::fulladder::{micropipeline_full_adder, qdi_full_adder, SAFE_FA_MATCHED_DELAY};
    use msaf_netlist::{GateKind, Netlist};

    fn full_pipeline(nl: &msaf_netlist::Netlist, arch: &ArchSpec) -> FabricConfig {
        let mapped = map(nl, arch).unwrap();
        let packed = pack(&mapped, arch).unwrap();
        let placement = place(&mapped, &packed, arch, 11).unwrap();
        let rrg = Rrg::build(arch);
        let binding = bind(&mapped, &packed, &placement, arch, &rrg).unwrap();
        let routed = route(&rrg, &binding.requests, &RouteOptions::default()).unwrap();
        let cfg = assemble(binding, routed.trees);
        cfg.check(&rrg).expect("bitstream checks");
        cfg
    }

    #[test]
    fn qdi_fa_bitstream_is_consistent() {
        let arch = ArchSpec::paper(4, 4);
        let cfg = full_pipeline(&qdi_full_adder(), &arch);
        assert!(cfg.plbs.iter().any(|p| p.is_used()));
        // 6 input rails + shared ack; 4 output rails = 11 pads (the QDI
        // adder's operand ack is the environment's result ack).
        assert_eq!(cfg.pads.len(), 11);
        assert!(cfg.total_wirelength() > 0);
    }

    #[test]
    fn micropipeline_fa_bitstream_programs_the_pde() {
        let arch = ArchSpec::paper(4, 4);
        let cfg = full_pipeline(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &arch);
        let pde_plb = cfg.plbs.iter().find(|p| p.pde.is_used()).expect("PDE used");
        let spec = arch.plb.pde.unwrap();
        assert!(
            pde_plb.pde.delay(&spec) >= u64::from(SAFE_FA_MATCHED_DELAY),
            "programmed delay must cover the request"
        );
    }

    #[test]
    fn pde_in_another_plb_gets_its_input_through_an_output_pin() {
        // Two PDEs delay one LE output: the first joins the LE's PLB,
        // the second gets a PLB of its own and reads the signal through
        // the fabric, so the LE's PLB must export it.
        let mut nl = Netlist::new("two_pdes");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_gate_new(GateKind::And, "g", &[a, b]);
        for i in 0..2 {
            let (_, z) = nl.add_gate_new(GateKind::Delay(4), format!("d{i}"), &[y]);
            nl.mark_output(z);
        }
        let cfg = full_pipeline(&nl, &ArchSpec::paper(4, 4));
        assert_eq!(cfg.plbs.iter().filter(|p| p.pde.is_used()).count(), 2);
    }

    #[test]
    fn plb_pin_overflow_is_a_named_error() {
        // One PLB reading eight primary inputs and driving two primary
        // outputs, bound onto PLBs one pin short on either side.
        let mut nl = Netlist::new("two_outs");
        let ins: Vec<_> = (0..8).map(|i| nl.add_input(format!("a{i}"))).collect();
        for (i, kind) in [GateKind::And, GateKind::Or].into_iter().enumerate() {
            let (_, y) = nl.add_gate_new(kind, format!("g{i}"), &ins[4 * i..4 * i + 4]);
            nl.mark_output(y);
        }
        let arch = ArchSpec::paper(3, 3);
        let mapped = map(&nl, &arch).unwrap();
        let packed = PackedDesign {
            plbs: vec![crate::pack::PackedPlb {
                les: (0..mapped.les.len()).collect(),
                pde: None,
            }],
        };
        let placement = place(&mapped, &packed, &arch, 1).unwrap();
        let bind_with = |inputs, outputs| {
            let mut narrow = arch.clone();
            (narrow.plb.inputs, narrow.plb.outputs) = (inputs, outputs);
            let rrg = Rrg::build(&narrow);
            bind(&mapped, &packed, &placement, &narrow, &rrg).map(|_| ())
        };
        assert_eq!(bind_with(8, 2), Ok(()));
        assert_eq!(
            bind_with(7, 2),
            Err(BitgenError::InputPinOverflow {
                plb: 0,
                needed: 8,
                available: 7
            })
        );
        assert_eq!(
            bind_with(8, 1),
            Err(BitgenError::OutputPinOverflow {
                plb: 0,
                needed: 2,
                available: 1
            })
        );
    }

    #[test]
    fn no_pde_arch_rejects_bundled_design() {
        let arch = ArchSpec::no_pde(4, 4);
        let mapped = map(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &arch).unwrap();
        let packed = pack(&mapped, &arch).unwrap();
        let placement = place(&mapped, &packed, &arch, 1).unwrap();
        let rrg = Rrg::build(&arch);
        let err = bind(&mapped, &packed, &placement, &arch, &rrg).unwrap_err();
        assert_eq!(err, BitgenError::NoPdeAvailable);
    }

    #[test]
    fn pde_overflow_detected() {
        let mut arch = ArchSpec::paper(4, 4);
        arch.plb.pde = Some(msaf_fabric::arch::PdeSpec {
            taps: 2,
            tap_delay: 1,
        });
        let mapped = map(&micropipeline_full_adder(100), &arch).unwrap();
        let packed = pack(&mapped, &arch).unwrap();
        let placement = place(&mapped, &packed, &arch, 1).unwrap();
        let rrg = Rrg::build(&arch);
        let err = bind(&mapped, &packed, &placement, &arch, &rrg).unwrap_err();
        assert!(matches!(err, BitgenError::PdeOverflow { .. }));
    }
}
