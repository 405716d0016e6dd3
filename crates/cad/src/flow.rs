//! The end-to-end compile flow: netlist in, programmed fabric out.

use crate::bitgen::{assemble, bind, Binding, BitgenError};
use crate::checkpoint;
use crate::pack::{pack, PackError, PackedDesign};
use crate::place::{place_with, PlaceError, PlaceOptions, Placement};
use crate::report::FlowReport;
use crate::route::{
    route_traced, RouteError, RouteOptions, RoutingResult, HIST_FAC, PRES_FAC_MULT,
};
use crate::techmap::{map, MapError, MappedDesign};
use crate::timing::{RouteTimingCtx, TimingGraph, TimingReport, TimingSummary};
use msaf_artifact::digest::{fnv1a, Fnv64};
use msaf_artifact::{
    Artifact, ArtifactStore, BitstreamArtifact, PackArtifact, PlaceArtifact, RouteArtifact, Stage,
};
use msaf_fabric::arch::ArchSpec;
use msaf_fabric::bitstream::FabricConfig;
use msaf_fabric::rrg::Rrg;
use msaf_fabric::utilization::Utilization;
use msaf_netlist::Netlist;
use msaf_trace::Tracer;

/// Options for [`compile`].
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Architecture template; `width`/`height`/`channel_width` are
    /// overridden by the sizing policy unless pinned below.
    pub arch: ArchSpec,
    /// Placement seed.
    pub seed: u64,
    /// Pin the grid to exactly this size (default: smallest square that
    /// fits the packed PLBs and perimeter I/O).
    pub grid: Option<(usize, usize)>,
    /// Pin the channel width (default: template's width, doubled on
    /// routing failure up to three times).
    pub channel_width: Option<usize>,
    /// Router knobs.
    pub route: RouteOptions,
    /// Flight recorder for the whole flow (stage spans, per-iteration
    /// router events, annealing progress, timing sweeps). The default
    /// no-op tracer costs one branch per instrumentation site;
    /// `tests/trace_determinism.rs` pins that every result is
    /// byte-identical with or without a sink installed.
    pub tracer: Tracer,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            arch: ArchSpec::paper(1, 1),
            seed: 1,
            grid: None,
            channel_width: None,
            route: RouteOptions::default(),
            tracer: Tracer::default(),
        }
    }
}

/// Errors from [`compile`].
#[derive(Debug)]
pub enum FlowError {
    /// Technology mapping failed.
    Map(MapError),
    /// Packing failed.
    Pack(PackError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed at the final channel width.
    Route(RouteError),
    /// Routing failed at every channel width the widening policy tried
    /// (graceful degradation: the error names how far the flow got).
    RouteExhausted {
        /// Channel-width attempts made (initial + widenings).
        attempts: usize,
        /// The final (widest) channel width that still failed.
        final_channel_width: usize,
        /// The router error at the final width.
        last: RouteError,
    },
    /// Bit generation failed.
    Bitgen(BitgenError),
    /// The final bitstream failed its own consistency check (a flow bug).
    Check(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Map(e) => write!(f, "techmap: {e}"),
            FlowError::Pack(e) => write!(f, "pack: {e}"),
            FlowError::Place(e) => write!(f, "place: {e}"),
            FlowError::Route(e) => write!(f, "route: {e}"),
            FlowError::RouteExhausted {
                attempts,
                final_channel_width,
                last,
            } => write!(
                f,
                "route: unroutable after {attempts} channel-width attempts \
                 (final width {final_channel_width}): {last}"
            ),
            FlowError::Bitgen(e) => write!(f, "bitgen: {e}"),
            FlowError::Check(e) => write!(f, "bitstream check: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Everything the flow produced, for inspection and verification.
#[derive(Debug)]
pub struct CompiledDesign {
    /// The sized architecture actually used.
    pub arch: ArchSpec,
    /// Mapping result.
    pub mapped: MappedDesign,
    /// Packing result.
    pub packed: PackedDesign,
    /// Placement result.
    pub placement: Placement,
    /// The final bitstream.
    pub config: FabricConfig,
    /// Summary numbers.
    pub report: FlowReport,
}

/// Whether one stage of a [`compile_cached`] run was restored from the
/// artifact store or recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Restored from a cached artifact.
    Hit,
    /// Computed (and checkpointed into the store).
    Miss,
}

impl StageOutcome {
    /// `"hit"` / `"miss"` — the spelling the compile server streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageOutcome::Hit => "hit",
            StageOutcome::Miss => "miss",
        }
    }
}

/// Per-stage cache outcomes of one [`compile_cached`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Packing stage.
    pub pack: StageOutcome,
    /// Placement stage.
    pub place: StageOutcome,
    /// Routing stage.
    pub route: StageOutcome,
    /// Bit-generation stage.
    pub bitgen: StageOutcome,
}

impl CacheReport {
    const ALL_MISS: CacheReport = CacheReport {
        pack: StageOutcome::Miss,
        place: StageOutcome::Miss,
        route: StageOutcome::Miss,
        bitgen: StageOutcome::Miss,
    };

    /// True when every stage was restored from the store — the compile
    /// server's "second compile was free" fact.
    #[must_use]
    pub fn all_hits(&self) -> bool {
        self.stages().iter().all(|&(_, o)| o == StageOutcome::Hit)
    }

    /// `(stage name, outcome)` pairs in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, StageOutcome); 4] {
        [
            (Stage::Pack.name(), self.pack),
            (Stage::Place.name(), self.place),
            (Stage::Route.name(), self.route),
            (Stage::Bitgen.name(), self.bitgen),
        ]
    }

    fn outcome_mut(&mut self, stage: Stage) -> &mut StageOutcome {
        match stage {
            Stage::Pack => &mut self.pack,
            Stage::Place => &mut self.place,
            Stage::Route => &mut self.route,
            Stage::Bitgen => &mut self.bitgen,
        }
    }
}

/// The per-stage cache step [`compile`] and [`compile_cached`] share.
/// With a store, each stage is restored from its content-addressed key
/// or computed and checkpointed; without one, it is only computed.
struct StageCache<'a> {
    store: Option<&'a dyn ArtifactStore>,
    /// The key chain. It starts from the source digest; after each stage
    /// it is re-seeded with that stage's input digest *and* the digest
    /// of its artifact, so a hit at stage N implies the entire upstream
    /// line matched.
    chain: Fnv64,
    report: CacheReport,
    tracer: &'a Tracer,
}

impl StageCache<'_> {
    /// Runs one stage: `key_extras` feeds the options the stage reads
    /// into its key, `restore` rebuilds the result from a hit, `compute`
    /// produces it on a miss and `checkpoint` turns it into the artifact
    /// to store. Emits the stage's `flow.cache` event, so the caller
    /// runs it inside the stage span.
    ///
    /// The digest chained into the next key is `fnv1a` of the JSON just
    /// read or stored, never a re-serialization. Canonical JSON
    /// round-trips exactly, so for every entry the flow writes this
    /// equals [`Artifact::digest`]; a parseable but non-canonical entry
    /// only moves the downstream keys, turning those stages into misses.
    /// A missing entry and a malformed/shape-mismatched one are the same
    /// thing — a miss — so a format change (or a corrupted store)
    /// degrades to recomputation, never to a compile error.
    fn run<A: Artifact, T>(
        &mut self,
        stage: Stage,
        key_extras: impl FnOnce(&mut Fnv64),
        restore: impl FnOnce(A) -> Result<T, FlowError>,
        compute: impl FnOnce() -> Result<T, FlowError>,
        checkpoint: impl FnOnce(&T) -> A,
    ) -> Result<T, FlowError> {
        let Some(store) = self.store else {
            return compute();
        };
        key_extras(&mut self.chain);
        let input = self.chain.finish();
        let key = stage.key(input);
        let restored = store
            .get(&key)
            .and_then(|json| Some((A::from_json(&json).ok()?, fnv1a(json.as_bytes()))));
        let (value, digest, outcome) = if let Some((artifact, digest)) = restored {
            (restore(artifact)?, digest, StageOutcome::Hit)
        } else {
            let value = compute()?;
            let json = checkpoint(&value).to_json();
            let digest = fnv1a(json.as_bytes());
            store.put(&key, json);
            (value, digest, StageOutcome::Miss)
        };
        self.chain = Fnv64::new();
        self.chain.write_u64(input);
        self.chain.write_u64(digest);
        *self.report.outcome_mut(stage) = outcome;
        self.tracer.event("flow.cache", || {
            vec![
                ("stage", stage.name().into()),
                ("outcome", outcome.name().into()),
            ]
        });
        Ok(value)
    }
}

/// The route stage's result: the routing-resource graph and binding at
/// the channel width routing converged at, the routed trees, and their
/// timing.
struct Routed {
    channel_width: usize,
    rrg: Rrg,
    binding: Binding,
    result: RoutingResult,
    timing: TimingReport,
    summary: TimingSummary,
}

/// Compiles `netlist` onto the architecture family of
/// [`FlowOptions::arch`].
///
/// # Errors
///
/// See [`FlowError`]; routing failures trigger up to three automatic
/// channel-width doublings before giving up (unless the width is
/// pinned).
pub fn compile(netlist: &Netlist, opts: &FlowOptions) -> Result<CompiledDesign, FlowError> {
    compile_inner(netlist, opts, None, 0).map(|(compiled, _)| compiled)
}

/// [`compile`] with content-addressed per-stage caching.
///
/// `source_digest` must capture everything upstream of the flow that
/// determines its input — for `.msa` sources that is the source text
/// plus the elaborated style. Each stage's cache key then chains the
/// upstream stage's key and artifact digest with the options that stage
/// actually reads, so any change — source, seed, grid, architecture,
/// router knobs — lands every downstream stage on a fresh key.
/// [`RouteOptions::threads`] and the negotiation chunk are deliberately
/// *kept* in the route key only insofar as they change results: thread
/// count never does (the determinism contract), so it is excluded;
/// `chunk` changes the recorded negotiation statistics, so it is
/// included.
///
/// A cache hit restores the stage artifact instead of recomputing; the
/// restored flow still rebuilds the routing-resource graph, re-binds,
/// and re-runs the bitstream consistency check, so a poisoned store
/// surfaces as a checked error rather than a silently wrong fabric.
///
/// # Errors
///
/// Exactly the [`compile`] error surface — cache problems are misses,
/// not errors.
pub fn compile_cached(
    netlist: &Netlist,
    opts: &FlowOptions,
    store: &dyn ArtifactStore,
    source_digest: u64,
) -> Result<(CompiledDesign, CacheReport), FlowError> {
    compile_inner(netlist, opts, Some(store), source_digest)
}

#[allow(clippy::too_many_lines)]
fn compile_inner(
    netlist: &Netlist,
    opts: &FlowOptions,
    store: Option<&dyn ArtifactStore>,
    source_digest: u64,
) -> Result<(CompiledDesign, CacheReport), FlowError> {
    let tracer = &opts.tracer;
    let mut chain = Fnv64::new();
    chain.write_u64(source_digest);
    let mut cache = StageCache {
        store,
        chain,
        report: CacheReport::ALL_MISS,
        tracer,
    };

    let stage = std::time::Instant::now();
    let techmap_span = tracer.span("flow.techmap");
    let mapped = map(netlist, &opts.arch).map_err(FlowError::Map)?;
    drop(techmap_span);
    let techmap_ms = stage.elapsed().as_secs_f64() * 1e3;

    let stage = std::time::Instant::now();
    let pack_span = tracer.span("flow.pack");
    let packed = cache.run(
        Stage::Pack,
        |key| key.write_str(&format!("{:?}", opts.arch)),
        |art: PackArtifact| Ok(checkpoint::restore_pack(&art)),
        || pack(&mapped, &opts.arch).map_err(FlowError::Pack),
        checkpoint::checkpoint_pack,
    )?;
    drop(pack_span);
    let pack_ms = stage.elapsed().as_secs_f64() * 1e3;

    let io = mapped.io_signals().len();
    let (w, h) = opts
        .grid
        .unwrap_or_else(|| ArchSpec::size_for(packed.plb_count(), io));

    let mut arch = opts.arch.clone();
    arch.width = w;
    arch.height = h;
    if let Some(cw) = opts.channel_width {
        arch.channel_width = cw;
    }
    arch.name = format!("{}-{w}x{h}", opts.arch.name);

    let stage = std::time::Instant::now();
    let place_span = tracer.span("flow.place");
    let placement = cache.run(
        Stage::Place,
        |key| {
            key.write_u64(opts.seed);
            key.write_u64(w as u64);
            key.write_u64(h as u64);
        },
        |art: PlaceArtifact| Ok(checkpoint::restore_place(&art)),
        || {
            let place_opts = PlaceOptions {
                tracer: tracer.clone(),
                ..PlaceOptions::seeded(opts.seed)
            };
            place_with(&mapped, &packed, &arch, &place_opts).map_err(FlowError::Place)
        },
        checkpoint::checkpoint_place,
    )?;
    drop(place_span);
    let place_ms = stage.elapsed().as_secs_f64() * 1e3;

    let stage = std::time::Instant::now();
    let route_span = tracer.span("flow.route");
    let route = cache.run(
        Stage::Route,
        |key| {
            key.write_str(&route_key(&opts.route));
            key.write_str(&format!("{:?}", opts.channel_width));
        },
        |art: RouteArtifact| {
            // Restored: jump straight to the channel width the widening
            // loop converged at — the retries are part of what the
            // checkpoint remembers. Binding is recomputed (it is cheap
            // and pins the restored trees to real routing-resource
            // nodes).
            let arch = ArchSpec {
                channel_width: art.channel_width,
                ..arch.clone()
            };
            let (rrg, binding) = build_and_bind(&mapped, &packed, &placement, &arch, tracer)?;
            Ok(Routed {
                channel_width: art.channel_width,
                rrg,
                binding,
                result: checkpoint::restore_route(&art),
                timing: checkpoint::restore_timing_report(&art),
                summary: checkpoint::restore_timing_summary(&art),
            })
        },
        || route_widening(&mapped, &packed, &placement, arch.clone(), opts),
        |r| checkpoint::checkpoint_route(&r.result, r.channel_width, &r.timing, &r.summary),
    )?;
    drop(route_span);
    let route_ms = stage.elapsed().as_secs_f64() * 1e3;
    arch.channel_width = route.channel_width;
    let routed = route.result;

    let bitgen_span = tracer.span("flow.bitgen");
    let config = cache.run(
        Stage::Bitgen,
        |_| {},
        |art: BitstreamArtifact| Ok(art.config),
        || Ok(assemble(route.binding, routed.trees)),
        checkpoint::checkpoint_bitstream,
    )?;
    // Always re-checked, restored or not: a poisoned or stale store
    // entry must surface as a structured error, never a bad fabric.
    config.check(&route.rrg).map_err(FlowError::Check)?;
    let utilization = Utilization::of(&config);
    drop(bitgen_span);

    let report = FlowReport {
        design: netlist.name().to_string(),
        arch: arch.name.clone(),
        source_gates: netlist.gates().len(),
        les: mapped.les.len(),
        les_paired: mapped.les.iter().filter(|le| le.funcs.len() >= 2).count(),
        lut2_used: mapped
            .les
            .iter()
            .filter(|le| {
                le.funcs
                    .iter()
                    .any(|f| f.tap == msaf_fabric::le::LeOutput::Lut2)
            })
            .count(),
        pdes: mapped.pdes.len(),
        plbs: packed.plb_count(),
        grid: (arch.width, arch.height),
        place_cost: placement.cost,
        place_moves_attempted: placement.stats.moves_attempted,
        place_moves_accepted: placement.stats.moves_accepted,
        route_iterations: routed.iterations,
        route_ripups: routed.stats.ripups,
        route_nodes_popped: routed.stats.nodes_popped,
        route_colors: routed.stats.conflict_colors,
        route_max_class: routed.stats.max_class,
        wirelength: config.total_wirelength(),
        techmap_ms,
        pack_ms,
        place_ms,
        route_ms,
        utilization,
        timing: route.timing,
        timing_summary: route.summary,
    };

    Ok((
        CompiledDesign {
            arch,
            mapped,
            packed,
            placement,
            config,
            report,
        },
        cache.report,
    ))
}

/// The route stage's key text: every option that can change a routing
/// result, spelled as `{:?}` printed `RouteOptions` when the PathFinder
/// constants and uniform base costs were still fields of it, so the
/// store keys written then still hit. The destructuring is exhaustive:
/// a new option fails to compile here until it joins the key.
///
/// Thread count is left out: routing results are byte-identical at any
/// thread count (the determinism contract pinned by
/// tests/trace_determinism.rs), so it must not fragment the cache.
/// `chunk` feeds in, because it changes the recorded negotiation
/// statistics.
fn route_key(opts: &RouteOptions) -> String {
    let RouteOptions {
        max_iterations,
        astar_fac,
        threads: _,
        chunk,
        timing_fac,
    } = *opts;
    format!(
        "RouteOptions {{ max_iterations: {max_iterations:?}, pres_fac_mult: {PRES_FAC_MULT:?}, \
         hist_fac: {HIST_FAC:?}, astar_fac: {astar_fac:?}, \
         base: BaseCosts {{ hwire: 1.0, vwire: 1.0, pin: 1.0, pad: 1.0 }}, threads: 1, \
         chunk: {chunk:?}, timing_fac: {timing_fac:?} }}"
    )
}

/// Builds the routing graph for `arch` and binds the design's nets to
/// it, under the `flow.rrg` and `flow.bind` spans: the set-up of every
/// routing attempt and of every restored route.
fn build_and_bind(
    mapped: &MappedDesign,
    packed: &PackedDesign,
    placement: &Placement,
    arch: &ArchSpec,
    tracer: &Tracer,
) -> Result<(Rrg, Binding), FlowError> {
    let rrg = {
        let _span = tracer.span("flow.rrg");
        Rrg::build(arch)
    };
    let _span = tracer.span("flow.bind");
    let binding = bind(mapped, packed, placement, arch, &rrg).map_err(FlowError::Bitgen)?;
    Ok((rrg, binding))
}

/// Routes at `arch`'s channel width, doubling it on congestion failure
/// up to three times unless [`FlowOptions::channel_width`] pins it.
///
/// Routing always goes through the timing context: with the default
/// `timing_fac = 0.0` the result is bit-identical to the untimed router
/// and the context only measures (post-route critical delay, slacks);
/// raising `FlowOptions::route.timing_fac` makes the criticalities
/// steer the search.
fn route_widening(
    mapped: &MappedDesign,
    packed: &PackedDesign,
    placement: &Placement,
    mut arch: ArchSpec,
    opts: &FlowOptions,
) -> Result<Routed, FlowError> {
    let tracer = &opts.tracer;
    let total_attempts = if opts.channel_width.is_some() { 1 } else { 4 };
    let mut attempts = total_attempts;
    // The timing graph depends only on the mapped design — build it
    // once and clone per widening retry.
    let graph = TimingGraph::build(mapped);
    loop {
        let (rrg, binding) = build_and_bind(mapped, packed, placement, &arch, tracer)?;
        let mut ctx = RouteTimingCtx::with_graph(
            graph.clone(),
            mapped,
            &binding.requests,
            &binding.request_signals,
        );
        ctx.set_tracer(tracer.clone());
        match route_traced(&rrg, &binding.requests, &opts.route, Some(&mut ctx), tracer) {
            Ok(result) => {
                let timing = ctx.pre_route_report().clone();
                let summary = ctx.summary();
                return Ok(Routed {
                    channel_width: arch.channel_width,
                    rrg,
                    binding,
                    result,
                    timing,
                    summary,
                });
            }
            Err(e) => {
                attempts -= 1;
                if attempts == 0 {
                    // Pinned width: the caller asked for exactly this
                    // width, report the router error directly. Adaptive
                    // width: every widening failed — name the envelope.
                    if total_attempts == 1 {
                        return Err(FlowError::Route(e));
                    }
                    return Err(FlowError::RouteExhausted {
                        attempts: total_attempts,
                        final_channel_width: arch.channel_width,
                        last: e,
                    });
                }
                arch.channel_width *= 2;
                tracer.event("flow.widen_channel", || {
                    vec![
                        ("new_channel_width", arch.channel_width.into()),
                        ("attempts_left", attempts.into()),
                        (
                            "reason",
                            "routing congestion: unresolved overuse at this width".into(),
                        ),
                    ]
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_cells::adders::qdi_ripple_adder;
    use msaf_cells::fulladder::{micropipeline_full_adder, qdi_full_adder, SAFE_FA_MATCHED_DELAY};

    #[test]
    fn compile_qdi_fa_end_to_end() {
        let compiled = compile(&qdi_full_adder(), &FlowOptions::default()).unwrap();
        assert!(compiled.report.plbs >= 3);
        assert!(compiled.report.filling_ratio() > 0.5);
        assert!(compiled.report.wirelength > 0);
    }

    #[test]
    fn compile_micropipeline_fa_end_to_end() {
        let compiled = compile(
            &micropipeline_full_adder(SAFE_FA_MATCHED_DELAY),
            &FlowOptions::default(),
        )
        .unwrap();
        assert_eq!(compiled.report.pdes, 1);
        assert!(compiled.config.plbs.iter().any(|p| p.pde.is_used()));
    }

    #[test]
    fn headline_filling_ratio_gap() {
        // The E5 reproduction at flow level: QDI fills clearly better.
        let qdi = compile(&qdi_full_adder(), &FlowOptions::default()).unwrap();
        let mp = compile(
            &micropipeline_full_adder(SAFE_FA_MATCHED_DELAY),
            &FlowOptions::default(),
        )
        .unwrap();
        assert!(
            qdi.report.filling_ratio() > mp.report.filling_ratio() + 0.1,
            "QDI {:.2} vs micropipeline {:.2}",
            qdi.report.filling_ratio(),
            mp.report.filling_ratio()
        );
    }

    #[test]
    fn compile_wider_adder() {
        let compiled = compile(&qdi_ripple_adder(4), &FlowOptions::default()).unwrap();
        assert!(compiled.report.plbs > 10);
        assert!(compiled.arch.width * compiled.arch.height >= compiled.report.plbs);
    }

    #[test]
    fn timed_flow_reports_summary_and_respects_the_lower_bound() {
        let untimed = compile(&qdi_ripple_adder(4), &FlowOptions::default()).unwrap();
        let mut opts = FlowOptions::default();
        opts.route.timing_fac = 0.9;
        let timed = compile(&qdi_ripple_adder(4), &opts).unwrap();
        let (s0, s) = (&untimed.report.timing_summary, &timed.report.timing_summary);
        // Same design, same placement: identical combinational bound.
        assert_eq!(s.pre_route_critical_delay, s0.pre_route_critical_delay);
        // Timing-driven routing never worsens the routed critical delay,
        // and no routing can beat the combinational lower bound.
        assert!(s.post_route_critical_delay <= s0.post_route_critical_delay);
        assert!(s.post_route_critical_delay >= s.pre_route_critical_delay);
        // The histogram counts every routed net exactly once.
        let nets: usize = s.crit_histogram.iter().sum();
        assert!(nets > 0);
        assert!(timed.report.to_string().contains("routed timing"));
        // The timed bitstream passed its own consistency check inside
        // compile(); token-level equivalence of a timed flow is covered
        // in tests/end_to_end.rs.
    }

    #[test]
    fn pinned_grid_respected() {
        let opts = FlowOptions {
            grid: Some((6, 6)),
            ..FlowOptions::default()
        };
        let compiled = compile(&qdi_full_adder(), &opts).unwrap();
        assert_eq!(compiled.report.grid, (6, 6));
    }

    #[test]
    fn widening_exhaustion_is_a_structured_error_with_a_trace_trail() {
        // Starve the router (one PathFinder iteration, dense pinned
        // grid) so every channel-width attempt fails: the flow must
        // degrade gracefully into an error naming the final width, with
        // one flow.widen_channel event per widening — never a panic.
        let (tracer, recorder) = Tracer::recorder();
        let mut opts = FlowOptions {
            grid: Some((8, 8)),
            tracer,
            ..FlowOptions::default()
        };
        opts.route.max_iterations = 1;
        let initial_width = opts.arch.channel_width;
        let err = compile(&qdi_ripple_adder(4), &opts).unwrap_err();
        match &err {
            FlowError::RouteExhausted {
                attempts,
                final_channel_width,
                ..
            } => {
                assert_eq!(*attempts, 4);
                assert_eq!(*final_channel_width, initial_width * 8);
            }
            other => panic!("expected RouteExhausted, got {other}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("after 4 channel-width attempts")
                && msg.contains(&format!("final width {}", initial_width * 8)),
            "error must name the envelope: {msg}"
        );
        let widens = recorder
            .events()
            .iter()
            .filter(|e| e.name == "flow.widen_channel")
            .count();
        assert_eq!(widens, 3, "one widening event per doubling");
        for span in ["flow.rrg", "flow.bind"] {
            let begins = recorder
                .events()
                .iter()
                .filter(|e| e.name == span && e.phase == msaf_trace::Phase::Begin)
                .count();
            assert_eq!(begins, 4, "one {span} span per channel-width attempt");
        }
    }

    #[test]
    fn graph_build_and_bind_spans_sit_inside_the_route_span() {
        use msaf_artifact::MemStore;
        use msaf_trace::Phase;

        // A miss builds and binds before routing; a hit rebuilds and
        // re-binds to restore the trees. Both show as flow.rrg then
        // flow.bind, once each, inside flow.route.
        let store = MemStore::new();
        for warm in [false, true] {
            let (tracer, recorder) = Tracer::recorder();
            let opts = FlowOptions {
                tracer,
                ..FlowOptions::default()
            };
            let (_, report) = compile_cached(&qdi_full_adder(), &opts, &store, 5).unwrap();
            assert_eq!(report.all_hits(), warm, "{report:?}");
            let inside: Vec<(&str, Phase)> = recorder
                .events()
                .iter()
                .skip_while(|e| !(e.name == "flow.route" && e.phase == Phase::Begin))
                .skip(1)
                .take_while(|e| e.name != "flow.route")
                .filter(|e| e.name == "flow.rrg" || e.name == "flow.bind")
                .map(|e| (e.name, e.phase))
                .collect();
            assert_eq!(
                inside,
                [
                    ("flow.rrg", Phase::Begin),
                    ("flow.rrg", Phase::End),
                    ("flow.bind", Phase::Begin),
                    ("flow.bind", Phase::End),
                ],
                "warm: {warm}"
            );
        }
    }

    #[test]
    fn cached_compile_is_equivalent_and_hits_on_repeat() {
        use msaf_artifact::digest::digest_trees;
        use msaf_artifact::MemStore;

        let netlist = qdi_ripple_adder(2);
        let opts = FlowOptions::default();
        let baseline = compile(&netlist, &opts).unwrap();

        let store = MemStore::new();
        let source_digest = 0xfeed_beef;
        let (first, first_outcomes) =
            compile_cached(&netlist, &opts, &store, source_digest).unwrap();
        assert!(
            first_outcomes
                .stages()
                .iter()
                .all(|&(_, o)| o == StageOutcome::Miss),
            "cold store: every stage computed"
        );
        // Cached flow, cold store == plain compile, bit for bit.
        assert_eq!(first.config.to_json(), baseline.config.to_json());
        assert_eq!(
            digest_trees(&first.config.routes),
            digest_trees(&baseline.config.routes)
        );

        let (second, second_outcomes) =
            compile_cached(&netlist, &opts, &store, source_digest).unwrap();
        assert!(
            second_outcomes.all_hits(),
            "warm store: every stage restored, got {second_outcomes:?}"
        );
        assert_eq!(second.config.to_json(), baseline.config.to_json());
        assert_eq!(
            second.report.route_iterations,
            baseline.report.route_iterations
        );
        assert_eq!(
            second.report.timing_summary.post_route_critical_delay,
            baseline.report.timing_summary.post_route_critical_delay
        );
        assert_eq!(second.report.place_cost, baseline.report.place_cost);
        let stats = store.stats();
        assert_eq!(stats.entries, 4, "one artifact per stage");
        assert!(stats.hits >= 4);
    }

    #[test]
    fn cache_key_chain_is_pinned() {
        use msaf_artifact::MemStore;

        // Each key chains `fnv1a` of the upstream artifact's stored
        // JSON, which must equal its `Artifact::digest`: these are the
        // keys the `Artifact::digest` chain gives.
        let store = MemStore::new();
        compile_cached(&qdi_full_adder(), &FlowOptions::default(), &store, 7).unwrap();
        let mut keys = store.keys();
        keys.sort();
        assert_eq!(
            keys,
            [
                "v1:bitgen:d877a3728ba5dad2",
                "v1:pack:73155f47184cf743",
                "v1:place:1149e7c1ce0157a7",
                "v1:route:633f2bb2337b4a14",
            ]
        );
    }

    #[test]
    fn cache_keys_of_non_default_route_options_are_pinned() {
        use msaf_artifact::MemStore;

        // Every route option at a non-default value: the route key text
        // must spell each one as the options' `Debug` output once did.
        let store = MemStore::new();
        let mut opts = FlowOptions {
            seed: 3,
            channel_width: Some(24),
            ..FlowOptions::default()
        };
        opts.route.max_iterations = 7;
        opts.route.astar_fac = 0.0;
        opts.route.chunk = 1;
        opts.route.timing_fac = 0.5;
        compile_cached(&qdi_full_adder(), &opts, &store, 7).unwrap();
        let mut keys = store.keys();
        keys.sort();
        assert_eq!(
            keys,
            [
                "v1:bitgen:a552991a91cf2902",
                "v1:pack:73155f47184cf743",
                "v1:place:8407d04673c4bb65",
                "v1:route:b4d2dca07b6b8915",
            ]
        );
    }

    #[test]
    fn cache_events_sit_inside_their_stage_spans() {
        use msaf_artifact::MemStore;
        use msaf_trace::{Phase, Value};

        let netlist = qdi_full_adder();
        let (tracer, recorder) = Tracer::recorder();
        let opts = FlowOptions {
            tracer,
            ..FlowOptions::default()
        };
        compile(&netlist, &opts).unwrap();
        assert!(recorder.events().iter().all(|e| e.name != "flow.cache"));

        // A cold run misses every stage, a warm one hits every stage.
        let store = MemStore::new();
        for warm in [false, true] {
            let (tracer, recorder) = Tracer::recorder();
            let opts = FlowOptions {
                tracer,
                ..FlowOptions::default()
            };
            let (_, report) = compile_cached(&netlist, &opts, &store, 11).unwrap();
            assert_eq!(report.all_hits(), warm, "{report:?}");
            let events = recorder.events();
            let cache: Vec<usize> = (0..events.len())
                .filter(|&i| events[i].name == "flow.cache")
                .collect();
            assert_eq!(cache.len(), 4, "one flow.cache event per stage");
            for (&i, (stage, outcome)) in cache.iter().zip(report.stages()) {
                let args = &events[i].args;
                assert_eq!(args[0], ("stage", Value::Str(stage.into())));
                assert_eq!(args[1], ("outcome", Value::Str(outcome.name().into())));
                let span = format!("flow.{stage}");
                let is = |e: &msaf_trace::TraceEvent, phase| e.name == span && e.phase == phase;
                let begin = events[..i].iter().rposition(|e| is(e, Phase::Begin));
                let end = events[i..].iter().position(|e| is(e, Phase::End));
                assert!(
                    begin.is_some_and(|b| !events[b..i].iter().any(|e| is(e, Phase::End)))
                        && end.is_some(),
                    "{stage}'s flow.cache event lies outside its {span} span"
                );
            }
        }
    }

    #[test]
    fn cache_keys_isolate_seed_and_source() {
        use msaf_artifact::MemStore;

        let netlist = qdi_full_adder();
        let store = MemStore::new();
        let opts = FlowOptions::default();
        compile_cached(&netlist, &opts, &store, 1).unwrap();

        // Different source digest: nothing may hit.
        let (_, outcomes) = compile_cached(&netlist, &opts, &store, 2).unwrap();
        assert!(
            outcomes
                .stages()
                .iter()
                .all(|&(_, o)| o == StageOutcome::Miss),
            "source change must miss every stage, got {outcomes:?}"
        );

        // Different seed, same source: pack hits (seed-independent),
        // placement and everything downstream misses.
        let reseeded = FlowOptions {
            seed: 99,
            ..FlowOptions::default()
        };
        let (_, outcomes) = compile_cached(&netlist, &reseeded, &store, 1).unwrap();
        assert_eq!(outcomes.pack, StageOutcome::Hit);
        assert_eq!(outcomes.place, StageOutcome::Miss);
        assert_eq!(outcomes.route, StageOutcome::Miss);
        assert_eq!(outcomes.bitgen, StageOutcome::Miss);
    }

    #[test]
    fn corrupt_store_entries_degrade_to_misses() {
        use msaf_artifact::MemStore;

        let netlist = qdi_full_adder();
        let store = MemStore::new();
        compile_cached(&netlist, &FlowOptions::default(), &store, 7).unwrap();
        // Poison every entry with unparseable JSON: the flow must
        // recompute everything and still succeed.
        for key in store.keys() {
            store.put(&key, "{\"corrupt\": tru".to_string());
        }
        let (compiled, outcomes) =
            compile_cached(&netlist, &FlowOptions::default(), &store, 7).unwrap();
        assert!(
            outcomes
                .stages()
                .iter()
                .all(|&(_, o)| o == StageOutcome::Miss),
            "corrupt entries are misses, got {outcomes:?}"
        );
        assert!(compiled.report.wirelength > 0);
    }

    #[test]
    fn evicted_entries_are_recomputed_byte_identically() {
        use msaf_artifact::{MemStore, MEM_STORE_BUDGET_BYTES};

        let netlist = qdi_full_adder();
        let opts = FlowOptions::default();
        let store = MemStore::new();
        let (cold, _) = compile_cached(&netlist, &opts, &store, 5).unwrap();
        let design_keys = store.keys();
        assert_eq!(design_keys.len(), 4);
        // Unrelated traffic filling the whole budget pushes out the
        // design's entries — the least recently used — and nothing else.
        for i in 0..MEM_STORE_BUDGET_BYTES >> 20 {
            store.put(&format!("filler{i}"), "x".repeat(1 << 20));
        }
        let stats = store.stats();
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.bytes, MEM_STORE_BUDGET_BYTES);
        assert!(store.keys().iter().all(|k| k.starts_with("filler")));

        let (again, outcomes) = compile_cached(&netlist, &opts, &store, 5).unwrap();
        assert!(
            outcomes
                .stages()
                .iter()
                .all(|&(_, o)| o == StageOutcome::Miss),
            "evicted stages are misses, got {outcomes:?}"
        );
        assert_eq!(again.config.to_json(), cold.config.to_json());
        // The recomputed entries are back under the same keys.
        let (_, outcomes) = compile_cached(&netlist, &opts, &store, 5).unwrap();
        assert!(outcomes.all_hits(), "got {outcomes:?}");
        assert!(design_keys.iter().all(|k| store.get(k).is_some()));
    }

    #[test]
    fn thread_count_does_not_fragment_the_cache() {
        use msaf_artifact::MemStore;

        let netlist = qdi_full_adder();
        let store = MemStore::new();
        let mut one = FlowOptions::default();
        one.route.threads = 1;
        compile_cached(&netlist, &one, &store, 3).unwrap();
        let mut four = FlowOptions::default();
        four.route.threads = 4;
        let (_, outcomes) = compile_cached(&netlist, &four, &store, 3).unwrap();
        assert!(
            outcomes.all_hits(),
            "threads is excluded from cache keys, got {outcomes:?}"
        );
    }

    #[test]
    fn grid_sizing_policy() {
        assert_eq!(ArchSpec::size_for(1, 4), (1, 1));
        assert_eq!(ArchSpec::size_for(4, 8), (2, 2));
        assert_eq!(ArchSpec::size_for(5, 8), (3, 3));
        // I/O-bound growth.
        let (w, h) = ArchSpec::size_for(1, 40);
        assert!(2 * (w + h) >= 40);
    }
}
