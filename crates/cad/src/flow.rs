//! The end-to-end compile flow: netlist in, programmed fabric out.

use crate::bitgen::{assemble, bind, BitgenError};
use crate::checkpoint;
use crate::pack::{pack, PackError, PackedDesign};
use crate::place::{place_traced, PlaceError, PlaceOptions, Placement};
use crate::report::FlowReport;
use crate::route::{route_traced, RouteError, RouteOptions};
use crate::techmap::{map, MapError, MappedDesign};
use crate::timing::{RouteTimingCtx, TimingGraph};
use msaf_artifact::digest::{fnv1a, Fnv64};
use msaf_artifact::{Artifact, ArtifactStore, BitstreamArtifact, PackArtifact, Stage};
use msaf_fabric::arch::ArchSpec;
use msaf_fabric::bitstream::FabricConfig;
use msaf_fabric::rrg::Rrg;
use msaf_fabric::utilization::Utilization;
use msaf_netlist::Netlist;
use msaf_trace::{Metrics, Tracer};

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

/// Smallest grid fitting `plbs` logic blocks and `io` perimeter pads
/// (the shared policy lives on [`ArchSpec::size_for`] so the
/// fabric-scale benchmark workloads size grids identically).
fn size_grid(plbs: usize, io: usize) -> (usize, usize) {
    ArchSpec::size_for(plbs, io)
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
}

/// The content-addressed cache context threaded through the flow: the
/// store plus the digest of everything upstream of the first stage (the
/// source text and style, hashed by the caller).
struct CacheCtx<'a> {
    store: &'a dyn ArtifactStore,
    source_digest: u64,
}

impl CacheCtx<'_> {
    /// Looks up and deserializes a stage artifact, returning it with
    /// `fnv1a` of the JSON it was read from: the digest the next
    /// stage's key chains, without re-serializing the artifact. Canonical
    /// JSON round-trips exactly, so for every entry the flow writes this
    /// equals [`Artifact::digest`]; a parseable but non-canonical entry
    /// only moves the downstream keys, turning those stages into misses.
    ///
    /// A missing entry and a malformed/shape-mismatched one are the same
    /// thing — a miss — so a format change (or a corrupted store)
    /// degrades to recomputation, never to a compile error.
    fn get<A: Artifact>(&self, key: &str) -> Option<(A, u64)> {
        let json = self.store.get(key)?;
        let artifact = A::from_json(&json).ok()?;
        Some((artifact, fnv1a(json.as_bytes())))
    }

    /// Stores `artifact` under `key` and returns `fnv1a` of the stored
    /// JSON — its [`Artifact::digest`], from the one encode.
    fn put<A: Artifact>(&self, key: &str, artifact: &A) -> u64 {
        let json = artifact.to_json();
        let digest = fnv1a(json.as_bytes());
        self.store.put(key, json);
        digest
    }
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
    compile_inner(netlist, opts, None).map(|(compiled, _)| compiled)
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
    compile_inner(
        netlist,
        opts,
        Some(CacheCtx {
            store,
            source_digest,
        }),
    )
}

#[allow(clippy::too_many_lines)]
fn compile_inner(
    netlist: &Netlist,
    opts: &FlowOptions,
    cache: Option<CacheCtx<'_>>,
) -> Result<(CompiledDesign, CacheReport), FlowError> {
    let tracer = &opts.tracer;
    let mut outcomes = CacheReport::ALL_MISS;

    // Stage key chain. Each stage's input digest folds in the previous
    // stage's input digest *and* artifact digest, so a hit at stage N
    // implies the entire upstream line matched.
    let pack_input = cache.as_ref().map(|ctx| {
        let mut h = Fnv64::new();
        h.write_u64(ctx.source_digest);
        h.write_str(&format!("{:?}", opts.arch));
        h.finish()
    });

    let stage = std::time::Instant::now();
    let pack_span = tracer.span("flow.pack");
    let mapped = map(netlist, &opts.arch).map_err(FlowError::Map)?;
    let pack_key = pack_input.map(|d| Stage::Pack.key(d));
    let mut pack_digest = None;
    let packed = match (&cache, &pack_key) {
        (Some(ctx), Some(key)) => {
            if let Some((art, digest)) = ctx.get::<PackArtifact>(key) {
                outcomes.pack = StageOutcome::Hit;
                pack_digest = Some(digest);
                checkpoint::restore_pack(&art)
            } else {
                let packed = pack(&mapped, &opts.arch).map_err(FlowError::Pack)?;
                pack_digest = Some(ctx.put(key, &checkpoint::checkpoint_pack(&packed)));
                packed
            }
        }
        _ => pack(&mapped, &opts.arch).map_err(FlowError::Pack)?,
    };
    if cache.is_some() {
        tracer.event("flow.cache", || {
            vec![
                ("stage", "pack".into()),
                ("outcome", outcomes.pack.name().into()),
            ]
        });
    }
    drop(pack_span);
    let pack_ms = stage.elapsed().as_secs_f64() * 1e3;

    let io = mapped.io_signals().len();
    let (w, h) = opts
        .grid
        .unwrap_or_else(|| size_grid(packed.plb_count(), io));

    let mut arch = opts.arch.clone();
    arch.width = w;
    arch.height = h;
    if let Some(cw) = opts.channel_width {
        arch.channel_width = cw;
    }
    arch.name = format!("{}-{w}x{h}", opts.arch.name);

    let place_input = match (pack_input, pack_digest) {
        (Some(pi), Some(digest)) => {
            let mut hasher = Fnv64::new();
            hasher.write_u64(pi);
            hasher.write_u64(digest);
            hasher.write_u64(opts.seed);
            hasher.write_u64(w as u64);
            hasher.write_u64(h as u64);
            Some(hasher.finish())
        }
        _ => None,
    };

    let stage = std::time::Instant::now();
    let place_span = tracer.span("flow.place");
    let place_key = place_input.map(|d| Stage::Place.key(d));
    let mut place_digest = None;
    let placement = match (&cache, &place_key) {
        (Some(ctx), Some(key)) => {
            if let Some((art, digest)) = ctx.get::<msaf_artifact::PlaceArtifact>(key) {
                outcomes.place = StageOutcome::Hit;
                place_digest = Some(digest);
                checkpoint::restore_place(&art)
            } else {
                let placement = place_traced(
                    &mapped,
                    &packed,
                    &arch,
                    &PlaceOptions::seeded(opts.seed),
                    tracer,
                )
                .map_err(FlowError::Place)?;
                place_digest = Some(ctx.put(key, &checkpoint::checkpoint_place(&placement)));
                placement
            }
        }
        _ => place_traced(
            &mapped,
            &packed,
            &arch,
            &PlaceOptions::seeded(opts.seed),
            tracer,
        )
        .map_err(FlowError::Place)?,
    };
    if cache.is_some() {
        tracer.event("flow.cache", || {
            vec![
                ("stage", "place".into()),
                ("outcome", outcomes.place.name().into()),
            ]
        });
    }
    drop(place_span);
    let place_ms = stage.elapsed().as_secs_f64() * 1e3;

    // Route, widening channels on congestion failure. The flow always
    // routes through the timing context: with the default
    // `timing_fac = 0.0` the routing result is bit-identical to the
    // untimed router and the context only measures (post-route critical
    // delay, slacks); raising `FlowOptions::route.timing_fac` makes the
    // criticalities steer the search.
    let route_input = match (place_input, place_digest) {
        (Some(pi), Some(digest)) => {
            let mut hasher = Fnv64::new();
            hasher.write_u64(pi);
            hasher.write_u64(digest);
            // Thread count is excluded from the key: routing results
            // are byte-identical at any thread count (the determinism
            // contract pinned by tests/trace_determinism.rs), so it
            // must not fragment the cache. Everything else in the
            // options — including `chunk`, which changes the recorded
            // negotiation statistics — feeds in.
            let mut keyed = opts.route;
            keyed.threads = 1;
            hasher.write_str(&format!("{keyed:?}"));
            hasher.write_str(&format!("{:?}", opts.channel_width));
            Some(hasher.finish())
        }
        _ => None,
    };
    let route_key = route_input.map(|d| Stage::Route.key(d));

    let stage = std::time::Instant::now();
    let route_span = tracer.span("flow.route");
    let restored = match (&cache, &route_key) {
        (Some(ctx), Some(key)) => ctx.get::<msaf_artifact::RouteArtifact>(key),
        _ => None,
    };
    let (rrg, binding, routed, timing, timing_summary, route_digest) = if let Some((art, digest)) =
        restored
    {
        // Restored: jump straight to the channel width the widening
        // loop converged at — the retries are part of what the
        // checkpoint remembers. Binding is recomputed (it is cheap and
        // pins the restored trees to real routing-resource nodes).
        outcomes.route = StageOutcome::Hit;
        arch.channel_width = art.channel_width;
        let rrg = Rrg::build(&arch);
        let binding = bind(&mapped, &packed, &placement, &arch, &rrg).map_err(FlowError::Bitgen)?;
        let routed = checkpoint::restore_route(&art);
        let timing = checkpoint::restore_timing_report(&art);
        let summary = checkpoint::restore_timing_summary(&art);
        (rrg, binding, routed, timing, summary, Some(digest))
    } else {
        let total_attempts = if opts.channel_width.is_some() { 1 } else { 4 };
        let mut attempts = total_attempts;
        // The timing graph depends only on the mapped design — build it
        // once and clone per widening retry.
        let graph = TimingGraph::build(&mapped);
        let (rrg, binding, routed, timing, summary) = loop {
            let rrg = Rrg::build(&arch);
            let binding =
                bind(&mapped, &packed, &placement, &arch, &rrg).map_err(FlowError::Bitgen)?;
            let mut ctx = RouteTimingCtx::with_graph(
                graph.clone(),
                &mapped,
                &binding.requests,
                &binding.request_signals,
            );
            ctx.set_tracer(tracer.clone());
            match route_traced(&rrg, &binding.requests, &opts.route, Some(&mut ctx), tracer) {
                Ok(routed) => {
                    let timing = ctx.pre_route_report().clone();
                    let summary = ctx.summary();
                    break (rrg, binding, routed, timing, summary);
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
        };
        let route_digest = match (&cache, &route_key) {
            (Some(ctx), Some(key)) => Some(ctx.put(
                key,
                &checkpoint::checkpoint_route(&routed, arch.channel_width, &timing, &summary),
            )),
            _ => None,
        };
        (rrg, binding, routed, timing, summary, route_digest)
    };
    if cache.is_some() {
        tracer.event("flow.cache", || {
            vec![
                ("stage", "route".into()),
                ("outcome", outcomes.route.name().into()),
            ]
        });
    }
    drop(route_span);

    let route_ms = stage.elapsed().as_secs_f64() * 1e3;

    let bitgen_input = match (route_input, route_digest) {
        (Some(ri), Some(digest)) => {
            let mut hasher = Fnv64::new();
            hasher.write_u64(ri);
            hasher.write_u64(digest);
            Some(hasher.finish())
        }
        _ => None,
    };
    let bitgen_key = bitgen_input.map(|d| Stage::Bitgen.key(d));

    let bitgen_span = tracer.span("flow.bitgen");
    let cached_config = match (&cache, &bitgen_key) {
        (Some(ctx), Some(key)) => ctx.get::<BitstreamArtifact>(key).map(|(art, _)| art.config),
        _ => None,
    };
    let config = if let Some(config) = cached_config {
        outcomes.bitgen = StageOutcome::Hit;
        config
    } else {
        let config = assemble(binding, routed.trees);
        if let (Some(ctx), Some(key)) = (&cache, &bitgen_key) {
            ctx.put(key, &checkpoint::checkpoint_bitstream(&config));
        }
        config
    };
    // Always re-checked, restored or not: a poisoned or stale store
    // entry must surface as a structured error, never a bad fabric.
    config.check(&rrg).map_err(FlowError::Check)?;
    let utilization = Utilization::of(&config);
    if cache.is_some() {
        tracer.event("flow.cache", || {
            vec![
                ("stage", "bitgen".into()),
                ("outcome", outcomes.bitgen.name().into()),
            ]
        });
    }
    drop(bitgen_span);

    // Effort observables as a typed counter map. Sourced exclusively
    // from the deterministic result structs (never the trace recorder),
    // so the map is identical with tracing on or off.
    let mut metrics = Metrics::new();
    metrics.set("flow.source_gates", netlist.gates().len() as u64);
    metrics.set("flow.les", mapped.les.len() as u64);
    metrics.set("flow.pdes", mapped.pdes.len() as u64);
    metrics.set("flow.plbs", packed.plb_count() as u64);
    metrics.set("place.moves_attempted", placement.stats.moves_attempted);
    metrics.set("place.moves_accepted", placement.stats.moves_accepted);
    metrics.set("route.iterations", routed.iterations as u64);
    metrics.set("route.nodes_popped", routed.stats.nodes_popped);
    metrics.set("route.ripups", routed.stats.ripups);
    metrics.set("route.conflict_colors", routed.stats.conflict_colors);
    metrics.set("route.max_class", routed.stats.max_class);
    metrics.set("route.wirelength", config.total_wirelength() as u64);
    metrics.set(
        "timing.critical_delay",
        timing_summary.post_route_critical_delay,
    );
    metrics.set("timing.worst_slack", timing_summary.worst_slack);

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
        route_iterations: routed.iterations,
        route_ripups: routed.stats.ripups,
        route_colors: routed.stats.conflict_colors,
        route_max_class: routed.stats.max_class,
        wirelength: config.total_wirelength(),
        pack_ms,
        place_ms,
        route_ms,
        utilization,
        timing,
        timing_summary,
        metrics,
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
        outcomes,
    ))
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
        assert_eq!(size_grid(1, 4), (1, 1));
        assert_eq!(size_grid(4, 8), (2, 2));
        assert_eq!(size_grid(5, 8), (3, 3));
        // I/O-bound growth.
        let (w, h) = size_grid(1, 40);
        assert!(2 * (w + h) >= 40);
    }
}
