//! The compile flow rebuilt from calls into each layer's public
//! function, each call wrapped in a span of the benchmark's own tracer,
//! with the layer's work recorded as counter samples.
//!
//! The sequence mirrors `msaf_cad::flow::compile_cached` stage by stage,
//! including the channel-widening retries and the artifact encodes and
//! decodes of its cache paths, so the per-layer numbers describe the
//! program the end-to-end numbers measure. [`Start::Cold`] is the
//! `msaf_cad::compile` path; callers gate every operation on its
//! bitstream digest matching the real flow's.

use msaf_artifact::digest::fnv1a;
use msaf_artifact::{Artifact, BitstreamArtifact, PackArtifact, PlaceArtifact, RouteArtifact};
use msaf_cad::bitgen::{assemble, bind};
use msaf_cad::checkpoint;
use msaf_cad::pack::pack;
use msaf_cad::place::{place_with, PlaceOptions};
use msaf_cad::route::route_timed;
use msaf_cad::techmap::map;
use msaf_cad::timing::{RouteTimingCtx, TimingGraph};
use msaf_cad::FlowOptions;
use msaf_fabric::arch::ArchSpec;
use msaf_fabric::bitstream::FabricConfig;
use msaf_fabric::rrg::Rrg;
use msaf_lang::ast::Pipeline;
use msaf_lang::{Analysis, Style};
use msaf_netlist::Netlist;
use msaf_trace::Tracer;

/// One key's four stage artifacts as the compile server's store holds
/// them: canonical JSON.
#[derive(Debug, Clone, Default)]
pub struct Warm {
    /// Packed netlist.
    pub pack: String,
    /// Placement.
    pub place: String,
    /// Routed trees.
    pub route: String,
    /// Bitstream.
    pub bitgen: String,
}

/// Where the flow starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// Every stage computed: the `msaf_cad::compile` path.
    Cold,
    /// Every stage restored: a compile-server request that hits.
    Hit(&'a Warm),
    /// Pack restored, the rest computed at the options' (fresh) seed and
    /// encoded for the store: a compile-server request that misses.
    Reseed(&'a Warm),
}

/// What one staged compile produced.
#[derive(Debug)]
pub struct Staged {
    /// The mapped design (verification needs it).
    pub mapped: msaf_cad::MappedDesign,
    /// The final bitstream.
    pub config: FabricConfig,
    /// `fnv1a` of the bitstream's JSON.
    pub digest: u64,
    /// Packed logic blocks.
    pub plbs: usize,
}

/// `fnv1a` of a bitstream's JSON: the digest the compile server reports.
///
/// # Errors
///
/// Serialization failure, as text.
pub fn digest(config: &FabricConfig) -> Result<u64, String> {
    config
        .to_json()
        .map(|json| fnv1a(json.as_bytes()))
        .map_err(|e| format!("bitstream serialization: {e}"))
}

/// Parse, expand and check, one span each.
///
/// # Errors
///
/// The rendered diagnostics.
pub fn front_end(src: &str, t: &Tracer) -> Result<(Pipeline, Analysis), String> {
    let render = |ds: Vec<msaf_lang::Diag>| {
        ds.iter()
            .map(|d| d.render(src))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let prog = {
        let _s = t.span("lang.parse");
        msaf_lang::parse(src).map_err(|d| d.render(src))?
    };
    let ast = {
        let _s = t.span("lang.expand");
        msaf_lang::expand(&prog).map_err(render)?
    };
    let analysis = {
        let _s = t.span("lang.check");
        msaf_lang::analyze(&ast).map_err(render)?
    };
    Ok((ast, analysis))
}

/// Elaboration in one style, in a span.
#[must_use]
pub fn elaborate(ast: &Pipeline, analysis: &Analysis, style: Style, t: &Tracer) -> Netlist {
    let nl = {
        let _s = t.span("lang.elab");
        msaf_lang::elaborate(ast, analysis, style)
    };
    t.counter("lang.gates", nl.gates().len() as u64);
    nl
}

fn decode<A: Artifact>(t: &Tracer, span: &'static str, json: &str) -> Result<A, String> {
    let _s = t.span(span);
    t.counter("artifact.decoded_bytes", json.len() as u64);
    A::from_json(json).map_err(|e| format!("{span}: {e}"))
}

/// The cache paths digest each stored artifact to chain the next
/// stage's key; a digest is one more serialization.
fn key_digest<A: Artifact>(t: &Tracer, span: &'static str, art: &A) {
    let _s = t.span(span);
    std::hint::black_box(art.digest());
}

/// A miss stores the artifact and then digests it for the next key.
fn store_and_key<A: Artifact>(t: &Tracer, span: &'static str, art: &A) {
    let _s = t.span(span);
    let json = art.to_json();
    t.counter("artifact.encoded_bytes", json.len() as u64);
    std::hint::black_box(json);
    std::hint::black_box(art.digest());
}

/// Compiles `netlist` layer by layer.
///
/// # Errors
///
/// Any flow error or artifact decode failure, as text.
#[allow(clippy::too_many_lines)]
pub fn compile(
    netlist: &Netlist,
    opts: &FlowOptions,
    start: Start<'_>,
    t: &Tracer,
) -> Result<Staged, String> {
    let mapped = {
        let _s = t.span("cad.techmap");
        map(netlist, &opts.arch).map_err(|e| format!("techmap: {e}"))?
    };
    t.counter("cad.les", mapped.les.len() as u64);

    let packed = match start {
        Start::Cold => {
            let _s = t.span("cad.pack");
            pack(&mapped, &opts.arch).map_err(|e| format!("pack: {e}"))?
        }
        Start::Hit(w) | Start::Reseed(w) => {
            let art: PackArtifact = decode(t, "artifact.decode.pack", &w.pack)?;
            key_digest(t, "artifact.encode.pack", &art);
            checkpoint::restore_pack(&art)
        }
    };
    let plbs = packed.plb_count();
    t.counter("cad.plbs", plbs as u64);

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

    let placement = match start {
        Start::Hit(w) => {
            let art: PlaceArtifact = decode(t, "artifact.decode.place", &w.place)?;
            key_digest(t, "artifact.encode.place", &art);
            checkpoint::restore_place(&art)
        }
        Start::Cold | Start::Reseed(_) => {
            let placement = {
                let _s = t.span("cad.place");
                place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(opts.seed))
                    .map_err(|e| format!("place: {e}"))?
            };
            t.counter("place.moves", placement.stats.moves_attempted);
            t.counter("place.accepted", placement.stats.moves_accepted);
            if let Start::Reseed(_) = start {
                store_and_key(
                    t,
                    "artifact.encode.place",
                    &checkpoint::checkpoint_place(&placement),
                );
            }
            placement
        }
    };

    let graph = {
        let _s = t.span("cad.timing_graph");
        TimingGraph::build(&mapped)
    };

    let build_rrg = |arch: &ArchSpec| {
        let rrg = {
            let _s = t.span("fabric.rrg");
            Rrg::build(arch)
        };
        t.counter("fabric.rrg_nodes", rrg.len() as u64);
        rrg
    };
    let bind_on = |arch: &ArchSpec, rrg: &Rrg| {
        let _s = t.span("cad.bind");
        bind(&mapped, &packed, &placement, arch, rrg).map_err(|e| format!("bitgen: {e}"))
    };

    let (rrg, binding, trees) = if let Start::Hit(w) = start {
        let art: RouteArtifact = decode(t, "artifact.decode.route", &w.route)?;
        key_digest(t, "artifact.encode.route", &art);
        arch.channel_width = art.channel_width;
        let rrg = build_rrg(&arch);
        let binding = bind_on(&arch, &rrg)?;
        let trees = checkpoint::restore_route(&art).trees;
        (rrg, binding, trees)
    } else {
        let total_attempts = if opts.channel_width.is_some() { 1 } else { 4 };
        let mut attempts = total_attempts;
        let (rrg, binding, routed, timing, summary) = loop {
            let rrg = build_rrg(&arch);
            let binding = bind_on(&arch, &rrg)?;
            let outcome = {
                let _s = t.span("cad.route");
                let mut ctx = RouteTimingCtx::with_graph(
                    graph.clone(),
                    &mapped,
                    &binding.requests,
                    &binding.request_signals,
                );
                route_timed(&rrg, &binding.requests, &opts.route, &mut ctx)
                    .map(|routed| (routed, ctx.pre_route_report().clone(), ctx.summary()))
            };
            match outcome {
                Ok((routed, timing, summary)) => break (rrg, binding, routed, timing, summary),
                Err(e) => {
                    attempts -= 1;
                    if attempts == 0 {
                        return Err(format!(
                            "route: unroutable after {total_attempts} channel-width attempts: {e}"
                        ));
                    }
                    arch.channel_width *= 2;
                    t.counter("route.widenings", 1);
                }
            }
        };
        t.counter("route.iterations", routed.iterations as u64);
        t.counter("route.nodes_popped", routed.stats.nodes_popped);
        t.counter("route.ripups", routed.stats.ripups);
        t.counter("timing.crit_delay", summary.post_route_critical_delay);
        if let Start::Reseed(_) = start {
            store_and_key(
                t,
                "artifact.encode.route",
                &checkpoint::checkpoint_route(&routed, arch.channel_width, &timing, &summary),
            );
        }
        (rrg, binding, routed.trees)
    };

    let config = if let Start::Hit(w) = start {
        let art: BitstreamArtifact = decode(t, "artifact.decode.bitgen", &w.bitgen)?;
        art.config
    } else {
        let config = {
            let _s = t.span("cad.bitgen");
            assemble(binding, trees)
        };
        if let Start::Reseed(_) = start {
            let _s = t.span("artifact.encode.bitgen");
            let json = checkpoint::checkpoint_bitstream(&config).to_json();
            t.counter("artifact.encoded_bytes", json.len() as u64);
            std::hint::black_box(json);
        }
        config
    };
    {
        let _s = t.span("fabric.check");
        config
            .check(&rrg)
            .map_err(|e| format!("bitstream check: {e}"))?;
    }
    t.counter("cad.wirelength", config.total_wirelength() as u64);
    let digest = {
        let _s = t.span("bench.digest");
        digest(&config)?
    };
    Ok(Staged {
        mapped,
        config,
        digest,
        plbs,
    })
}
