//! The no-op-sink contract of `msaf-trace`, pinned end to end:
//! installing a recorder (or not) must never change any result byte —
//! route trees, placement, flow reports, or simulated token streams —
//! at any thread count. Tracing observes; it never feeds back.
//!
//! The instrumentation reads counters that already exist and timestamps
//! that go nowhere but the sink, so these tests guard against the only
//! way observability could rot the determinism contract: someone
//! accidentally branching on `tracer.enabled()` (or on recorded data)
//! in a result-bearing path.

use msaf::artifact::digest::digest_trees as digest;
use msaf::cad::flow::{compile, FlowOptions};
use msaf::cad::place::{place_with, PlaceOptions};
use msaf::cad::route::{route, route_traced, RouteOptions, RouteRequest};
use msaf::cad::techmap::map;
use msaf::fabric::arch::ArchSpec;
use msaf::fabric::rrg::Rrg;
use msaf::prelude::*;
use msaf::trace::Phase;
use std::collections::BTreeMap;

/// The `route_qdi_adder_4b` workload (paper arch 8×8, placement seed 7).
fn adder_workload() -> (Rrg, Vec<RouteRequest>) {
    let nl = qdi_ripple_adder(4);
    let arch = ArchSpec::paper(8, 8);
    let mapped = map(&nl, &arch).expect("maps");
    let packed = msaf::cad::pack::pack(&mapped, &arch).expect("packs");
    let placement = msaf::cad::place::place(&mapped, &packed, &arch, 7).expect("places");
    let rrg = Rrg::build(&arch);
    let binding =
        msaf::cad::bitgen::bind(&mapped, &packed, &placement, &arch, &rrg).expect("binds");
    (rrg, binding.requests)
}

#[test]
fn routing_is_byte_identical_under_recorder_sink_at_1_and_4_threads() {
    let (rrg, requests) = adder_workload();
    for threads in [1, 4] {
        let opts = RouteOptions {
            threads,
            ..RouteOptions::default()
        };
        let plain = route(&rrg, &requests, &opts).expect("routes");
        let (tracer, recorder) = Tracer::recorder();
        let traced = route_traced(&rrg, &requests, &opts, None, &tracer).expect("routes");
        assert_eq!(
            digest(&traced.trees),
            digest(&plain.trees),
            "{threads}-thread route digest changed under a recorder sink"
        );
        assert_eq!(traced.iterations, plain.iterations, "{threads} threads");
        assert_eq!(traced.stats, plain.stats, "{threads} threads");
        // The recorder really was live: one event per PathFinder
        // iteration plus the effort counters.
        let events = recorder.events();
        let iteration_events = events
            .iter()
            .filter(|e| e.name == "route.iteration")
            .count();
        assert_eq!(
            iteration_events, traced.iterations,
            "{threads} threads: one route.iteration event per iteration"
        );
        assert!(
            events.iter().any(|e| e.name == "route.nodes_popped"),
            "{threads} threads: effort counters missing"
        );
    }
}

#[test]
fn placement_is_byte_identical_under_recorder_sink() {
    let nl = qdi_ripple_adder(4);
    let arch = ArchSpec::paper(8, 8);
    let mapped = map(&nl, &arch).expect("maps");
    let packed = msaf::cad::pack::pack(&mapped, &arch).expect("packs");
    let plain = place_with(&mapped, &packed, &arch, &PlaceOptions::seeded(7)).expect("places");
    let (tracer, recorder) = Tracer::recorder();
    let opts = PlaceOptions {
        tracer,
        ..PlaceOptions::seeded(7)
    };
    let traced = place_with(&mapped, &packed, &arch, &opts).expect("places");
    assert_eq!(traced.plb_pos, plain.plb_pos, "PLB positions drifted");
    assert_eq!(traced.pad_of_signal, plain.pad_of_signal, "pads drifted");
    assert!((traced.cost - plain.cost).abs() == 0.0, "cost drifted");
    assert_eq!(traced.stats, plain.stats, "annealing effort drifted");
    assert!(
        recorder
            .events()
            .iter()
            .any(|e| e.name == "place.temperature"),
        "annealing progress events missing"
    );
}

/// Full flow + token simulation: the structural report fields (the ones
/// `bench_summary --check` pins for BENCH rows — iterations, rip-ups,
/// pops, moves, wirelength, costs) and the simulated token streams must
/// be identical with a recorder installed, at 1 and 4 route threads.
#[test]
fn flow_and_sim_are_byte_identical_under_recorder_sink() {
    let nl = qdi_full_adder();
    let mut inputs = BTreeMap::new();
    inputs.insert("op".to_string(), (0..8).collect::<Vec<u64>>());
    for threads in [1, 4] {
        let route = RouteOptions {
            threads,
            ..RouteOptions::default()
        };
        let plain = compile(
            &nl,
            &FlowOptions {
                route,
                ..FlowOptions::default()
            },
        )
        .expect("compiles");
        let (tracer, recorder) = Tracer::recorder();
        let traced = compile(
            &nl,
            &FlowOptions {
                route,
                tracer: tracer.clone(),
                ..FlowOptions::default()
            },
        )
        .expect("compiles");
        // Every structural (non-wall-time) report field, including the
        // effort counters, must match.
        let effort = |r: &FlowReport| {
            (
                (r.source_gates, r.les, r.pdes, r.plbs),
                r.place_moves_attempted,
                r.place_moves_accepted,
                r.route_nodes_popped,
                r.route_colors,
                r.route_max_class,
                r.timing_summary.clone(),
            )
        };
        assert_eq!(effort(&traced.report), effort(&plain.report), "{threads}");
        assert_eq!(traced.report.place_cost, plain.report.place_cost);
        assert_eq!(
            traced.report.route_iterations,
            plain.report.route_iterations
        );
        assert_eq!(traced.report.route_ripups, plain.report.route_ripups);
        assert_eq!(traced.report.wirelength, plain.report.wirelength);
        assert_eq!(traced.report.grid, plain.report.grid);
        assert!(!recorder.is_empty(), "flow recorder saw no events");

        // Token simulation with and without a recorder in its options.
        let sim_plain = token_run(
            &nl,
            &PerKindDelay::new(),
            &inputs,
            &TokenRunOptions::default(),
        )
        .expect("runs");
        let (sim_tracer, sim_recorder) = Tracer::recorder();
        let sim_traced = token_run(
            &nl,
            &PerKindDelay::new(),
            &inputs,
            &TokenRunOptions { tracer: sim_tracer },
        )
        .expect("runs");
        for (chan, stream) in &sim_plain.outputs {
            assert_eq!(
                sim_traced.outputs[chan].values(),
                stream.values(),
                "token stream '{chan}' drifted under tracing"
            );
        }
        assert_eq!(sim_traced.events, sim_plain.events);
        assert_eq!(sim_traced.steps, sim_plain.steps);
        assert_eq!(sim_traced.evaluations, sim_plain.evaluations);
        assert_eq!(sim_traced.end_time, sim_plain.end_time);
        assert_eq!(sim_traced.glitches, sim_plain.glitches);
        // One run: exactly one `sim.run` span and one summary.
        let sim_events = sim_recorder.events();
        let count = |name: &str, phase: Phase| {
            sim_events
                .iter()
                .filter(|e| e.name == name && e.phase == phase)
                .count()
        };
        assert_eq!(count("sim.run", Phase::Begin), 1, "sim.run span opened");
        assert_eq!(count("sim.run", Phase::End), 1, "sim.run span closed");
        assert_eq!(count("sim.summary", Phase::Instant), 1, "sim.summary");
    }
}

/// The recorder's Chrome rendering of a real flow is structurally valid
/// (the e2e `msafc --trace` run is pinned in `crates/lang/tests`).
#[test]
fn recorded_flow_renders_a_wellformed_chrome_trace() {
    let (tracer, recorder) = Tracer::recorder();
    compile(
        &qdi_ripple_adder(4),
        &FlowOptions {
            tracer,
            ..FlowOptions::default()
        },
    )
    .expect("compiles");
    let json = recorder.to_chrome_json();
    let stats = msaf::trace::chrome::validate(&json).expect("well-formed");
    assert!(stats.spans >= 5, "expected at least the stage spans");
    for name in [
        "flow.techmap",
        "flow.pack",
        "flow.place",
        "flow.rrg",
        "flow.bind",
        "flow.route",
        "flow.bitgen",
    ] {
        assert!(stats.names.contains(name), "missing '{name}' in {stats}");
    }
}
