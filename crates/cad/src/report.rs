//! The flow report: one struct carrying every number the experiment
//! binaries print — mapping statistics, the paper's filling ratios,
//! placement/routing quality and timing.

use crate::timing::{TimingReport, TimingSummary};
use msaf_fabric::utilization::Utilization;
use msaf_trace::json::JsonWriter;
use std::fmt;

/// Summary of one complete compile.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Architecture name.
    pub arch: String,
    /// Source-netlist gate count.
    pub source_gates: usize,
    /// Mapped logic elements.
    pub les: usize,
    /// LEs carrying two or more functions (pairing success measure).
    pub les_paired: usize,
    /// LUT2 outputs in use.
    pub lut2_used: usize,
    /// PDE requests.
    pub pdes: usize,
    /// PLBs used after packing.
    pub plbs: usize,
    /// Grid dimensions chosen.
    pub grid: (usize, usize),
    /// Final placement cost (HPWL).
    pub place_cost: f64,
    /// Annealing moves proposed.
    pub place_moves_attempted: u64,
    /// Annealing moves accepted.
    pub place_moves_accepted: u64,
    /// Router iterations to congestion-free.
    pub route_iterations: usize,
    /// Nets ripped up and rerouted after the first iteration.
    pub route_ripups: u64,
    /// Heap pops across every search of the routing run.
    pub route_nodes_popped: u64,
    /// Conflict-graph color classes the colored negotiation ran across
    /// all congested iterations (0 when the run never congested or ran
    /// with `chunk = 1`).
    pub route_colors: u64,
    /// Largest single conflict-graph color class — the peak exposed
    /// negotiation parallelism.
    pub route_max_class: u64,
    /// Total routed wirelength.
    pub wirelength: usize,
    /// Wall time of technology mapping, in milliseconds.
    pub techmap_ms: f64,
    /// Wall time of packing, in milliseconds.
    pub pack_ms: f64,
    /// Wall time of placement, in milliseconds.
    pub place_ms: f64,
    /// Wall time of routing (including RRG build, binding and any
    /// channel-widening retries), in milliseconds.
    pub route_ms: f64,
    /// Fabric utilisation including the paper's filling ratios.
    pub utilization: Utilization,
    /// Static timing.
    pub timing: TimingReport,
    /// Routed timing: pre/post-route critical delay, worst connection
    /// slack and the per-net criticality histogram from the routing
    /// run's timing context.
    pub timing_summary: TimingSummary,
}

impl FlowReport {
    /// The headline filling ratio (input-pin occupancy — see
    /// `msaf_fabric::utilization` for the definition and alternatives).
    #[must_use]
    pub fn filling_ratio(&self) -> f64 {
        self.utilization.filling.input_pin
    }

    /// The flow's effort counters under their `metrics` names, in name
    /// order: the `metrics` object of [`Self::to_json`] and the
    /// `metrics` line of the `Display` table. Every entry is a field
    /// above, so the counters are identical with tracing on or off.
    fn metrics(&self) -> [(&'static str, u64); 14] {
        let t = &self.timing_summary;
        [
            ("flow.les", self.les as u64),
            ("flow.pdes", self.pdes as u64),
            ("flow.plbs", self.plbs as u64),
            ("flow.source_gates", self.source_gates as u64),
            ("place.moves_accepted", self.place_moves_accepted),
            ("place.moves_attempted", self.place_moves_attempted),
            ("route.conflict_colors", self.route_colors),
            ("route.iterations", self.route_iterations as u64),
            ("route.max_class", self.route_max_class),
            ("route.nodes_popped", self.route_nodes_popped),
            ("route.ripups", self.route_ripups),
            ("route.wirelength", self.wirelength as u64),
            ("timing.critical_delay", t.post_route_critical_delay),
            ("timing.worst_slack", t.worst_slack),
        ]
    }

    /// Renders the report as a single JSON object — the machine
    /// counterpart of the `Display` table. `msafc --json` and the
    /// compile server's response envelope both emit this document, so
    /// scripted consumers get one schema regardless of which front end
    /// produced the compile.
    #[must_use]
    pub fn to_json(&self) -> String {
        #[allow(clippy::cast_possible_truncation)]
        fn as_u64(v: usize) -> u64 {
            v as u64
        }
        let mut w = JsonWriter::object();
        w.field_str("design", &self.design);
        w.field_str("arch", &self.arch);
        w.field_u64("source_gates", as_u64(self.source_gates));
        w.field_u64("les", as_u64(self.les));
        w.field_u64("les_paired", as_u64(self.les_paired));
        w.field_u64("lut2_used", as_u64(self.lut2_used));
        w.field_u64("pdes", as_u64(self.pdes));
        w.field_u64("plbs", as_u64(self.plbs));
        w.begin_array("grid");
        w.item_u64(as_u64(self.grid.0));
        w.item_u64(as_u64(self.grid.1));
        w.end();
        w.field_f64("place_cost", self.place_cost);
        w.field_u64("route_iterations", as_u64(self.route_iterations));
        w.field_u64("route_ripups", self.route_ripups);
        w.field_u64("route_colors", self.route_colors);
        w.field_u64("route_max_class", self.route_max_class);
        w.field_f64("conflict_serial_frac", self.conflict_serial_frac());
        w.field_u64("wirelength", as_u64(self.wirelength));
        w.field_f64("techmap_ms", self.techmap_ms);
        w.field_f64("pack_ms", self.pack_ms);
        w.field_f64("place_ms", self.place_ms);
        w.field_f64("route_ms", self.route_ms);
        w.field_f64("filling_ratio", self.filling_ratio());
        w.begin_object("utilization");
        w.field_u64("plbs_total", as_u64(self.utilization.plbs_total));
        w.field_u64("plbs_used", as_u64(self.utilization.plbs_used));
        w.field_u64("les_total", as_u64(self.utilization.les_total));
        w.field_u64("les_used", as_u64(self.utilization.les_used));
        w.field_u64(
            "le_input_pins_used",
            as_u64(self.utilization.le_input_pins_used),
        );
        w.field_u64("le_outputs_used", as_u64(self.utilization.le_outputs_used));
        w.field_u64("lut2_used", as_u64(self.utilization.lut2_used));
        w.field_u64("pdes_used", as_u64(self.utilization.pdes_used));
        w.field_u64("wirelength", as_u64(self.utilization.wirelength));
        w.begin_object("filling");
        w.field_f64("input_pin", self.utilization.filling.input_pin);
        w.field_f64("output_tap", self.utilization.filling.output_tap);
        w.field_f64("plb_slot", self.utilization.filling.plb_slot);
        w.end();
        w.end();
        w.begin_object("timing");
        w.field_u64("levels", as_u64(self.timing.levels));
        w.field_u64("critical_delay", self.timing.critical_delay);
        match &self.timing.critical_signal {
            Some(s) => w.field_str("critical_signal", s),
            None => w.field_raw("critical_signal", "null"),
        }
        w.field_u64(
            "pre_route_critical_delay",
            self.timing_summary.pre_route_critical_delay,
        );
        w.field_u64(
            "post_route_critical_delay",
            self.timing_summary.post_route_critical_delay,
        );
        w.field_u64("worst_slack", self.timing_summary.worst_slack);
        w.begin_array("crit_histogram");
        for &bin in &self.timing_summary.crit_histogram {
            w.item_u64(as_u64(bin));
        }
        w.end();
        w.end();
        w.begin_object("metrics");
        for (name, value) in self.metrics() {
            w.field_u64(name, value);
        }
        w.end();
        w.finish()
    }

    /// Serialized-conflict fraction of the congested iterations:
    /// `route_colors / route_ripups`. 1.0 means every reroute was its
    /// own negotiation group (fully serial, the historical discipline);
    /// values near 0 mean the congested work was almost entirely
    /// parallelizable. 0.0 when nothing was rerouted.
    #[must_use]
    pub fn conflict_serial_frac(&self) -> f64 {
        if self.route_ripups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.route_colors as f64 / self.route_ripups as f64
            }
        }
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design           : {}", self.design)?;
        writeln!(f, "architecture     : {}", self.arch)?;
        writeln!(f, "source gates     : {}", self.source_gates)?;
        writeln!(
            f,
            "logic elements   : {} ({} paired, {} LUT2 used)",
            self.les, self.les_paired, self.lut2_used
        )?;
        writeln!(f, "PDEs             : {}", self.pdes)?;
        writeln!(
            f,
            "PLBs             : {} on a {}x{} grid",
            self.plbs, self.grid.0, self.grid.1
        )?;
        writeln!(f, "placement HPWL   : {:.1}", self.place_cost)?;
        writeln!(
            f,
            "routing          : {} iterations, wirelength {}",
            self.route_iterations, self.wirelength
        )?;
        writeln!(
            f,
            "negotiation      : {} ripups in {} conflict classes (largest {}, serial fraction {:.2})",
            self.route_ripups,
            self.route_colors,
            self.route_max_class,
            self.conflict_serial_frac()
        )?;
        writeln!(
            f,
            "stage times      : techmap {:.2} ms, pack {:.2} ms, place {:.2} ms, route {:.2} ms",
            self.techmap_ms, self.pack_ms, self.place_ms, self.route_ms
        )?;
        writeln!(
            f,
            "timing           : {} levels, critical delay {}",
            self.timing.levels, self.timing.critical_delay
        )?;
        writeln!(f, "routed timing    : {}", self.timing_summary)?;
        write!(f, "metrics          :")?;
        for (name, value) in self.metrics() {
            write!(f, " {name}={value}")?;
        }
        writeln!(f)?;
        writeln!(f, "{}", self.utilization)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_fabric::arch::ArchSpec;
    use msaf_fabric::bitstream::FabricConfig;

    #[test]
    fn display_contains_key_lines() {
        let cfg = FabricConfig::empty("d", ArchSpec::paper(2, 2));
        let report = FlowReport {
            design: "d".into(),
            arch: "msaf-2x2".into(),
            source_gates: 10,
            les: 4,
            les_paired: 2,
            lut2_used: 1,
            pdes: 0,
            plbs: 2,
            grid: (2, 2),
            place_cost: 12.5,
            place_moves_attempted: 100,
            place_moves_accepted: 40,
            route_iterations: 3,
            route_ripups: 6,
            route_nodes_popped: 500,
            route_colors: 3,
            route_max_class: 4,
            wirelength: 40,
            techmap_ms: 0.25,
            pack_ms: 0.5,
            place_ms: 1.5,
            route_ms: 2.5,
            utilization: Utilization::of(&cfg),
            timing: crate::timing::TimingReport {
                levels: 2,
                critical_delay: 9,
                critical_signal: None,
            },
            timing_summary: TimingSummary {
                pre_route_critical_delay: 9,
                post_route_critical_delay: 12,
                worst_slack: 3,
                crit_histogram: [0; 10],
            },
        };
        let text = report.to_string();
        for needle in [
            "design",
            "logic elements",
            "filling ratio",
            "routing",
            "negotiation",
            "stage times",
            "routed timing",
            "metrics",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
        assert_eq!(report.filling_ratio(), 0.0);
        assert!(
            text.contains("6 ripups in 3 conflict classes (largest 4, serial fraction 0.50)"),
            "negotiation line malformed:\n{text}"
        );
        assert_eq!(report.conflict_serial_frac(), 0.5);

        let json = report.to_json();
        let v = msaf_trace::json::parse(&json).expect("to_json parses");
        assert_eq!(v.get("design").unwrap().as_str(), Some("d"));
        assert_eq!(v.get("route_ripups").unwrap().as_num(), Some(6.0));
        assert_eq!(v.get("techmap_ms").unwrap().as_num(), Some(0.25));
        assert_eq!(
            v.get("grid").unwrap().as_arr().map(<[_]>::len),
            Some(2),
            "grid is a 2-array"
        );
        assert_eq!(
            v.get("timing")
                .unwrap()
                .get("post_route_critical_delay")
                .unwrap()
                .as_num(),
            Some(12.0)
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("route.ripups")
                .unwrap()
                .as_num(),
            Some(6.0)
        );
    }

    #[test]
    fn flow_report_output_is_pinned() {
        // Every byte of both renderings, including the `metrics` object
        // and line that are built from the typed effort fields.
        let mut report = crate::flow::compile(
            &msaf_cells::fulladder::qdi_full_adder(),
            &crate::flow::FlowOptions::default(),
        )
        .unwrap()
        .report;
        report.techmap_ms = 0.0;
        report.pack_ms = 0.0;
        report.place_ms = 0.0;
        report.route_ms = 0.0;
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"design":"qdi_full_adder","arch":"msaf-1x1-3x3","source_gates":12,"les":6,"les_paired":6,"lut2_used":0,"pdes":0,"plbs":3,"grid":[3,3],"#,
                r#""place_cost":46,"route_iterations":1,"route_ripups":0,"route_colors":0,"route_max_class":0,"conflict_serial_frac":0,"wirelength":43,"#,
                r#""techmap_ms":0,"pack_ms":0,"place_ms":0,"route_ms":0,"filling_ratio":0.8095238095238095,"#,
                r#""utilization":{"plbs_total":9,"plbs_used":3,"les_total":18,"les_used":6,"le_input_pins_used":34,"le_outputs_used":12,"lut2_used":0,"pdes_used":0,"wirelength":43,"filling":{"input_pin":0.8095238095238095,"output_tap":0.5,"plb_slot":0.4444444444444444}},"#,
                r#""timing":{"levels":1,"critical_delay":5,"critical_signal":"fa_sum_t_y","pre_route_critical_delay":5,"post_route_critical_delay":6,"worst_slack":0,"crit_histogram":[6,0,0,0,0,0,0,0,0,12]},"#,
                r#""metrics":{"flow.les":6,"flow.pdes":0,"flow.plbs":3,"flow.source_gates":12,"#,
                r#""place.moves_accepted":290,"place.moves_attempted":1519,"route.conflict_colors":0,"route.iterations":1,"route.max_class":0,"#,
                r#""route.nodes_popped":2298,"route.ripups":0,"route.wirelength":43,"timing.critical_delay":6,"timing.worst_slack":0}}"#,
            )
        );
        assert_eq!(
            report.to_string(),
            r"design           : qdi_full_adder
architecture     : msaf-1x1-3x3
source gates     : 12
logic elements   : 6 (6 paired, 0 LUT2 used)
PDEs             : 0
PLBs             : 3 on a 3x3 grid
placement HPWL   : 46.0
routing          : 1 iterations, wirelength 43
negotiation      : 0 ripups in 0 conflict classes (largest 0, serial fraction 0.00)
stage times      : techmap 0.00 ms, pack 0.00 ms, place 0.00 ms, route 0.00 ms
timing           : 1 levels, critical delay 5
routed timing    : critical delay 5 pre-route / 6 routed, worst slack 0, 12 nets at crit >= 0.9
metrics          : flow.les=6 flow.pdes=0 flow.plbs=3 flow.source_gates=12 place.moves_accepted=290 place.moves_attempted=1519 route.conflict_colors=0 route.iterations=1 route.max_class=0 route.nodes_popped=2298 route.ripups=0 route.wirelength=43 timing.critical_delay=6 timing.worst_slack=0
PLBs 3/9  LEs 6/18  LUT2s 0  PDEs 0  wirelength 43
filling ratio: input-pin 81.0% | output-tap 50.0% | plb-slot 44.4%
"
        );
    }
}
