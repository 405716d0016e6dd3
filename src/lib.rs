//! # msaf
//!
//! Facade for the MSAF reproduction of *"FPGA architecture for
//! multi-style asynchronous logic"* (Huot, Dubreuil, Fesquet, Renaudin —
//! DATE 2005): one `use msaf::prelude::*;` away from building an
//! asynchronous circuit, compiling it onto the paper's fabric, and
//! verifying the programmed bitstream token-for-token.
//!
//! ## Quickstart
//!
//! ```
//! use msaf::prelude::*;
//! use std::collections::BTreeMap;
//!
//! // The paper's Figure 3b: a QDI dual-rail full adder.
//! let adder = qdi_full_adder();
//!
//! // Compile onto the paper's architecture (map → pack → place → route
//! // → bitstream) and check the filling ratio the paper reports.
//! let compiled = compile(&adder, &FlowOptions::default())?;
//! assert!(compiled.report.filling_ratio() > 0.5);
//!
//! // Verify the programmed fabric transfers the same tokens.
//! let mut inputs = BTreeMap::new();
//! inputs.insert("op".to_string(), (0..8).collect::<Vec<u64>>());
//! let verdict = verify_tokens(
//!     &adder,
//!     &compiled.mapped,
//!     &compiled.config,
//!     &inputs,
//!     &PerKindDelay::new(),
//!     &TokenRunOptions::default(),
//! )?;
//! assert!(verdict.matches);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use msaf_artifact as artifact;
pub use msaf_cad as cad;
pub use msaf_cells as cells;
pub use msaf_fabric as fabric;
pub use msaf_lang as lang;
pub use msaf_netlist as netlist;
pub use msaf_sim as sim;
pub use msaf_trace as trace;

/// Everything needed for the common build→compile→verify loop.
pub mod prelude {
    pub use msaf_artifact::{Artifact, ArtifactStore, MemStore};
    pub use msaf_cad::flow::{
        compile, compile_cached, CacheReport, CompiledDesign, FlowError, FlowOptions, StageOutcome,
    };
    pub use msaf_cad::report::FlowReport;
    pub use msaf_cad::techmap::map;
    pub use msaf_cad::verify::{verify_tokens, VerifyReport};
    pub use msaf_cells::adders::{bundled_ripple_adder, qdi_ripple_adder};
    pub use msaf_cells::bundled::bundled_fifo;
    pub use msaf_cells::fulladder::{
        full_adder_reference, micropipeline_full_adder, qdi_full_adder, SAFE_FA_MATCHED_DELAY,
    };
    pub use msaf_cells::wchb::wchb_fifo;
    pub use msaf_fabric::arch::ArchSpec;
    pub use msaf_fabric::bitstream::FabricConfig;
    pub use msaf_fabric::utilization::Utilization;
    pub use msaf_lang::{compile_msa, Style};
    pub use msaf_netlist::{Channel, ChannelDir, Encoding, GateKind, Netlist, Protocol};
    pub use msaf_sim::ditest::{attribute_glitches, di_stress, DiConfig};
    pub use msaf_sim::{
        default_stimulus, run_campaign, token_run, CampaignOptions, Fault, FaultOutcome,
        FaultReport, FixedDelay, PerKindDelay, RandomDelay, Simulator, StallDiagnosis,
        TokenRunError, TokenRunOptions, FAULT_KINDS,
    };
    pub use msaf_trace::{Recorder, Tracer};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_main_loop() {
        let nl = qdi_full_adder();
        let compiled = compile(&nl, &FlowOptions::default()).expect("compiles");
        assert!(compiled.report.plbs > 0);
    }
}
