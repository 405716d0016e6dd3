//! # msaf-artifact
//!
//! Serializable, stably-digested intermediate compile artifacts — the
//! prerequisite layer for the `msaf-serve` compile server and for any
//! future distributed flow.
//!
//! Every stage of the CAD flow (`pack → place → route → bitgen`)
//! produces a deterministic result; this crate gives each stage a
//! **checkpoint format**: a plain-data struct that serializes to JSON
//! through the workspace serde shim, restores byte-identically, and
//! carries a stable FNV-1a [`digest`] of its canonical serialized form.
//! The flow can then be content-address-cached per stage: the cache key
//! is the stage name plus a hash chain over *inputs* (source digest ×
//! style × `ArchSpec` × options × upstream artifact digests), the cache
//! value is the artifact JSON, and a repeat compile is a chain of
//! restores instead of recomputation.
//!
//! The artifact structs deliberately mirror the CAD result structs with
//! plain data types (`Vec`, tuples, `Option`) instead of referencing
//! them directly: `msaf-cad` depends on this crate (not the other way
//! around), and the mirrors keep the serialized format independent of
//! internal representation choices like `HashMap` pad indices. The
//! conversions live in `msaf_cad::checkpoint`.
//!
//! The [`digest`] module is also the workspace's single FNV-1a
//! implementation — the golden tests and fault-campaign reports that
//! each used to carry a private copy of the loop now share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod store;

pub use store::{ArtifactStore, MemStore, StoreStats, MEM_STORE_BUDGET_BYTES};

use msaf_fabric::bitstream::{FabricConfig, RouteTree};
use serde::{Deserialize, Serialize};

/// Version stamp embedded in cache keys: bump when any artifact's
/// serialized shape changes so stale entries can never be restored into
/// a newer flow.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// The four checkpointable flow stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Technology mapping + packing (the packed netlist).
    Pack,
    /// Placement.
    Place,
    /// Routing (the routed trees + routed timing).
    Route,
    /// Bit generation (the final bitstream).
    Bitgen,
}

impl Stage {
    /// All stages, pipeline-ordered.
    pub const ALL: [Stage; 4] = [Stage::Pack, Stage::Place, Stage::Route, Stage::Bitgen];

    /// The stage's stable name (used in cache keys, reports and the
    /// compile server's response envelope).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pack => "pack",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Bitgen => "bitgen",
        }
    }

    /// The content-addressed store key for this stage given the digest
    /// of everything that determines its result.
    #[must_use]
    pub fn key(self, input_digest: u64) -> String {
        format!(
            "v{}:{}:{:016x}",
            ARTIFACT_FORMAT_VERSION,
            self.name(),
            input_digest
        )
    }
}

/// One packed PLB: LE indices plus the hosted PDE request, mirroring
/// `msaf_cad::pack::PackedPlb`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedPlbArtifact {
    /// Indices into the mapped design's LE list.
    pub les: Vec<usize>,
    /// Index into the mapped design's PDE list, if one is hosted here.
    pub pde: Option<usize>,
}

/// The packed-netlist checkpoint (stage 1). Restoring it skips the
/// greedy packer; technology mapping itself is recomputed (it is cheap,
/// deterministic, and its output is what every later stage indexes
/// into).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackArtifact {
    /// The packed PLBs, in creation order.
    pub plbs: Vec<PackedPlbArtifact>,
}

/// The placement checkpoint (stage 2). Pad bindings are stored as
/// `(signal index, pad index)` pairs sorted by signal index, so the
/// serialized form is canonical even though the live struct keeps them
/// in a `HashMap`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceArtifact {
    /// Grid coordinates per packed PLB.
    pub plb_pos: Vec<(usize, usize)>,
    /// `(signal index, pad index)` pairs, sorted by signal index.
    pub pads: Vec<(usize, usize)>,
    /// Final HPWL cost (integer-valued by construction).
    pub cost: f64,
    /// Annealing moves proposed.
    pub moves_attempted: u64,
    /// Annealing moves accepted.
    pub moves_accepted: u64,
}

/// Routed timing numbers that ride with the route checkpoint so a cache
/// hit can rebuild the full `FlowReport` without re-running the slack
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingArtifact {
    /// Combinational depth in LE levels.
    pub levels: usize,
    /// Pre-route (combinational) critical delay.
    pub pre_route_critical_delay: u64,
    /// Signal ending the pre-route critical path.
    pub critical_signal: Option<String>,
    /// Critical delay including routed interconnect.
    pub post_route_critical_delay: u64,
    /// Worst connection slack after the final update.
    pub worst_slack: u64,
    /// Per-net criticality histogram (ten buckets of width 0.1).
    pub crit_histogram: [usize; 10],
}

/// The routing checkpoint (stage 3): the routed trees plus everything
/// the widening loop decided and the search counters the report needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteArtifact {
    /// The channel width routing converged at (the widening loop's
    /// outcome — restoring skips the retries too).
    pub channel_width: usize,
    /// PathFinder iterations used.
    pub iterations: usize,
    /// Heap pops across all searches.
    pub nodes_popped: u64,
    /// Nets ripped up after the first iteration.
    pub ripups: u64,
    /// Conflict-graph color classes across congested iterations.
    pub conflict_colors: u64,
    /// Largest color class.
    pub max_class: u64,
    /// One routed tree per route request, in request order.
    pub trees: Vec<RouteTree>,
    /// Routed timing summary.
    pub timing: TimingArtifact,
}

/// The bitstream checkpoint (stage 4): the final programmed fabric.
/// Its digest is the compile server's "byte-identical bitstream" fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitstreamArtifact {
    /// The complete fabric configuration (PLBs, routes, pads, arch).
    pub config: FabricConfig,
}

/// Serialization + stable digesting, implemented identically by every
/// artifact: the digest is FNV-1a over the compact canonical JSON, so
/// two artifacts are equal iff their digests are (modulo FNV collisions,
/// which drift detection tolerates).
pub trait Artifact: Sized {
    /// The stage this artifact checkpoints.
    const STAGE: Stage;

    /// Compact canonical JSON.
    fn to_json(&self) -> String;

    /// Restores from [`Artifact::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the shim's deserialization error for malformed or
    /// shape-mismatched input (the flow treats this as a cache miss).
    fn from_json(json: &str) -> Result<Self, serde_json::Error>;

    /// FNV-1a over the canonical JSON.
    fn digest(&self) -> u64 {
        digest::fnv1a(self.to_json().as_bytes())
    }
}

macro_rules! artifact_impl {
    ($ty:ty, $stage:expr) => {
        impl Artifact for $ty {
            const STAGE: Stage = $stage;

            fn to_json(&self) -> String {
                serde_json::to_string(self).expect("artifact serialization is infallible")
            }

            fn from_json(json: &str) -> Result<Self, serde_json::Error> {
                serde_json::from_str(json)
            }
        }
    };
}

artifact_impl!(PackArtifact, Stage::Pack);
artifact_impl!(PlaceArtifact, Stage::Place);
artifact_impl!(RouteArtifact, Stage::Route);
artifact_impl!(BitstreamArtifact, Stage::Bitgen);

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_fabric::rrg::RrNodeKind;

    fn sample_route() -> RouteArtifact {
        let w = RrNodeKind::HWire { x: 0, y: 1, t: 2 };
        RouteArtifact {
            channel_width: 12,
            iterations: 3,
            nodes_popped: 100,
            ripups: 4,
            conflict_colors: 2,
            max_class: 2,
            trees: vec![RouteTree {
                net: "n".into(),
                source: w,
                sinks: vec![],
                nodes: vec![w],
                edges: vec![],
            }],
            timing: TimingArtifact {
                levels: 2,
                pre_route_critical_delay: 5,
                critical_signal: Some("s3".into()),
                post_route_critical_delay: 8,
                worst_slack: 1,
                crit_histogram: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
        }
    }

    #[test]
    fn stage_keys_are_versioned_and_distinct() {
        let k = Stage::Pack.key(0xabcd);
        assert_eq!(
            k,
            format!("v{ARTIFACT_FORMAT_VERSION}:pack:000000000000abcd")
        );
        let keys: std::collections::BTreeSet<String> =
            Stage::ALL.iter().map(|s| s.key(7)).collect();
        assert_eq!(keys.len(), 4, "stage names must not collide");
    }

    #[test]
    fn route_artifact_round_trips_with_stable_digest() {
        let art = sample_route();
        let json = art.to_json();
        let back = RouteArtifact::from_json(&json).expect("round-trips");
        assert_eq!(art, back);
        assert_eq!(art.digest(), back.digest());
        // Any field change moves the digest.
        let mut other = art.clone();
        other.iterations += 1;
        assert_ne!(art.digest(), other.digest());
    }

    #[test]
    fn pack_and_place_round_trip() {
        let pack = PackArtifact {
            plbs: vec![
                PackedPlbArtifact {
                    les: vec![0, 1],
                    pde: None,
                },
                PackedPlbArtifact {
                    les: vec![],
                    pde: Some(0),
                },
            ],
        };
        assert_eq!(PackArtifact::from_json(&pack.to_json()).unwrap(), pack);

        let place = PlaceArtifact {
            plb_pos: vec![(0, 0), (1, 3)],
            pads: vec![(2, 0), (5, 1)],
            cost: 17.0,
            moves_attempted: 1000,
            moves_accepted: 440,
        };
        assert_eq!(PlaceArtifact::from_json(&place.to_json()).unwrap(), place);
        assert_ne!(pack.digest(), place.digest());
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(RouteArtifact::from_json("{\"nope\": true}").is_err());
        assert!(PackArtifact::from_json("not json").is_err());
    }
}
