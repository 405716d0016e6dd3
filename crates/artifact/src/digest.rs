//! The workspace's one FNV-1a implementation.
//!
//! Every stable digest in the repo — the route goldens, the
//! fault-campaign reports pinned in `BENCH_faults.json`, and the
//! content-addressed artifact cache keys — is 64-bit FNV-1a over a
//! deterministic byte stream. FNV is the right tool here because the
//! digests are *drift detectors*, not security boundaries: they must be
//! dependency-free, byte-stable across platforms and thread counts, and
//! cheap enough to run inside tests and the compile server's hot path.
//! Collision resistance against an adversary is a non-goal (the cache
//! only ever stores artifacts the server itself computed).
//!
//! The helpers here replace the four historical copies of the same
//! loop (`tests/route_goldens.rs`, `tests/colored_negotiation.rs`,
//! `tests/trace_determinism.rs`, `sim::faults`); the byte streams are
//! unchanged, so every pinned digest value survives the move.

use msaf_fabric::bitstream::RouteTree;
use serde::Serialize;
use std::io;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// ```
/// use msaf_artifact::digest::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_str("hello");
/// assert_eq!(h.finish(), msaf_artifact::digest::fnv1a(b"hello"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Feeds an integer as its 8 little-endian bytes (used to chain
    /// digests into cache keys without string formatting).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over the debug rendering of every route tree, in request
/// order — the historical routing-solution digest (node kinds, tree
/// shapes, and edge order all feed in). The stream concatenates the
/// per-tree renderings exactly as the original test-local helpers did,
/// so `tests/route_goldens.rs`'s pinned `GOLDEN_DIGEST` is unchanged.
#[must_use]
pub fn digest_trees(trees: &[RouteTree]) -> u64 {
    let mut h = Fnv64::new();
    for t in trees {
        h.write_str(&format!("{t:?}"));
    }
    h.finish()
}

/// FNV-1a over `value`'s pretty JSON, hashed as
/// `serde_json::to_writer_pretty` writes it: the digest of
/// `serde_json::to_string_pretty(value)` without building that string.
/// The compile server's `bitstream_digest` is this digest of the
/// bitstream.
#[must_use]
pub fn pretty_json_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    /// Feeds whatever is written into the hash.
    struct Hashing(Fnv64);

    impl io::Write for Hashing {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.write(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let mut h = Hashing(Fnv64::new());
    serde_json::to_writer_pretty(&mut h, value).expect("hashing JSON never fails");
    h.0.finish()
}

/// Renders a digest the way every report and golden prints one:
/// `{:#018x}` (0x + 16 hex digits).
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_fabric::rrg::RrNodeKind;

    #[test]
    fn known_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv64::new();
        h.write_str("foo");
        h.write_str("bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn tree_digest_matches_concatenated_debug() {
        let w = RrNodeKind::HWire { x: 1, y: 2, t: 0 };
        let tree = RouteTree {
            net: "n".into(),
            source: w,
            sinks: vec![],
            nodes: vec![w],
            edges: vec![],
        };
        let trees = vec![tree.clone(), tree.clone()];
        let manual = fnv1a(format!("{tree:?}{tree:?}").as_bytes());
        assert_eq!(digest_trees(&trees), manual);
        assert_ne!(digest_trees(&trees), digest_trees(&trees[..1]));
    }

    #[test]
    fn pretty_json_digest_hashes_the_pretty_text() {
        let w = RrNodeKind::HWire { x: 1, y: 2, t: 0 };
        let trees = vec![
            RouteTree {
                net: "n\"1".into(),
                source: w,
                sinks: vec![w],
                nodes: vec![w],
                edges: vec![(w, w)],
            };
            500
        ];
        let text = serde_json::to_string_pretty(&trees).expect("serializes");
        assert!(text.len() > 64 * 1024, "spans several writer chunks");
        assert_eq!(pretty_json_digest(&trees), fnv1a(text.as_bytes()));
        assert_eq!(pretty_json_digest(&7u8), fnv1a(b"7"));
    }

    #[test]
    fn hex_is_the_report_format() {
        assert_eq!(hex(0x1234), "0x0000000000001234");
    }
}
