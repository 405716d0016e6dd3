//! Seeded input generators. The workload seed is the only source of
//! variation: it fixes the token stimulus, the placement seed and the
//! compile-server request sequence, and the program under test only
//! ever sees what these functions produce.

use std::collections::BTreeMap;

/// Token stimulus: input channel name → token values.
pub type Stimulus = BTreeMap<String, Vec<u64>>;

/// Tokens per input channel in every generated stimulus.
pub const TOKENS: usize = 8;

/// SplitMix64: tiny, seedable, and independent of the repository's
/// `rand` stand-in, so generated inputs never shift with it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed, so that
    /// stimulus, placement seeds and requests never share draws.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x6a09_e667_f3bc_c909;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(state)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value of `bits` bits that is an edge case (all zeros or all
    /// ones) one time in four, so carries and saturation are exercised.
    pub fn operand(&mut self, bits: u32) -> u64 {
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        match self.below(8) {
            0 => 0,
            1 => mask,
            _ => self.next_u64() & mask,
        }
    }

    /// Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Placement seed of one run: every operation of the run uses it, so
/// wirelength and critical delay are deterministic for a workload seed.
/// Kept below 2^40 so it also travels as an exact JSON number.
#[must_use]
pub fn placement_seed(seed: u64) -> u64 {
    Rng::new(seed, "place").next_u64() >> 24
}

/// `y = Σ_k (c_k ? x_k : 0) mod 2^8` over four packed 8-bit samples: an
/// independent model of `fir4.msa`.
#[must_use]
pub fn fir4_reference(x: u64, c: u64) -> u64 {
    (0..4)
        .filter(|k| (c >> k) & 1 == 1)
        .fold(0u64, |acc, k| acc.wrapping_add((x >> (8 * k)) & 0xFF))
        & 0xFF
}

/// Stimulus and expected `y` tokens for `fir4.msa`.
#[must_use]
pub fn fir4_stimulus(seed: u64) -> (Stimulus, Vec<u64>) {
    let mut rng = Rng::new(seed, "fir4");
    let x: Vec<u64> = (0..TOKENS).map(|_| rng.operand(32)).collect();
    let c: Vec<u64> = (0..TOKENS).map(|_| rng.operand(4)).collect();
    let want = x
        .iter()
        .zip(&c)
        .map(|(&x, &c)| fir4_reference(x, c))
        .collect();
    let mut inputs = Stimulus::new();
    inputs.insert("x".into(), x);
    inputs.insert("c".into(), c);
    (inputs, want)
}

/// Stimulus and expected `s` tokens for `adder64.msa`: a wrapping
/// 64-bit `a + b + cin` (the source drops the final carry).
#[must_use]
pub fn adder64_stimulus(seed: u64) -> (Stimulus, Vec<u64>) {
    let mut rng = Rng::new(seed, "adder64");
    let a: Vec<u64> = (0..TOKENS).map(|_| rng.operand(64)).collect();
    let b: Vec<u64> = (0..TOKENS).map(|_| rng.operand(64)).collect();
    let cin: Vec<u64> = (0..TOKENS).map(|_| rng.below(2)).collect();
    let want = a
        .iter()
        .zip(&b)
        .zip(&cin)
        .map(|((&a, &b), &c)| a.wrapping_add(b).wrapping_add(c))
        .collect();
    let mut inputs = Stimulus::new();
    inputs.insert("a".into(), a);
    inputs.insert("b".into(), b);
    inputs.insert("cin".into(), cin);
    (inputs, want)
}

/// What the compile server should do with a request, stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A warmed key with its set-up seed: every stage is restored.
    Hit,
    /// A warmed key with a fresh placement seed: pack is restored;
    /// place, route and bitgen are computed and stored.
    Miss,
}

/// One generated compile-server request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the workload's key list.
    pub key: usize,
    /// Predicted cache behaviour.
    pub kind: Kind,
    /// Placement seed sent in the envelope.
    pub seed: u64,
    /// Which shuffled round of its kind the request belongs to: every
    /// key appears exactly once among the hits (or the misses) of one
    /// round.
    pub round: usize,
}

/// Every fifth request is a miss.
pub const MISS_EVERY: usize = 5;

/// Placement seed every key is compiled with during set-up.
#[must_use]
pub fn warm_seed(seed: u64) -> u64 {
    Rng::new(seed, "warm").next_u64() >> 24
}

/// The request sequence: hits cycle through shuffled rounds of all
/// keys, and every [`MISS_EVERY`]-th request is a miss on the next key
/// of an independently shuffled round, so a prefix ending with a round
/// of hits has the same mix of hit keys whatever the seed. Miss seeds count up
/// from the warm seed, so each is fresh and unique: with repeats drawn
/// only from warmed keys, the per-stage outcome of every request is
/// known exactly, in any order and with any number of clients.
#[must_use]
pub fn request_sequence(seed: u64, keys: usize, len: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, "requests");
    let warm = warm_seed(seed);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let (mut n_hits, mut n_misses) = (0, 0);
    (0..len)
        .map(|i| {
            if i % MISS_EVERY == MISS_EVERY - 1 {
                if misses.is_empty() {
                    misses = rng.permutation(keys);
                }
                n_misses += 1;
                Request {
                    key: misses.pop().expect("refilled above"),
                    kind: Kind::Miss,
                    seed: warm + n_misses as u64,
                    round: (n_misses - 1) / keys,
                }
            } else {
                if hits.is_empty() {
                    hits = rng.permutation(keys);
                }
                n_hits += 1;
                Request {
                    key: hits.pop().expect("refilled above"),
                    kind: Kind::Hit,
                    seed: warm,
                    round: (n_hits - 1) / keys,
                }
            }
        })
        .collect()
}

/// Stimulus for a fault campaign over `netlist`: [`TOKENS`] / 2 tokens
/// per input channel, each within the channel's payload range.
#[must_use]
pub fn campaign_stimulus(seed: u64, netlist: &msaf_netlist::Netlist) -> Stimulus {
    let mut rng = Rng::new(seed, "campaign");
    let mut inputs = Stimulus::new();
    for (name, bits) in input_widths(netlist) {
        let vals = (0..TOKENS / 2).map(|_| rng.operand(bits)).collect();
        inputs.insert(name, vals);
    }
    inputs
}

/// `(channel, payload bits)` of every input channel.
fn input_widths(netlist: &msaf_netlist::Netlist) -> Vec<(String, u32)> {
    use msaf_netlist::{ChannelDir, Encoding};
    netlist
        .channels()
        .iter()
        .filter(|ch| ch.dir() == ChannelDir::Input)
        .map(|ch| {
            let bits = match ch.encoding() {
                Encoding::DualRail { width } | Encoding::Bundled { width } => width as u32,
                Encoding::OneOfN { n, digits } => (n.trailing_zeros() as usize * digits) as u32,
            };
            (ch.name().to_string(), bits.clamp(1, 64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(fir4_stimulus(seed), fir4_stimulus(seed));
            assert_eq!(adder64_stimulus(seed), adder64_stimulus(seed));
            assert_eq!(placement_seed(seed), placement_seed(seed));
            assert_eq!(
                request_sequence(seed, 18, 200),
                request_sequence(seed, 18, 200)
            );
        }
    }

    #[test]
    fn different_seeds_different_inputs() {
        assert_ne!(fir4_stimulus(1), fir4_stimulus(2));
        assert_ne!(adder64_stimulus(1), adder64_stimulus(2));
        assert_ne!(placement_seed(1), placement_seed(2));
        assert_ne!(warm_seed(1), warm_seed(2));
        assert_ne!(request_sequence(1, 18, 200), request_sequence(2, 18, 200));
    }

    #[test]
    fn references_match_hand_computed_values() {
        assert_eq!(fir4_reference(0x0102_0304, 0b1111), 10);
        assert_eq!(fir4_reference(0xFFFF_FFFF, 0b1010), 0xFE);
        let (inputs, want) = adder64_stimulus(3);
        assert_eq!(
            want[0],
            inputs["a"][0]
                .wrapping_add(inputs["b"][0])
                .wrapping_add(inputs["cin"][0])
        );
    }

    #[test]
    fn requests_mix_and_predict_exactly() {
        let seq = request_sequence(5, 18, 1000);
        let misses: Vec<_> = seq.iter().filter(|r| r.kind == Kind::Miss).collect();
        assert_eq!(misses.len(), 1000 / MISS_EVERY);
        // Hits repeat the warm seed; miss seeds are unique and fresh.
        let warm = warm_seed(5);
        assert!(seq
            .iter()
            .filter(|r| r.kind == Kind::Hit)
            .all(|r| r.seed == warm));
        let mut seeds: Vec<u64> = misses.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), misses.len());
        assert!(!seeds.contains(&warm));
        // Every round of either kind covers every key exactly once.
        for kind in [Kind::Hit, Kind::Miss] {
            for round in 0..3 {
                let mut keys: Vec<usize> = seq
                    .iter()
                    .filter(|r| r.kind == kind && r.round == round)
                    .map(|r| r.key)
                    .collect();
                keys.sort_unstable();
                assert_eq!(keys, (0..18).collect::<Vec<_>>());
            }
        }
    }
}
