//! Workload generation.
//!
//! Reproduces the Paxi benchmark workload: a fixed key space with a
//! configurable key distribution, read ratio, and value payload size.
//! The paper's default is 1000 uniformly-selected 8-byte keys with 8-byte
//! values and a 50/50 read/write mix; Fig. 12 uses write-only workloads
//! with payloads from 8 to 1280 bytes.

use crate::command::{Key, Operation, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// How keys are drawn from the key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over `[0, num_keys)` — the paper's setting.
    Uniform,
    /// Zipfian with the given exponent (skewed access; an extension for
    /// conflict-sensitivity studies).
    Zipfian(f64),
}

/// A workload specification.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of distinct keys (paper: 1000).
    pub num_keys: u64,
    /// Fraction of operations that are reads (paper default: 0.5).
    pub read_ratio: f64,
    /// Value payload size in bytes (paper default: 8).
    pub payload_size: usize,
    /// Key selection distribution.
    pub distribution: KeyDistribution,
}

impl Default for Workload {
    fn default() -> Self {
        Workload::paper_default()
    }
}

impl Workload {
    /// The paper's default workload: 1000 keys, uniform, 50/50 R/W,
    /// 8-byte values.
    pub fn paper_default() -> Self {
        Workload {
            num_keys: 1000,
            read_ratio: 0.5,
            payload_size: 8,
            distribution: KeyDistribution::Uniform,
        }
    }

    /// Write-only variant with a given payload size (Fig. 12).
    pub fn write_only(payload_size: usize) -> Self {
        Workload {
            read_ratio: 0.0,
            payload_size,
            ..Workload::paper_default()
        }
    }

    /// Zipfian hot-key skew with rank-frequency exponent `theta`
    /// (otherwise the paper defaults). `theta ≈ 0.99` is the classic
    /// YCSB skew; higher concentrates more mass on fewer keys, so more
    /// concurrent commands conflict on the same key (what EPaxos pays
    /// for, in the `conflict_sweep` figure).
    pub fn zipfian(theta: f64) -> Self {
        assert!(theta > 0.0, "zipf exponent must be positive");
        Workload {
            distribution: KeyDistribution::Zipfian(theta),
            ..Workload::paper_default()
        }
    }

    /// Builder-style payload-size override: the same workload shape but
    /// with `n`-byte values. The knob behind large-value runs — with the
    /// zero-copy decode pipeline, value size should move bytes-on-wire
    /// but not allocations-per-op on the receive path.
    pub fn value_size(self, n: usize) -> Self {
        Workload {
            payload_size: n,
            ..self
        }
    }

    /// Sample the next operation.
    pub fn next_op(&self, rng: &mut StdRng) -> Operation {
        let key = self.next_key(rng);
        if self.read_ratio > 0.0 && rng.gen::<f64>() < self.read_ratio {
            Operation::Get(key)
        } else {
            Operation::Put(key, Value::zeros(self.payload_size))
        }
    }

    /// Sample a key according to the distribution.
    pub fn next_key(&self, rng: &mut StdRng) -> Key {
        match self.distribution {
            KeyDistribution::Uniform => rng.gen_range(0..self.num_keys),
            KeyDistribution::Zipfian(theta) => zipf_sample(rng, self.num_keys, theta),
        }
    }
}

/// Simple inverse-CDF Zipf sampler (rank-frequency exponent `theta`).
///
/// Uses the rejection-inversion-free approximate method: draw `u`, walk
/// the harmonic CDF. For the modest key counts used in workloads (≤ 1e6)
/// a precomputed normalization would be faster, but sampling cost is not
/// on the simulated fast path (it's charged to no node), so clarity wins.
fn zipf_sample(rng: &mut StdRng, n: u64, theta: f64) -> u64 {
    debug_assert!(n > 0);
    // Approximate inversion per Gray et al. "Quickly generating
    // billion-record synthetic databases" (the YCSB approach).
    let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let u: f64 = rng.gen();
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta) / zetan;
        if sum >= u {
            return i - 1;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn keys_within_range() {
        let w = Workload::paper_default();
        let mut r = rng();
        for _ in 0..1000 {
            assert!(w.next_key(&mut r) < 1000);
        }
    }

    #[test]
    fn read_ratio_respected() {
        let w = Workload {
            read_ratio: 0.5,
            ..Workload::paper_default()
        };
        let mut r = rng();
        let reads = (0..10_000).filter(|_| w.next_op(&mut r).is_read()).count();
        assert!(
            (4000..6000).contains(&reads),
            "≈50% reads expected, got {reads}"
        );
    }

    #[test]
    fn write_only_never_reads() {
        let w = Workload::write_only(256);
        let mut r = rng();
        for _ in 0..100 {
            let op = w.next_op(&mut r);
            assert!(matches!(op, Operation::Put(_, v) if v.len() == 256));
        }
    }

    #[test]
    fn payload_size_honored() {
        let w = Workload {
            payload_size: 1280,
            read_ratio: 0.0,
            ..Workload::paper_default()
        };
        let mut r = rng();
        match w.next_op(&mut r) {
            Operation::Put(_, v) => assert_eq!(v.len(), 1280),
            other => panic!("expected put, got {other:?}"),
        }
    }

    #[test]
    fn value_size_overrides_only_the_payload() {
        let w = Workload::write_only(8).value_size(4096);
        assert_eq!(w.payload_size, 4096);
        assert_eq!(w.read_ratio, 0.0);
        assert_eq!(w.num_keys, 1000);
        let mut r = rng();
        match w.next_op(&mut r) {
            Operation::Put(_, v) => assert_eq!(v.len(), 4096),
            other => panic!("expected put, got {other:?}"),
        }
    }

    #[test]
    fn zipfian_skews_to_low_ranks() {
        let w = Workload {
            num_keys: 100,
            distribution: KeyDistribution::Zipfian(0.99),
            ..Workload::paper_default()
        };
        let mut r = rng();
        let samples: Vec<u64> = (0..5000).map(|_| w.next_key(&mut r)).collect();
        let low = samples.iter().filter(|&&k| k < 10).count();
        assert!(
            low > samples.len() / 3,
            "zipf(0.99) should put >1/3 of mass on top-10 keys, got {low}/5000"
        );
        assert!(samples.iter().all(|&k| k < 100));
    }

    #[test]
    fn zipfian_ctor_sets_distribution_and_keeps_defaults() {
        let w = Workload::zipfian(0.99);
        assert_eq!(w.distribution, KeyDistribution::Zipfian(0.99));
        assert_eq!(w.num_keys, 1000);
        assert_eq!(w.read_ratio, 0.5);
        assert_eq!(w.payload_size, 8);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zipfian_rejects_nonpositive_theta() {
        Workload::zipfian(0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = Workload::paper_default();
        let a: Vec<Key> = {
            let mut r = rng();
            (0..50).map(|_| w.next_key(&mut r)).collect()
        };
        let b: Vec<Key> = {
            let mut r = rng();
            (0..50).map(|_| w.next_key(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
