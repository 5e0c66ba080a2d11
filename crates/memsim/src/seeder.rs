//! Deterministic stream-splitting of a campaign seed into per-sample RNGs.
//!
//! The parallel fault-injection pipeline evaluates thousands of Monte-Carlo
//! samples on worker threads. To make results bit-identical regardless of
//! how samples are distributed over threads, every sample owns an
//! independent RNG derived *only* from the campaign seed and the sample's
//! global index — never from execution order. [`StreamSeeder`] performs that
//! derivation with a SplitMix64 avalanche over `(campaign_seed, stream,
//! index)` so that neighbouring indices yield statistically independent
//! streams.
//!
//! # Generation contract
//!
//! The seeds this type derives are the RNG authority for the whole
//! pipeline: every generation path must reproduce, bit for bit, the stream
//! a scalar [`StdRng`] seeded from [`StreamSeeder::derive_seed`] produces.
//! That holds *structurally*: [`StreamSeeder::rng_for_sample`] simply
//! performs that seeding, and the block kernel generates each of its dies
//! through the same per-sample path. Changing this derivation (or the
//! xoshiro256++ engine behind [`StdRng`]) invalidates every published
//! figure byte, so both are frozen.

use rand::rngs::StdRng;
use rand::{splitmix64, SeedableRng};

/// Splits one campaign seed into independent, index-addressable RNG streams.
///
/// # Example
///
/// ```
/// use faultmit_memsim::StreamSeeder;
/// use rand::Rng;
///
/// let seeder = StreamSeeder::new(42);
/// // The same (stream, index) always yields the same generator…
/// let a: u64 = seeder.rng_for_sample(7).gen();
/// let b: u64 = seeder.rng_for_sample(7).gen();
/// assert_eq!(a, b);
/// // …and different indices yield different generators.
/// let c: u64 = seeder.rng_for_sample(8).gen();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeeder {
    campaign_seed: u64,
}

impl StreamSeeder {
    /// Creates a seeder for the given campaign seed.
    #[must_use]
    pub fn new(campaign_seed: u64) -> Self {
        Self { campaign_seed }
    }

    /// The campaign seed this seeder splits.
    #[must_use]
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// Derives the 64-bit seed of stream `stream` at index `index`.
    ///
    /// The derivation chains two SplitMix64 avalanche steps, so linearly
    /// related `(stream, index)` pairs land far apart in seed space.
    #[must_use]
    pub fn derive_seed(&self, stream: u64, index: u64) -> u64 {
        let mut state = self
            .campaign_seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mixed_stream = splitmix64(&mut state);
        let mut state = mixed_stream ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut state)
    }

    /// The RNG owned by Monte-Carlo sample `index` (stream 0).
    #[must_use]
    pub fn rng_for_sample(&self, index: u64) -> StdRng {
        self.rng_for(0, index)
    }

    /// The RNG of stream `stream` at index `index` — use distinct streams for
    /// distinct purposes (fault placement, data generation, …) so they can
    /// be extended independently without perturbing each other.
    #[must_use]
    pub fn rng_for(&self, stream: u64, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive_seed(stream, index))
    }
}

/// One planned Monte-Carlo sample: a globally unique index plus the failure
/// count its fault map must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSample {
    /// Global sample index within the campaign (drives RNG derivation).
    pub index: u64,
    /// Exact number of faults to inject for this sample.
    pub n_faults: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let seeder = StreamSeeder::new(0xF00D);
        assert_eq!(seeder.derive_seed(0, 0), seeder.derive_seed(0, 0));
        let mut seen = std::collections::HashSet::new();
        for stream in 0..4u64 {
            for index in 0..256u64 {
                assert!(
                    seen.insert(seeder.derive_seed(stream, index)),
                    "collision at ({stream}, {index})"
                );
            }
        }
    }

    #[test]
    fn different_campaign_seeds_diverge() {
        let a = StreamSeeder::new(1).rng_for_sample(0).gen::<u64>();
        let b = StreamSeeder::new(2).rng_for_sample(0).gen::<u64>();
        assert_ne!(a, b);
    }
}
