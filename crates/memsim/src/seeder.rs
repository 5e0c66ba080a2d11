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

use crate::backend::FaultBackend;
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::FaultMap;
use crate::montecarlo::FaultMapSampler;
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

/// A batch of sampled dies, generated independently of any other batch.
///
/// Batches are the unit of work of the parallel pipeline: each worker thread
/// generates whole batches from a [`StreamSeeder`] and a slice of
/// [`PlannedSample`]s, so fault maps never depend on which thread produced
/// them.
#[derive(Debug, Clone)]
pub struct DieBatch {
    samples: Vec<(PlannedSample, FaultMap)>,
}

impl DieBatch {
    /// Generates the batch for `plan` using per-sample RNG streams from
    /// `seeder`.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors (e.g. a failure count exceeding the cell
    /// count).
    pub fn generate(
        sampler: &FaultMapSampler,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Result<Self, MemError> {
        Self::generate_with(
            |rng, n_faults| sampler.sample_with_count(rng, n_faults),
            seeder,
            plan,
        )
    }

    /// Generates the batch by drawing every fault map from a
    /// [`FaultBackend`]'s spatial law — the backend-generic pipeline entry
    /// point. With [`crate::backend::SramVddBackend`] this is bit-identical
    /// to [`DieBatch::generate`].
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub fn generate_with_backend<B: FaultBackend + ?Sized>(
        backend: &B,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Result<Self, MemError> {
        Self::generate_with(
            |rng, n_faults| backend.sample_with_count(rng, n_faults),
            seeder,
            plan,
        )
    }

    /// Generates the batch from an arbitrary sampling function of the
    /// per-sample RNG and the planned fault count.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub fn generate_with<F>(
        mut sample: F,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Result<Self, MemError>
    where
        F: FnMut(&mut StdRng, usize) -> Result<FaultMap, MemError>,
    {
        let mut samples = Vec::with_capacity(plan.len());
        for &planned in plan {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = sample(&mut rng, planned.n_faults as usize)?;
            samples.push((planned, map));
        }
        Ok(Self { samples })
    }

    /// Generates the batch while rejecting (and redrawing, bounded) fault
    /// maps that place more than one fault in a single row — the Fig. 7
    /// protocol under which SECDED is error-free.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub fn generate_single_fault_per_row(
        sampler: &FaultMapSampler,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
        max_redraws: usize,
    ) -> Result<Self, MemError> {
        Self::generate_with(
            |rng, n_faults| {
                redraw_until_single_fault_rows(
                    |rng| sampler.sample_with_count(rng, n_faults),
                    rng,
                    max_redraws,
                )
            },
            seeder,
            plan,
        )
    }

    /// Backend-generic variant of
    /// [`DieBatch::generate_single_fault_per_row`]: redraws (bounded) maps
    /// that place more than one fault in a single row, using the backend's
    /// spatial law for every draw.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub fn generate_single_fault_per_row_with_backend<B: FaultBackend + ?Sized>(
        backend: &B,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
        max_redraws: usize,
    ) -> Result<Self, MemError> {
        Self::generate_with(
            |rng, n_faults| {
                redraw_until_single_fault_rows(
                    |rng| backend.sample_with_count(rng, n_faults),
                    rng,
                    max_redraws,
                )
            },
            seeder,
            plan,
        )
    }

    /// Number of dies in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the batch holds no dies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(planned sample, fault map)` pairs in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (&PlannedSample, &FaultMap)> {
        self.samples.iter().map(|(p, m)| (p, m))
    }

    /// Geometry shared by all dies in a non-empty batch.
    #[must_use]
    pub fn config(&self) -> Option<MemoryConfig> {
        self.samples.first().map(|(_, m)| m.config())
    }
}

/// Draws a map and redraws it (up to `max_redraws` times) while any row
/// holds more than one fault — the Fig. 7 filtering protocol, identical in
/// RNG consumption to the historical inline loop.
///
/// Best-effort: when the budget runs out the last draw is kept, multi-fault
/// rows and all. Spatial laws that cluster faults (DRAM retention) exhaust
/// the budget routinely at higher fault counts; callers comparing against
/// an "ECC is error-free" reference must not rely on the filter there.
fn redraw_until_single_fault_rows<F>(
    mut draw: F,
    rng: &mut StdRng,
    max_redraws: usize,
) -> Result<FaultMap, MemError>
where
    F: FnMut(&mut StdRng) -> Result<FaultMap, MemError>,
{
    let mut map = draw(rng)?;
    for _ in 0..max_redraws {
        if map.max_faults_per_row() <= 1 {
            break;
        }
        map = draw(rng)?;
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn sampler() -> FaultMapSampler {
        FaultMapSampler::new(MemoryConfig::new(64, 32).unwrap())
    }

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

    #[test]
    fn batch_generation_is_order_independent() {
        let seeder = StreamSeeder::new(99);
        let plan: Vec<PlannedSample> = (0..10)
            .map(|i| PlannedSample {
                index: i,
                n_faults: 3,
            })
            .collect();
        // One big batch vs. two half batches: identical maps per index.
        let whole = DieBatch::generate(&sampler(), &seeder, &plan).unwrap();
        let front = DieBatch::generate(&sampler(), &seeder, &plan[..5]).unwrap();
        let back = DieBatch::generate(&sampler(), &seeder, &plan[5..]).unwrap();
        let split: Vec<_> = front.iter().chain(back.iter()).collect();
        for ((pw, mw), (ps, ms)) in whole.iter().zip(split) {
            assert_eq!(pw.index, ps.index);
            let a: Vec<_> = mw.iter().collect();
            let b: Vec<_> = ms.iter().collect();
            assert_eq!(a, b, "sample {} differs", pw.index);
        }
    }

    #[test]
    fn batch_respects_fault_counts() {
        let seeder = StreamSeeder::new(5);
        let plan: Vec<PlannedSample> = (0..8)
            .map(|i| PlannedSample {
                index: i,
                n_faults: i,
            })
            .collect();
        let batch = DieBatch::generate(&sampler(), &seeder, &plan).unwrap();
        assert_eq!(batch.len(), 8);
        for (planned, map) in batch.iter() {
            assert_eq!(map.fault_count() as u64, planned.n_faults);
        }
        assert_eq!(batch.config(), Some(MemoryConfig::new(64, 32).unwrap()));
    }

    #[test]
    fn single_fault_per_row_policy_filters_collisions() {
        // A tiny 4-row array with many faults collides constantly; the
        // bounded redraw must still terminate and, when possible, produce
        // collision-free maps.
        let sampler = FaultMapSampler::new(MemoryConfig::new(32, 32).unwrap());
        let seeder = StreamSeeder::new(17);
        let plan: Vec<PlannedSample> = (0..20)
            .map(|i| PlannedSample {
                index: i,
                n_faults: 4,
            })
            .collect();
        let batch =
            DieBatch::generate_single_fault_per_row(&sampler, &seeder, &plan, 1000).unwrap();
        for (planned, map) in batch.iter() {
            assert_eq!(map.fault_count(), 4);
            assert!(
                map.max_faults_per_row() <= 1,
                "sample {} kept a multi-fault row",
                planned.index
            );
        }
    }

    #[test]
    fn empty_batch_is_well_behaved() {
        let seeder = StreamSeeder::new(0);
        let batch = DieBatch::generate(&sampler(), &seeder, &[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.config(), None);
    }
}
