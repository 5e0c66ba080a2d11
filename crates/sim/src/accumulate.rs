//! Accumulators — the reduction side of the pipeline.
//!
//! Worker threads only evaluate: each chunk hands back its dies' metrics,
//! and the campaign records every die of its shard into one accumulator
//! **in plan order**, whatever the worker count. Shards of a campaign
//! evaluated apart (other processes or hosts) fold together with
//! [`Accumulator::merge`] **in shard order**; any statistic whose
//! accumulation appends (counts, weighted sample lists, per-failure-count
//! CDFs, …) therefore comes out bit-identical to the monolithic run.

/// One evaluated Monte-Carlo sample: a die shared by every scheme of the
/// catalogue, with one metric value per scheme (paired comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSample {
    /// Global sample index within the campaign.
    pub sample_index: u64,
    /// Number of faults injected into this die.
    pub n_faults: u64,
    /// Statistical weight of the sample (`Pr(N = n) / samples_per_count`).
    pub weight: f64,
    /// Metric value per scheme, in catalogue order.
    pub metrics: Vec<f64>,
}

/// A statistic that absorbs per-sample records in plan order and merges
/// with the accumulator of the next shard.
///
/// `merge` receives shards in **ascending shard order**, so implementations
/// that append preserve the global sample order.
pub trait Accumulator: Send {
    /// Folds one evaluated sample into the statistic.
    fn record(&mut self, sample: &PairedSample);

    /// Absorbs the accumulator of the next shard (in shard order).
    fn merge(&mut self, other: Self);
}

/// The identity accumulator: keeps every record, in order.
///
/// Useful for tests and for callers that want to post-process raw paired
/// records themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectRecords {
    /// All recorded samples in global sample order.
    pub records: Vec<PairedSample>,
}

impl CollectRecords {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Accumulator for CollectRecords {
    fn record(&mut self, sample: &PairedSample) {
        self.records.push(sample.clone());
    }

    fn merge(&mut self, other: Self) {
        self.records.extend(other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: u64) -> PairedSample {
        PairedSample {
            sample_index: index,
            n_faults: 1,
            weight: 0.5,
            metrics: vec![index as f64],
        }
    }

    #[test]
    fn collect_records_preserves_order_across_merges() {
        let mut left = CollectRecords::new();
        left.record(&sample(0));
        left.record(&sample(1));
        let mut right = CollectRecords::new();
        right.record(&sample(2));
        left.merge(right);
        let indices: Vec<u64> = left.records.iter().map(|r| r.sample_index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }
}
