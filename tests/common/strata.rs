//! Bit-exact comparison of the per-failure-count strata behind MSE results,
//! for the suites that compare whole campaigns.

use faultmit::analysis::SchemeMseResult;

/// One stratum: its failure count, then the bits of its values, of its
/// `(weight, count)` runs and of its total weight.
type StratumBits = (u64, Vec<u64>, Vec<(u64, usize)>, u64);

fn strata_bits(result: &SchemeMseResult) -> Vec<StratumBits> {
    result
        .yield_model
        .per_count_cdfs()
        .iter()
        .map(|(&n, cdf)| {
            (
                n,
                cdf.values().iter().map(|value| value.to_bits()).collect(),
                cdf.weight_runs()
                    .iter()
                    .map(|&(weight, count)| (weight.to_bits(), count))
                    .collect(),
                cdf.total_weight().to_bits(),
            )
        })
        .collect()
}

/// Asserts that two results of one scheme hold the same strata
/// (`yield_model.per_count_cdfs()`) bit for bit: failure counts, values,
/// weight runs and order-sensitive total weights.
pub fn assert_same_strata(a: &SchemeMseResult, b: &SchemeMseResult, what: &str) {
    assert_eq!(a.scheme_name, b.scheme_name, "{what}");
    assert_eq!(strata_bits(a), strata_bits(b), "{what}: {}", a.scheme_name);
}
