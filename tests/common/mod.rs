//! Helpers shared by the integration suites.

use faultmit::core::MitigationScheme;
use faultmit::memsim::{FaultMap, PlannedSample};
use faultmit::sim::{Campaign, ShardSamples, ShardSpec};
use std::convert::Infallible;

/// Adapts a per-scheme metric to the campaign's per-die catalogue
/// evaluator: `metrics[s]` becomes `metric(&schemes[s], map)`.
pub fn per_scheme<'a, S: Sync>(
    schemes: &'a [S],
    metric: impl Fn(&S, &FaultMap) -> f64 + Sync + 'a,
) -> impl Fn(&FaultMap, &mut [f64]) + Sync + 'a {
    move |map, metrics| {
        for (slot, scheme) in metrics.iter_mut().zip(schemes) {
            *slot = metric(scheme, map);
        }
    }
}

/// Shard runs with their chunk buffers joined and, for several shards,
/// their dies and metrics concatenated in shard order: the view of a
/// campaign's samples that holds across worker counts, chunk sizes and
/// shard splits.
#[derive(Debug, PartialEq)]
pub struct Joined {
    /// The dies, in plan order.
    pub dies: Vec<PlannedSample>,
    /// The weight of a die with `n` faults, at index `n`.
    pub weights: Vec<f64>,
    /// The dies' metrics, die after die, one per scheme.
    pub metrics: Vec<f64>,
}

impl Joined {
    /// Joins shard runs given in shard order.
    pub fn of(runs: impl IntoIterator<Item = ShardSamples>) -> Self {
        let mut joined = Joined {
            dies: Vec::new(),
            weights: Vec::new(),
            metrics: Vec::new(),
        };
        for run in runs {
            joined.dies.extend(run.dies);
            joined.weights = run.weights;
            joined.metrics.extend(run.chunks.concat());
        }
        joined
    }
}

/// Runs campaigns with an infallible per-die evaluator.
pub trait Samples {
    /// The samples of one shard of the campaign.
    fn samples<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
    ) -> Joined;
}

impl Samples for Campaign {
    fn samples<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
    ) -> Joined {
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            evaluate(map, metrics);
            Ok::<(), Infallible>(())
        };
        Joined::of([self.run_shard(schemes, seed, shard, evaluate).unwrap().0])
    }
}
