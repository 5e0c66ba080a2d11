//! Helpers shared by the integration suites.

use faultmit::core::MitigationScheme;
use faultmit::memsim::{FaultBackend, FaultMap};
use faultmit::sim::{Campaign, CollectRecords, ShardSpec};
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

/// Runs campaigns with an infallible per-die evaluator into
/// [`CollectRecords`].
pub trait Records {
    /// Every record of one shard of the campaign.
    fn records<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
    ) -> CollectRecords;
}

impl<B: FaultBackend> Records for Campaign<B> {
    fn records<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
    ) -> CollectRecords {
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            evaluate(map, metrics);
            Ok::<(), Infallible>(())
        };
        self.run_shard(schemes, seed, shard, evaluate, CollectRecords::new)
            .unwrap()
            .0
    }
}
