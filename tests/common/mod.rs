//! Helpers shared by the integration suites.

use faultmit::memsim::FaultMap;

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
