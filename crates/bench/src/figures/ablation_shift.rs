//! Ablation — FM-LUT shift-selection policy for rows with multiple faults,
//! as a paired catalogue campaign: both policies score the same dies.

use super::{
    take_catalogue, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_sci, Table};
use faultmit_analysis::MonteCarloEngine;
use faultmit_core::{Scheme, SegmentGeometry};
use faultmit_memsim::{Backend, MemoryConfig};
use faultmit_sim::{CampaignConfig, Parallelism, ShardSpec};
use std::fmt::Write as _;

/// The campaign seed baked into the shift-policy ablation.
pub const ABLATION_SHIFT_SEED: u64 = 0xAB1A;

#[derive(Debug)]
struct AblationRow {
    n_fm: usize,
    faults_per_map: usize,
    mse_naive: f64,
    mse_optimal: f64,
    improvement_factor: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("n_fm", self.n_fm.to_json()),
            ("faults_per_map", self.faults_per_map.to_json()),
            ("mse_naive", self.mse_naive.to_json()),
            ("mse_optimal", self.mse_optimal.to_json()),
            ("improvement_factor", self.improvement_factor.to_json()),
        ])
    }
}

/// The ablation's sweep grid: `(n_fm, faults_per_map)` points in panel
/// order, derived from the spec's scale.
fn sweep_points(spec: &FigureSpec) -> Vec<(usize, usize)> {
    let rows = memory_rows(spec);
    let mut points = Vec::new();
    for n_fm in [1usize, 2, 3, 5] {
        // Fault densities high enough that multi-fault rows actually occur.
        for faults_per_map in [rows / 8, rows / 2, rows] {
            points.push((n_fm, faults_per_map));
        }
    }
    points
}

fn memory_rows(spec: &FigureSpec) -> usize {
    if spec.full_scale {
        4096
    } else {
        512
    }
}

/// The paired `(naive, optimal)` campaign of one sweep point.
fn point_campaign(
    spec: &FigureSpec,
    parallelism: Parallelism,
    faults_per_map: usize,
) -> Result<MonteCarloEngine, FigureError> {
    let config = MemoryConfig::new(memory_rows(spec), 32)?;
    // The `--backend` axis swaps the fault technology: the shift policies
    // face the same clustered / level-biased maps.
    let backend = Backend::at_p_cell(spec.backend_kind(), config, 1e-3)?;
    Ok(MonteCarloEngine::new(
        CampaignConfig::for_backend(backend)?
            .with_samples_per_count(spec.samples_per_count)
            .with_exact_failures(faults_per_map as u64)
            .with_parallelism(parallelism),
    ))
}

/// The registered shift-policy ablation.
pub struct AblationShiftDef;

impl FigureDef for AblationShiftDef {
    fn name(&self) -> &'static str {
        "ablation_shift_policy"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["ablation_shift", "shift_policy"]
    }

    fn description(&self) -> &'static str {
        "naive vs optimal FM-LUT shift policy on multi-fault rows (paired MSE)"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_maps = if options.full_scale { 400 } else { 60 };
        FigureSpec {
            figure: self.name().to_owned(),
            backend: Some(options.backend_kind()),
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_maps),
            benchmarks: Vec::new(),
            image: None,
            kind_law: None,
            kernel: None,
        }
    }

    fn panel_labels(&self, spec: &FigureSpec) -> Vec<String> {
        sweep_points(spec)
            .into_iter()
            .map(|(n_fm, faults)| format!("nFM={n_fm} faults={faults}"))
            .collect()
    }

    fn words_per_sample(&self, spec: &FigureSpec) -> Option<u64> {
        Some(memory_rows(spec) as u64)
    }

    fn run_shard(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        let mut generation_seconds = 0.0;
        let panels = sweep_points(spec)
            .into_iter()
            .map(|(n_fm, faults_per_map)| {
                let geometry = SegmentGeometry::new(32, n_fm)?;
                // Paired catalogue walk: both votes score identical dies.
                let schemes = [Scheme::NaiveShuffle(geometry), Scheme::BitShuffle(geometry)];
                let (accumulator, stats) = point_campaign(spec, parallelism, faults_per_map)?
                    .run_catalogue_shard_on_image_stats(
                        &schemes,
                        ABLATION_SHIFT_SEED,
                        shard,
                        None,
                    )?;
                generation_seconds += stats.generation_seconds;
                Ok(PanelState::Catalogue {
                    scheme_names: schemes.iter().map(|s| s.name()).collect(),
                    accumulator,
                })
            })
            .collect::<Result<_, FigureError>>()?;
        Ok(ShardRun {
            panels,
            generation_seconds: Some(generation_seconds),
        })
    }

    fn render(
        &self,
        spec: &FigureSpec,
        _parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let points = sweep_points(spec);
        if panels.len() != points.len() {
            return Err(format!(
                "{} expects {} sweep-point panels, got {}",
                self.name(),
                points.len(),
                panels.len()
            )
            .into());
        }

        let mut table = Table::new(
            "Ablation — multi-fault shift policy (memory MSE, lower is better)",
            vec![
                "nFM".into(),
                "faults/map".into(),
                "naive (align to MSB fault)".into(),
                "optimal (exhaustive search)".into(),
                "improvement".into(),
            ],
        );
        let mut series = Vec::new();
        for ((n_fm, faults_per_map), panel) in points.into_iter().zip(panels) {
            let (scheme_names, accumulator) = take_catalogue(panel, self.name())?;
            // Shard files are untrusted input: the paired reduction below
            // needs each scheme's only stratum at this point's fault count,
            // over the same dies.
            let strata = accumulator
                .per_scheme_counts()
                .iter()
                .map(|per_count| {
                    let cdf = per_count.get(&(faults_per_map as u64))?;
                    (per_count.len() == 1).then(|| cdf.values())
                })
                .collect::<Option<Vec<_>>>();
            let (naive, optimal) = match strata.as_deref() {
                Some(&[naive, optimal]) if naive.len() == optimal.len() => (naive, optimal),
                _ => {
                    return Err(format!(
                        "{} expects the (naive, optimal) pair to hold one stratum of \
                         {faults_per_map} faults over the same dies, found {scheme_names:?}",
                        self.name()
                    )
                    .into())
                }
            };
            let mean = |stratum: &[f64]| stratum.iter().sum::<f64>() / stratum.len().max(1) as f64;
            let mse_naive = mean(naive);
            let mse_optimal = mean(optimal);
            // Paired invariant: the optimal policy includes the naive shift
            // in its search space, so it can never lose on any single die.
            debug_assert!(naive
                .iter()
                .zip(optimal)
                .all(|(naive, optimal)| *optimal <= naive + 1e-9));

            table.add_row(vec![
                n_fm.to_string(),
                faults_per_map.to_string(),
                format_sci(mse_naive),
                format_sci(mse_optimal),
                format!("{:.2}x", mse_naive / mse_optimal.max(f64::MIN_POSITIVE)),
            ]);
            series.push(AblationRow {
                n_fm,
                faults_per_map,
                mse_naive,
                mse_optimal,
                improvement_factor: mse_naive / mse_optimal.max(f64::MIN_POSITIVE),
            });
        }

        let mut report = String::new();
        writeln!(report, "{table}")?;
        writeln!(
            report,
            "The optimal policy never loses to the naive one (it includes it in its search space); \
the gap widens as rows accumulate several faults."
        )?;

        Ok(RenderedFigure {
            document: series.to_json(),
            report,
        })
    }
}
