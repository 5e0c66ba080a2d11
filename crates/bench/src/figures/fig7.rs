//! Fig. 7 — CDF of the application quality metric for the data-mining
//! benchmarks under memory failures.

use super::{
    selected_benchmarks, take_catalogue, FigureDef, FigureError, FigureSpec, PanelState,
    RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_percent, Table};
use faultmit_analysis::CatalogueAccumulator;
use faultmit_apps::{Benchmark, QualityCdfResult, QualityEvaluator};
use faultmit_core::{MitigationScheme, Scheme};
use faultmit_memsim::{Backend, BackendKind, MemoryConfig};
use faultmit_sim::{Parallelism, ShardSpec, N_MAX_COVERAGE};
use std::fmt::Write as _;

/// The campaign seed baked into the Fig. 7 protocol.
pub const FIG7_SEED: u64 = 0xF167;

/// The materialised Fig. 7 campaign: per-benchmark evaluators over one
/// shared backend and scheme catalogue, all derived from a [`FigureSpec`].
#[derive(Debug, Clone)]
pub struct Fig7Campaign {
    /// One quality evaluator per benchmark panel, in spec order.
    pub evaluators: Vec<QualityEvaluator>,
    /// The shared fault backend (built at `P_cell = 10⁻³`).
    pub backend: Backend,
    /// The Fig. 7 scheme catalogue.
    pub schemes: Vec<Scheme>,
    /// The campaign seed.
    pub seed: u64,
    /// Largest simulated failure count (99 % die coverage).
    pub max_failures: u64,
    /// Monte-Carlo fault maps per failure count.
    pub samples_per_count: usize,
}

impl Fig7Campaign {
    /// Builds the campaign for a spec (the spec's figure must be `fig7`).
    ///
    /// # Errors
    ///
    /// Propagates backend-calibration and evaluator-construction errors.
    pub fn from_spec(spec: &FigureSpec, parallelism: Parallelism) -> Result<Self, FigureError> {
        assert_eq!(spec.figure, "fig7", "not a Fig. 7 spec");
        // The paper: 16 KB memory, P_cell = 1e-3, 500 MC fault maps per
        // failure count; the reduced default keeps the protocol on a smaller
        // bank. Failure counts cover 99 % of the die population either way.
        let (samples, memory_rows) = if spec.full_scale {
            (1280usize, 4096usize)
        } else {
            (200, 512)
        };
        let backend = Backend::at_p_cell(
            spec.backend_kind(),
            MemoryConfig::new(memory_rows, 32)?,
            1e-3,
        )?;
        let max_failures = backend.failure_distribution()?.n_max(N_MAX_COVERAGE);
        let evaluators = spec
            .benchmarks
            .iter()
            .map(|&benchmark| {
                QualityEvaluator::builder(benchmark)
                    .samples(samples)
                    .memory_rows(memory_rows)
                    .parallelism(parallelism)
                    .build()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            evaluators,
            backend,
            schemes: Scheme::fig7_catalogue(),
            seed: FIG7_SEED,
            max_failures,
            samples_per_count: spec.samples_per_count,
        })
    }

    /// Runs one shard of every benchmark panel, returning one accumulator
    /// per panel in spec order and the generation worker-seconds summed
    /// over the panels.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn run_shard_stats(
        &self,
        shard: ShardSpec,
    ) -> Result<(Vec<CatalogueAccumulator>, f64), FigureError> {
        let mut generation_seconds = 0.0;
        let states = self
            .evaluators
            .iter()
            .map(|evaluator| {
                let (state, stats) = evaluator.quality_shard_on(
                    &self.schemes,
                    &self.backend,
                    self.max_failures,
                    self.samples_per_count,
                    self.seed,
                    shard,
                )?;
                generation_seconds += stats.generation_seconds;
                Ok(state)
            })
            .collect::<Result<_, FigureError>>()?;
        Ok((states, generation_seconds))
    }

    /// [`Fig7Campaign::run_shard_stats`] without the telemetry.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn run_shard(&self, shard: ShardSpec) -> Result<Vec<CatalogueAccumulator>, FigureError> {
        Ok(self.run_shard_stats(shard)?.0)
    }

    /// Reduces one panel's (possibly shard-merged) state to per-scheme
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates reduction errors.
    pub fn results(
        &self,
        panel: usize,
        state: CatalogueAccumulator,
    ) -> Result<Vec<QualityCdfResult>, FigureError> {
        Ok(self.evaluators[panel].quality_results_from_state(
            &self.schemes,
            &self.backend,
            state,
        )?)
    }
}

/// One Fig. 7 JSON series (the shape `fig7_quality --json` has always
/// written).
#[derive(Debug)]
pub struct Fig7Series {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme name.
    pub scheme: String,
    /// Fault-free quality (denominator of the normalisation).
    pub baseline_quality: f64,
    /// `(normalised quality, P(Q <= q))` CDF points.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of dies achieving at least 95 % of the baseline.
    pub yield_at_95pct: f64,
    /// Fraction of dies achieving at least 99 % of the baseline.
    pub yield_at_99pct: f64,
}

impl ToJson for Fig7Series {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("benchmark", self.benchmark.to_json()),
            ("scheme", self.scheme.to_json()),
            ("baseline_quality", self.baseline_quality.to_json()),
            ("cdf", self.cdf.to_json()),
            ("yield_at_95pct", self.yield_at_95pct.to_json()),
            ("yield_at_99pct", self.yield_at_99pct.to_json()),
        ])
    }
}

/// Renders one benchmark's Fig. 7 results into the JSON series of
/// `fig7_quality --json`.
#[must_use]
pub fn fig7_series(benchmark: Benchmark, results: &[QualityCdfResult]) -> Vec<Fig7Series> {
    results
        .iter()
        .map(|result| {
            let grid: Vec<f64> = (0..=50).map(|i| i as f64 / 50.0).collect();
            Fig7Series {
                benchmark: benchmark.name().to_owned(),
                scheme: result.scheme_name.clone(),
                baseline_quality: result.baseline_quality,
                // `result.cdf` is the model's combined CDF at quality 1.
                cdf: result.yield_model.combined_cdf_at(1.0, &grid),
                yield_at_95pct: result.yield_at_min_quality(0.95),
                yield_at_99pct: result.yield_at_min_quality(0.99),
            }
        })
        .collect()
}

/// The registered Fig. 7 figure.
pub struct Fig7Def;

impl FigureDef for Fig7Def {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig7_quality"]
    }

    fn description(&self) -> &'static str {
        "application-quality CDFs per benchmark (16KB, P_cell = 1e-3)"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_samples = if options.full_scale { 20 } else { 4 };
        FigureSpec {
            figure: self.name().to_owned(),
            backend: Some(options.backend_kind()),
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_samples),
            // An unknown selector leaves no panels here;
            // `check_identity_flags` rejects it before any campaign runs.
            benchmarks: selected_benchmarks(&options.positional).unwrap_or_default(),
            image: None,
            kind_law: None,
            // Quality campaigns evaluate through the apps layer, not the
            // MSE kernels.
            kernel: None,
        }
    }

    fn panel_labels(&self, spec: &FigureSpec) -> Vec<String> {
        spec.benchmarks
            .iter()
            .map(|b| b.name().to_ascii_lowercase())
            .collect()
    }

    fn words_per_sample(&self, spec: &FigureSpec) -> Option<u64> {
        Some(if spec.full_scale { 4096 } else { 512 })
    }

    fn run_shard(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        let campaign = Fig7Campaign::from_spec(spec, parallelism)?;
        let scheme_names: Vec<String> = campaign
            .schemes
            .iter()
            .map(MitigationScheme::name)
            .collect();
        let (states, generation_seconds) = campaign.run_shard_stats(shard)?;
        Ok(ShardRun {
            panels: states
                .into_iter()
                .map(|accumulator| PanelState::Catalogue {
                    scheme_names: scheme_names.clone(),
                    accumulator,
                })
                .collect(),
            generation_seconds: Some(generation_seconds),
        })
    }

    fn render(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let campaign = Fig7Campaign::from_spec(spec, parallelism)?;
        if panels.len() != spec.benchmarks.len() {
            return Err(format!(
                "fig7 expects {} benchmark panels, got {}",
                spec.benchmarks.len(),
                panels.len()
            )
            .into());
        }

        let mut report = String::new();
        if spec.backend_kind() != BackendKind::Sram {
            writeln!(
                report,
                "note: the paper's multi-fault-word discard is a bounded redraw; the {} backend's \
                 structured fault placement exhausts it at higher fault counts, so multi-fault \
                 words survive and H(39,32) SECDED is NOT an error-free reference here — that \
                 degradation is the technology effect under study.",
                campaign.backend.name()
            )?;
        }

        let mut all_series: Vec<Fig7Series> = Vec::new();
        for (panel, (&benchmark, state)) in spec.benchmarks.iter().zip(panels).enumerate() {
            let (_, accumulator) = take_catalogue(state, "fig7")?;
            let results = campaign.results(panel, accumulator)?;
            let baseline = results
                .first()
                .map(|r| r.baseline_quality)
                .unwrap_or_default();
            writeln!(
                report,
                "\nFig. 7 ({}) — {} on {}, fault-free {} = {:.4}, backend {}, P_cell = {:.0e}",
                match benchmark {
                    Benchmark::Elasticnet => "a",
                    Benchmark::Pca => "b",
                    Benchmark::Knn => "c",
                },
                benchmark.name(),
                benchmark.dataset_name(),
                benchmark.metric_name(),
                baseline,
                campaign.backend.name(),
                campaign.backend.p_cell(),
            )?;

            let mut table = Table::new(
                format!("normalised {} per scheme", benchmark.metric_name()),
                vec![
                    "scheme".into(),
                    "median quality".into(),
                    "1st percentile".into(),
                    "yield @ >=95% of baseline".into(),
                ],
            );
            for result in &results {
                table.add_row(vec![
                    result.scheme_name.clone(),
                    format!("{:.4}", result.cdf.quantile(0.5)),
                    format!("{:.4}", result.cdf.quantile(0.01)),
                    format_percent(result.yield_at_min_quality(0.95)),
                ]);
            }
            writeln!(report, "{table}")?;
            all_series.extend(fig7_series(benchmark, &results));
        }

        Ok(RenderedFigure {
            document: all_series.to_json(),
            report,
        })
    }
}
