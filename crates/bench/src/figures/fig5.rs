//! Fig. 5 — CDF of the memory MSE for a 16 kB memory with `P_cell = 5e-6`
//! under the full protection catalogue.

use super::{
    single_panel, take_catalogue, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure,
    ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_percent, format_sci, Table};
use faultmit_analysis::{CatalogueAccumulator, MonteCarloEngine, SchemeMseResult};
use faultmit_core::Scheme;
use faultmit_memsim::{Backend, MemoryConfig};
use faultmit_sim::{CampaignConfig, Parallelism, ShardSpec, ShardStats};
use std::fmt::Write as _;

/// The campaign seed baked into the Fig. 5 protocol.
pub const FIG5_SEED: u64 = 0xF165;

/// The materialised Fig. 5 campaign: engine, catalogue and seed, all derived
/// from a [`FigureSpec`].
#[derive(Debug, Clone)]
pub struct Fig5Campaign {
    /// The MSE engine at the figure's memory/backend/budget.
    pub engine: MonteCarloEngine,
    /// The Fig. 5 scheme catalogue.
    pub schemes: Vec<Scheme>,
    /// The campaign seed.
    pub seed: u64,
    /// Largest simulated failure count.
    pub max_failures: u64,
}

impl Fig5Campaign {
    /// Builds the campaign for a spec (the spec's figure must be `fig5`).
    ///
    /// # Errors
    ///
    /// Propagates backend-calibration errors.
    pub fn from_spec(spec: &FigureSpec, parallelism: Parallelism) -> Result<Self, FigureError> {
        assert_eq!(spec.figure, "fig5", "not a Fig. 5 spec");
        // The paper evaluates a 16 KB memory at P_cell = 5e-6 over failure
        // counts 1..150 with 1e7 MC runs; the reduced default keeps the same
        // memory and P_cell with a smaller budget.
        let max_failures = if spec.full_scale { 150 } else { 24 };
        let backend = Backend::at_p_cell(spec.backend_kind(), MemoryConfig::paper_16kb(), 5e-6)?;
        let config = CampaignConfig::for_backend(backend)?
            .with_samples_per_count(spec.samples_per_count)
            .with_max_failures(max_failures)
            .with_parallelism(parallelism)
            .with_kernel(spec.kernel_kind());
        Ok(Self {
            engine: MonteCarloEngine::new(config),
            schemes: Scheme::fig5_catalogue(),
            seed: FIG5_SEED,
            max_failures,
        })
    }

    /// Runs one shard, returning the raw accumulator state plus the run's
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn run_shard_stats(
        &self,
        shard: ShardSpec,
    ) -> Result<(CatalogueAccumulator, ShardStats), FigureError> {
        Ok(self
            .engine
            .run_catalogue_shard_on_image_stats(&self.schemes, self.seed, shard, None)?)
    }

    /// Reduces (possibly shard-merged) state to per-scheme results.
    ///
    /// # Errors
    ///
    /// Propagates reduction errors.
    pub fn results(
        &self,
        state: CatalogueAccumulator,
    ) -> Result<Vec<SchemeMseResult>, FigureError> {
        Ok(self.engine.results_from_state(&self.schemes, state)?)
    }
}

/// One Fig. 5 JSON series (the shape `fig5_mse_cdf --json` has always
/// written).
#[derive(Debug)]
pub struct Fig5Series {
    /// Scheme name.
    pub scheme: String,
    /// `(mse, P(MSE <= mse))` points of the CDF on a log grid.
    pub cdf: Vec<(f64, f64)>,
    /// MSE needed to reach 99.9999 % yield (the paper's example target),
    /// if reachable with the simulated failure-count coverage.
    pub mse_at_six_nines_yield: Option<f64>,
    /// Yield at the paper's example constraint MSE < 10⁶.
    pub yield_at_mse_1e6: f64,
}

impl ToJson for Fig5Series {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("scheme", self.scheme.to_json()),
            ("cdf", self.cdf.to_json()),
            (
                "mse_at_six_nines_yield",
                self.mse_at_six_nines_yield.to_json(),
            ),
            ("yield_at_mse_1e6", self.yield_at_mse_1e6.to_json()),
        ])
    }
}

/// Renders Fig. 5 results into the JSON series of `fig5_mse_cdf --json`.
#[must_use]
pub fn fig5_series(results: &[SchemeMseResult]) -> Vec<Fig5Series> {
    results
        .iter()
        .map(|result| {
            // The series is the model's combined CDF at MSE 0, on a log
            // grid over its support.
            let grid = result
                .yield_model
                .combined_log_grid(0.0, 40)
                .unwrap_or_default();
            Fig5Series {
                scheme: result.scheme_name.clone(),
                cdf: result.yield_model.combined_cdf_at(0.0, &grid),
                mse_at_six_nines_yield: result.mse_for_yield(0.999_999),
                yield_at_mse_1e6: result.yield_at_mse(1e6),
            }
        })
        .collect()
}

/// The registered Fig. 5 figure.
pub struct Fig5Def;

impl FigureDef for Fig5Def {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig5_mse_cdf"]
    }

    fn description(&self) -> &'static str {
        "memory-MSE CDFs over the die population (16KB, P_cell = 5e-6)"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_samples = if options.full_scale { 500 } else { 60 };
        FigureSpec {
            figure: self.name().to_owned(),
            backend: Some(options.backend_kind()),
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_samples),
            benchmarks: Vec::new(),
            image: None,
            kind_law: None,
            kernel: options.kernel,
        }
    }

    fn panel_labels(&self, _spec: &FigureSpec) -> Vec<String> {
        vec!["fig5".to_owned()]
    }

    fn words_per_sample(&self, _spec: &FigureSpec) -> Option<u64> {
        Some(MemoryConfig::paper_16kb().rows() as u64)
    }

    fn run_shard(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        let campaign = Fig5Campaign::from_spec(spec, parallelism)?;
        let (accumulator, stats) = campaign.run_shard_stats(shard)?;
        Ok(ShardRun {
            panels: vec![PanelState::Catalogue {
                scheme_names: campaign.schemes.iter().map(Scheme::name).collect(),
                accumulator,
            }],
            generation_seconds: Some(stats.generation_seconds),
        })
    }

    fn render(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let campaign = Fig5Campaign::from_spec(spec, parallelism)?;
        let (_, accumulator) = take_catalogue(single_panel(panels, "fig5")?, "fig5")?;
        let results = campaign.results(accumulator)?;

        let mut report = String::new();
        writeln!(
            report,
            "Fig. 5 campaign: 16KB memory, backend {} ({}), P_cell = {:.0e}, \
             failure counts 1..={}, {} maps per count",
            campaign.engine.config().backend().name(),
            campaign.engine.config().operating_point().label(),
            campaign.engine.config().p_cell(),
            campaign.max_failures,
            spec.samples_per_count,
        )?;

        let mut table = Table::new(
            "Fig. 5 — MSE that must be tolerated per yield target, and yield at MSE < 1e6",
            vec![
                "scheme".into(),
                "MSE @ 99% yield".into(),
                "MSE @ 99.99% yield".into(),
                "MSE @ 99.9999% yield".into(),
                "yield @ MSE<1e6".into(),
                "yield @ MSE<1e6 (faulty dies)".into(),
            ],
        );
        for result in &results {
            let fmt = |target: f64| {
                result
                    .mse_for_yield(target)
                    .map_or_else(|| "unreachable".to_owned(), format_sci)
            };
            // The paper's Fig. 5 CDF is built from dies with at least one
            // failure (Eq. (5) sums from n = 1), so also report the yield
            // conditioned on faulty dies.
            let zero_mass = result.yield_model.zero_failure_yield();
            let conditional = if zero_mass < 1.0 {
                ((result.yield_at_mse(1e6) - zero_mass) / (1.0 - zero_mass)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            table.add_row(vec![
                result.scheme_name.clone(),
                fmt(0.99),
                fmt(0.9999),
                fmt(0.999_999),
                format_percent(result.yield_at_mse(1e6)),
                format_percent(conditional),
            ]);
        }
        writeln!(report, "{table}")?;

        // Headline claim: ≥30x MSE reduction at equal yield even for nFM=1.
        let unprotected = results
            .iter()
            .find(|r| r.scheme_name == "no-correction")
            .ok_or("catalogue contains the unprotected scheme")?;
        let shuffle1 = results
            .iter()
            .find(|r| r.scheme_name == "bit-shuffle nFM=1")
            .ok_or("catalogue contains nFM=1")?;
        if let (Some(u), Some(s)) = (
            unprotected.mse_for_yield(0.99),
            shuffle1.mse_for_yield(0.99),
        ) {
            writeln!(
                report,
                "MSE reduction at 99% yield, nFM=1 vs no-correction: {:.0}x (paper: >= 30x)",
                u / s.max(f64::MIN_POSITIVE)
            )?;
        }

        Ok(RenderedFigure {
            document: fig5_series(&results).to_json(),
            report,
        })
    }
}
