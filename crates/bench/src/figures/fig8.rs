//! Fig. 8 (extension) — memory-MSE statistics for every protection scheme
//! across memory technologies and operating points.

use super::{
    spec_kinds, spec_schemes, take_catalogue, FigureDef, FigureError, FigureSpec, PanelState,
    RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_percent, format_sci, Table};
use faultmit_analysis::MonteCarloEngine;
use faultmit_core::Scheme;
use faultmit_memsim::{
    Backend, BackendKind, CellFailureModel, DramRetentionBackend, MemoryConfig, MlcNvmBackend,
    SramVddBackend,
};
use faultmit_sim::{CampaignConfig, Parallelism, ShardSpec, N_MAX_COVERAGE};
use std::fmt::Write as _;

/// The campaign seed baked into the Fig. 8 protocol.
pub const FIG8_SEED: u64 = 0xF168;

#[derive(Debug)]
struct MatrixRow {
    backend: &'static str,
    operating_point: String,
    knob: f64,
    p_cell: f64,
    scheme: String,
    mean_mse: f64,
    mse_at_99pct_yield: Option<f64>,
    yield_at_mse_1e6: f64,
}

impl ToJson for MatrixRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("backend", self.backend.to_json()),
            ("operating_point", self.operating_point.to_json()),
            ("knob", self.knob.to_json()),
            ("p_cell", self.p_cell.to_json()),
            ("scheme", self.scheme.to_json()),
            ("mean_mse", self.mean_mse.to_json()),
            ("mse_at_99pct_yield", self.mse_at_99pct_yield.to_json()),
            ("yield_at_mse_1e6", self.yield_at_mse_1e6.to_json()),
        ])
    }
}

/// Three operating points per technology, ordered from conservative to
/// aggressive (rising fault density).
fn operating_points(kind: BackendKind, memory: MemoryConfig) -> Result<Vec<Backend>, FigureError> {
    Ok(match kind {
        BackendKind::Sram => {
            let model = CellFailureModel::default_28nm();
            [0.85, 0.78, 0.70]
                .iter()
                .map(|&vdd| Ok(Backend::Sram(SramVddBackend::at_vdd(memory, model, vdd)?)))
                .collect::<Result<_, FigureError>>()?
        }
        BackendKind::Dram => [32.0, 64.0, 128.0]
            .iter()
            .map(|&t_ref| {
                Ok(Backend::Dram(DramRetentionBackend::new(
                    memory, t_ref, 45.0,
                )?))
            })
            .collect::<Result<_, FigureError>>()?,
        BackendKind::Mlc => [14.0, 12.0, 10.0]
            .iter()
            .map(|&spacing| Ok(Backend::Mlc(MlcNvmBackend::new(memory, spacing, 86_400.0)?)))
            .collect::<Result<_, FigureError>>()?,
    })
}

fn failure_cap(spec: &FigureSpec) -> u64 {
    if spec.full_scale {
        150
    } else {
        100
    }
}

/// Every cell of the backend × operating-point matrix, materialised into a
/// catalogue engine.
fn panel_engines(
    spec: &FigureSpec,
    parallelism: Parallelism,
) -> Result<Vec<(BackendKind, MonteCarloEngine)>, FigureError> {
    let memory = MemoryConfig::paper_16kb();
    let cap = failure_cap(spec);
    let mut engines = Vec::new();
    for kind in spec_kinds(spec) {
        for backend in operating_points(kind, memory)? {
            let backend = match spec.kind_law {
                Some(law) => backend.with_kind_law(law)?,
                None => backend,
            };
            // Simulate up to the 99th-percentile failure count of this
            // operating point, bounded so aggressive corners stay cheap.
            let max_failures = backend
                .failure_distribution()?
                .n_max(N_MAX_COVERAGE)
                .clamp(1, cap);
            let engine = MonteCarloEngine::new(
                CampaignConfig::for_backend(backend)?
                    .with_samples_per_count(spec.samples_per_count)
                    .with_max_failures(max_failures)
                    .with_parallelism(parallelism)
                    .with_kernel(spec.kernel_kind()),
            );
            engines.push((kind, engine));
        }
    }
    Ok(engines)
}

/// The registered Fig. 8 matrix figure.
pub struct Fig8Def;

impl FigureDef for Fig8Def {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig8_backend_matrix"]
    }

    fn description(&self) -> &'static str {
        "scheme x backend x operating-point memory-MSE matrix"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_samples = if options.full_scale { 500 } else { 40 };
        FigureSpec {
            figure: self.name().to_owned(),
            // None = sweep every technology (the monolithic default).
            backend: options.backend,
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_samples),
            benchmarks: Vec::new(),
            image: None,
            // None = the paper's always-observable flips; `--kind-law`
            // switches every cell of the matrix to the given behaviour.
            kind_law: options.kind_law,
            kernel: options.kernel,
        }
    }

    fn panel_labels(&self, spec: &FigureSpec) -> Vec<String> {
        spec_kinds(spec)
            .iter()
            .flat_map(|kind| (0..3).map(move |point| format!("{}:op{point}", kind.name())))
            .collect()
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
        let schemes = spec_schemes();
        let scheme_names: Vec<String> = schemes.iter().map(Scheme::name).collect();
        let mut generation_seconds = 0.0;
        let panels = panel_engines(spec, parallelism)?
            .into_iter()
            .map(|(_, engine)| {
                let (accumulator, stats) =
                    engine.run_catalogue_shard_on_image_stats(&schemes, FIG8_SEED, shard, None)?;
                generation_seconds += stats.generation_seconds;
                Ok(PanelState::Catalogue {
                    scheme_names: scheme_names.clone(),
                    accumulator,
                })
            })
            .collect::<Result<Vec<_>, FigureError>>()?;
        Ok(ShardRun {
            panels,
            generation_seconds: Some(generation_seconds),
        })
    }

    fn render(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let schemes = spec_schemes();
        let engines = panel_engines(spec, parallelism)?;
        if panels.len() != engines.len() {
            return Err(format!(
                "fig8 expects {} operating-point panels, got {}",
                engines.len(),
                panels.len()
            )
            .into());
        }

        let mut report = String::new();
        writeln!(
            report,
            "Fig. 8 matrix: 16KB memory, {} scheme(s) x {} backend(s) x 3 operating points, \
             {} maps per failure count (counts up to the 99th percentile, capped at {})",
            schemes.len(),
            spec_kinds(spec).len(),
            spec.samples_per_count,
            failure_cap(spec),
        )?;
        if let Some(law) = spec.kind_law {
            writeln!(report, "fault-kind law: {law} (default: flip)")?;
        }

        let mut table = Table::new(
            "Fig. 8 — scheme x backend x operating point (memory MSE)",
            vec![
                "backend".into(),
                "operating point".into(),
                "P_cell".into(),
                "scheme".into(),
                "mean MSE".into(),
                "MSE @ 99% yield".into(),
                "yield @ MSE<1e6".into(),
            ],
        );

        let mut rows = Vec::new();
        for ((kind, engine), panel) in engines.into_iter().zip(panels) {
            let (_, accumulator) = take_catalogue(panel, "fig8")?;
            let op = engine.config().operating_point();
            let p_cell = engine.config().p_cell();
            let results = engine.results_from_state(&schemes, accumulator)?;
            for result in &results {
                let mean = result.yield_model.combined_mean(0.0).unwrap_or(0.0);
                let at_yield = result.mse_for_yield(0.99);
                let yield_1e6 = result.yield_at_mse(1e6);
                table.add_row(vec![
                    kind.name().to_owned(),
                    op.label(),
                    format_sci(p_cell),
                    result.scheme_name.clone(),
                    format_sci(mean),
                    at_yield.map_or_else(|| "unreachable".to_owned(), format_sci),
                    format_percent(yield_1e6),
                ]);
                rows.push(MatrixRow {
                    backend: kind.name(),
                    operating_point: op.label(),
                    knob: op.primary_value(),
                    p_cell,
                    scheme: result.scheme_name.clone(),
                    mean_mse: mean,
                    mse_at_99pct_yield: at_yield,
                    yield_at_mse_1e6: yield_1e6,
                });
            }
        }
        writeln!(report, "{table}")?;

        Ok(RenderedFigure {
            document: rows.to_json(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::find_figure;
    use faultmit_memsim::FaultKindLaw;

    #[test]
    fn kind_law_is_part_of_the_spec_identity_and_reaches_the_backends() {
        let figure = find_figure("fig8_backend_matrix").unwrap();
        let default_spec = figure.spec(&RunOptions::default());
        assert_eq!(default_spec.kind_law, None);

        let options = RunOptions::parse(
            [
                "--backend",
                "sram",
                "--samples",
                "2",
                "--kind-law",
                "stuck-at:1",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        let spec = figure.spec(&options);
        assert_eq!(
            spec.kind_law,
            Some(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0
            })
        );
        assert_ne!(spec, figure.spec(&RunOptions::default()));

        // All-stuck-at-0 faults over the matrix's all-zeros background are
        // silent: every scheme's mean MSE collapses to zero, unlike the
        // default flip law.
        let panels = figure
            .run_shard(&spec, Parallelism::Serial, ShardSpec::solo())
            .unwrap()
            .panels;
        let rendered = figure.render(&spec, Parallelism::Serial, panels).unwrap();
        assert!(rendered.report.contains("fault-kind law: stuck-at:1"));
        for row in rendered.document.as_array().unwrap() {
            assert_eq!(
                row.get("mean_mse").and_then(JsonValue::as_f64),
                Some(0.0),
                "stuck-at-0 over zeros must be silent"
            );
        }
    }
}
