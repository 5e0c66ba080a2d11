//! Fig. 9 (extension) — data-dependent fault sensitivity: memory-MSE
//! statistics for every protection scheme across technologies, stored data
//! images and fault-kind laws.
//!
//! The paper's MSE protocol evaluates an all-zeros background, under which
//! a stuck-at-0 cell is always silent; this figure evaluates faults
//! *relative to the stored word* over the [`ImageSpec`] catalogue (zeros,
//! ones, uniform-random, sparse, and a fixed-point application matrix), so
//! the asymmetric stuck-at laws of the DRAM/MLC backends finally
//! differentiate schemes by the data they protect. Under the `flip` law
//! every image row of the matrix is identical (a control for the
//! data-aware path); under `stuck-at:P` the gap between the zeros and ones
//! rows measures the data dependence directly.

use super::{
    spec_kinds, spec_schemes, take_catalogue, FigureDef, FigureError, FigureSpec, PanelState,
    RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_percent, format_sci, Table};
use faultmit_analysis::{CatalogueAccumulator, MonteCarloEngine, SchemeMseResult};
use faultmit_core::Scheme;
use faultmit_memsim::image::{AppImage, ImageSpec};
use faultmit_memsim::{Backend, BackendKind, FaultKindLaw, MemoryConfig};
use faultmit_sim::{CampaignConfig, Parallelism, ShardSpec, ShardStats, N_MAX_COVERAGE};
use std::fmt::Write as _;

/// The campaign seed baked into the Fig. 9 protocol.
pub const FIG9_SEED: u64 = 0xF169;

/// Marginal per-cell fault probability every cell of the matrix is
/// calibrated to, so image effects are compared at matched fault density
/// across technologies.
pub const FIG9_P_CELL: f64 = 1e-4;

/// Seed of the default random/sparse images (a fixed protocol constant, so
/// the default sweep is one reproducible campaign).
const FIG9_IMAGE_SEED: u64 = 0xF169_DA7A;

/// Failure-count cap of the reduced configuration (the full scale lifts it
/// to the 99th percentile of the density-matched binomial, ~2x the mean).
fn failure_cap(spec: &FigureSpec) -> u64 {
    if spec.full_scale {
        64
    } else {
        24
    }
}

/// The image sweep: the `--image` restriction when given, otherwise the
/// default catalogue — one image per data profile class.
fn spec_images(spec: &FigureSpec) -> Vec<ImageSpec> {
    match spec.image {
        Some(image) => vec![image],
        None => vec![
            ImageSpec::Zeros,
            ImageSpec::Ones,
            ImageSpec::UniformRandom {
                seed: FIG9_IMAGE_SEED,
            },
            ImageSpec::Sparse {
                seed: FIG9_IMAGE_SEED,
            },
            ImageSpec::App(AppImage::Wine),
        ],
    }
}

/// The fault-kind-law sweep: the `--kind-law` restriction when given,
/// otherwise the paper's observable-flip control plus a decay-style
/// asymmetric stuck-at law (90 % of faulty cells read 0).
fn spec_laws(spec: &FigureSpec) -> Vec<FaultKindLaw> {
    match spec.kind_law {
        Some(law) => vec![law],
        None => vec![
            FaultKindLaw::AlwaysFlip,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9,
            },
        ],
    }
}

/// The one panel-label template of the matrix — shard checkpoints store
/// these strings and the merge validates them, so
/// [`Fig9Campaign::label`] and [`Fig9Def::panel_labels`] must never
/// drift apart.
fn cell_label(kind: BackendKind, image: ImageSpec, law: FaultKindLaw) -> String {
    format!("{}:{}:{}", kind.name(), image, law)
}

/// One cell of the backend × image × law matrix, materialised into a
/// data-aware catalogue engine. The image *words* are not part of the
/// cell: evaluation-time callers materialise each distinct image once (see
/// [`fig9_image_words`]) and share it across the kind/law axes, while the
/// render path never materialises any.
pub struct Fig9Campaign {
    /// The fault technology of this cell.
    pub kind: BackendKind,
    /// The stored-data image of this cell.
    pub image: ImageSpec,
    /// The fault-kind law of this cell.
    pub law: FaultKindLaw,
    /// The density-matched MSE engine.
    pub engine: MonteCarloEngine,
}

/// Materialises one image of the Fig. 9 sweep (`None` for the all-zeros
/// image, which the MSE engine evaluates through its zeros fast path).
///
/// # Errors
///
/// Propagates image-materialisation errors.
pub fn fig9_image_words(image: ImageSpec) -> Result<Option<Vec<u64>>, FigureError> {
    Ok(match image {
        ImageSpec::Zeros => None,
        spec => Some(faultmit_apps::image::image_words(
            spec,
            MemoryConfig::paper_16kb(),
        )?),
    })
}

impl Fig9Campaign {
    /// Materialises every cell of the spec's matrix, in panel order
    /// (backend-major, then image, then law).
    ///
    /// # Errors
    ///
    /// Propagates backend-calibration and image-materialisation errors.
    pub fn matrix(
        spec: &FigureSpec,
        parallelism: Parallelism,
    ) -> Result<Vec<Fig9Campaign>, FigureError> {
        let memory = MemoryConfig::paper_16kb();
        let cap = failure_cap(spec);
        let mut cells = Vec::new();
        for kind in spec_kinds(spec) {
            for image in spec_images(spec) {
                for law in spec_laws(spec) {
                    let backend =
                        Backend::at_p_cell(kind, memory, FIG9_P_CELL)?.with_kind_law(law)?;
                    let max_failures = backend
                        .failure_distribution()?
                        .n_max(N_MAX_COVERAGE)
                        .clamp(1, cap);
                    let engine = MonteCarloEngine::new(
                        CampaignConfig::for_backend(backend)?
                            .with_samples_per_count(spec.samples_per_count)
                            .with_max_failures(max_failures)
                            .with_parallelism(parallelism)
                            .with_image(image)
                            .with_kernel(spec.kernel_kind()),
                    );
                    cells.push(Fig9Campaign {
                        kind,
                        image,
                        law,
                        engine,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// The cell's panel label (`"<backend>:<image>:<law>"`).
    #[must_use]
    pub fn label(&self) -> String {
        cell_label(self.kind, self.image, self.law)
    }

    /// Runs one shard of the cell's data-aware campaign against the cell's
    /// materialised image words ([`fig9_image_words`]; `None` evaluates the
    /// cell's configured image), returning the accumulator and the run's
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn run_shard_stats(
        &self,
        shard: ShardSpec,
        data: Option<&[u64]>,
    ) -> Result<(CatalogueAccumulator, ShardStats), FigureError> {
        Ok(self.engine.run_catalogue_shard_on_image_stats(
            &spec_schemes(),
            FIG9_SEED,
            shard,
            data,
        )?)
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
        Ok(self.engine.results_from_state(&spec_schemes(), state)?)
    }
}

#[derive(Debug)]
struct SensitivityRow {
    backend: &'static str,
    image: String,
    kind_law: String,
    operating_point: String,
    p_cell: f64,
    scheme: String,
    mean_mse: f64,
    mse_at_99pct_yield: Option<f64>,
    yield_at_mse_1e6: f64,
}

impl ToJson for SensitivityRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("backend", self.backend.to_json()),
            ("image", self.image.to_json()),
            ("kind_law", self.kind_law.to_json()),
            ("operating_point", self.operating_point.to_json()),
            ("p_cell", self.p_cell.to_json()),
            ("scheme", self.scheme.to_json()),
            ("mean_mse", self.mean_mse.to_json()),
            ("mse_at_99pct_yield", self.mse_at_99pct_yield.to_json()),
            ("yield_at_mse_1e6", self.yield_at_mse_1e6.to_json()),
        ])
    }
}

/// The registered Fig. 9 data-sensitivity figure.
pub struct Fig9Def;

impl FigureDef for Fig9Def {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig9_data_sensitivity", "data_sensitivity"]
    }

    fn description(&self) -> &'static str {
        "scheme x backend x data-image x fault-kind-law MSE sensitivity matrix"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_samples = if options.full_scale { 400 } else { 30 };
        FigureSpec {
            figure: self.name().to_owned(),
            // None = sweep every technology, image and law.
            backend: options.backend,
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_samples),
            benchmarks: Vec::new(),
            image: options.image,
            kind_law: options.kind_law,
            kernel: options.kernel,
        }
    }

    fn panel_labels(&self, spec: &FigureSpec) -> Vec<String> {
        let images = spec_images(spec);
        let laws = spec_laws(spec);
        spec_kinds(spec)
            .iter()
            .flat_map(|&kind| {
                let laws = laws.clone();
                images.iter().flat_map(move |&image| {
                    laws.clone()
                        .into_iter()
                        .map(move |law| cell_label(kind, image, law))
                })
            })
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
        let scheme_names: Vec<String> = spec_schemes().iter().map(Scheme::name).collect();
        // One materialisation per distinct image, shared across the
        // backend and law axes of the matrix.
        let words_by_image: Vec<(ImageSpec, Option<Vec<u64>>)> = spec_images(spec)
            .into_iter()
            .map(|image| Ok((image, fig9_image_words(image)?)))
            .collect::<Result<_, FigureError>>()?;
        let mut generation_seconds = 0.0;
        let panels = Fig9Campaign::matrix(spec, parallelism)?
            .into_iter()
            .map(|cell| {
                let data = words_by_image
                    .iter()
                    .find(|(image, _)| *image == cell.image)
                    .and_then(|(_, words)| words.as_deref());
                let (accumulator, stats) = cell.run_shard_stats(shard, data)?;
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
        let cells = Fig9Campaign::matrix(spec, parallelism)?;
        if panels.len() != cells.len() {
            return Err(format!(
                "fig9 expects {} backend x image x law panels, got {}",
                cells.len(),
                panels.len()
            )
            .into());
        }

        let mut report = String::new();
        writeln!(
            report,
            "Fig. 9 data sensitivity: 16KB memory at matched P_cell = {FIG9_P_CELL:.0e}, \
             {} scheme(s) x {} backend(s) x {} image(s) x {} law(s), {} maps per failure count",
            spec_schemes().len(),
            spec_kinds(spec).len(),
            spec_images(spec).len(),
            spec_laws(spec).len(),
            spec.samples_per_count,
        )?;

        let mut table = Table::new(
            "Fig. 9 — scheme x backend x data image x fault-kind law (memory MSE)",
            vec![
                "backend".into(),
                "image".into(),
                "kind law".into(),
                "scheme".into(),
                "mean MSE".into(),
                "MSE @ 99% yield".into(),
                "yield @ MSE<1e6".into(),
            ],
        );

        let mut rows = Vec::new();
        for (cell, panel) in cells.iter().zip(panels) {
            let (_, accumulator) = take_catalogue(panel, "fig9")?;
            let results = cell.results(accumulator)?;
            for result in &results {
                let mean = result.yield_model.combined_mean(0.0).unwrap_or(0.0);
                let at_yield = result.mse_for_yield(0.99);
                let yield_1e6 = result.yield_at_mse(1e6);
                table.add_row(vec![
                    cell.kind.name().to_owned(),
                    cell.image.to_string(),
                    cell.law.to_string(),
                    result.scheme_name.clone(),
                    format_sci(mean),
                    at_yield.map_or_else(|| "unreachable".to_owned(), format_sci),
                    format_percent(yield_1e6),
                ]);
                rows.push(SensitivityRow {
                    backend: cell.kind.name(),
                    image: cell.image.to_string(),
                    kind_law: cell.law.to_string(),
                    operating_point: cell.engine.config().operating_point().label(),
                    p_cell: cell.engine.config().p_cell(),
                    scheme: result.scheme_name.clone(),
                    mean_mse: mean,
                    mse_at_99pct_yield: at_yield,
                    yield_at_mse_1e6: yield_1e6,
                });
            }
        }
        writeln!(report, "{table}")?;

        // Headline: the data-dependence gap — unprotected mean MSE over the
        // zeros vs ones images under the asymmetric stuck-at law.
        let gap = |image: &str| {
            rows.iter()
                .find(|row| {
                    row.image == image
                        && row.kind_law.starts_with("stuck-at:")
                        && row.scheme == "no-correction"
                })
                .map(|row| row.mean_mse)
        };
        if let (Some(zeros), Some(ones)) = (gap("zeros"), gap("ones")) {
            writeln!(
                report,
                "data dependence (no-correction, asymmetric stuck-at): \
                 mean MSE zeros = {}, ones = {} ({:.1}x)",
                format_sci(zeros),
                format_sci(ones),
                ones / zeros.max(f64::MIN_POSITIVE),
            )?;
        }

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

    fn small_options(args: &[&str]) -> RunOptions {
        RunOptions::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn spec_resolves_the_sweep_axes() {
        let figure = find_figure("fig9_data_sensitivity").unwrap();
        let spec = figure.spec(&small_options(&[]));
        assert_eq!(spec.figure, "fig9");
        assert_eq!(spec_kinds(&spec).len(), 3);
        assert_eq!(spec_images(&spec).len(), 5);
        assert_eq!(spec_laws(&spec).len(), 2);
        assert_eq!(figure.panel_labels(&spec).len(), 30);

        let spec = figure.spec(&small_options(&[
            "--backend",
            "mlc",
            "--image",
            "ones",
            "--kind-law",
            "stuck-at:0.9",
        ]));
        assert_eq!(spec_kinds(&spec), vec![BackendKind::Mlc]);
        assert_eq!(spec_images(&spec), vec![ImageSpec::Ones]);
        assert_eq!(
            spec_laws(&spec),
            vec![FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9
            }]
        );
        let labels = figure.panel_labels(&spec);
        assert_eq!(labels, vec!["mlc-nvm:ones:stuck-at:0.9".to_owned()]);

        // The matrix cells and the panel labels share one template in one
        // order — the invariant shard-file validation rests on.
        let spec = figure.spec(&small_options(&["--backend", "dram"]));
        let cells = Fig9Campaign::matrix(&spec, Parallelism::Serial).unwrap();
        assert_eq!(
            cells.iter().map(Fig9Campaign::label).collect::<Vec<_>>(),
            figure.panel_labels(&spec)
        );
    }

    #[test]
    fn asymmetric_stuck_at_shows_the_data_dependence_gap_in_the_json() {
        // The acceptance property: under an asymmetric stuck-at law the
        // zeros image is near-silent while the ones image is loud, and the
        // gap is visible in the rendered figure JSON.
        let figure = find_figure("fig9").unwrap();
        let options = small_options(&[
            "--backend",
            "sram",
            "--kind-law",
            "stuck-at:1",
            "--samples",
            "3",
        ]);
        let spec = figure.spec(&options);
        let panels = figure
            .run_shard(&spec, Parallelism::Serial, ShardSpec::solo())
            .unwrap()
            .panels;
        let rendered = figure.render(&spec, Parallelism::Serial, panels).unwrap();

        let mean_for = |image: &str, scheme: &str| -> f64 {
            rendered
                .document
                .as_array()
                .unwrap()
                .iter()
                .find(|row| {
                    row.get("image").and_then(JsonValue::as_str) == Some(image)
                        && row.get("scheme").and_then(JsonValue::as_str) == Some(scheme)
                })
                .and_then(|row| row.get("mean_mse"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        // Pure stuck-at-0 faults: silent over zeros, loud over ones.
        assert_eq!(mean_for("zeros", "no-correction"), 0.0);
        assert!(mean_for("ones", "no-correction") > 0.0);
        // A random image sits strictly between the two extremes.
        let random = format!("random:{FIG9_IMAGE_SEED}");
        let mid = mean_for(&random, "no-correction");
        assert!(mid > 0.0 && mid < mean_for("ones", "no-correction"));
    }

    #[test]
    fn flip_law_is_image_independent() {
        // The control: under the paper's always-flip protocol the stored
        // data cannot matter, so every image row carries identical numbers.
        let figure = find_figure("fig9").unwrap();
        let options = small_options(&["--backend", "dram", "--kind-law", "flip", "--samples", "2"]);
        let spec = figure.spec(&options);
        let panels = figure
            .run_shard(&spec, Parallelism::Serial, ShardSpec::solo())
            .unwrap()
            .panels;
        let rendered = figure.render(&spec, Parallelism::Serial, panels).unwrap();
        let rows = rendered.document.as_array().unwrap();
        let mean = |image: &str| -> Vec<f64> {
            rows.iter()
                .filter(|row| row.get("image").and_then(JsonValue::as_str) == Some(image))
                .map(|row| row.get("mean_mse").and_then(JsonValue::as_f64).unwrap())
                .collect()
        };
        let zeros = mean("zeros");
        assert!(!zeros.is_empty());
        for image in ["ones", "wine"] {
            assert_eq!(mean(image), zeros, "{image} differs under the flip law");
        }
    }
}
