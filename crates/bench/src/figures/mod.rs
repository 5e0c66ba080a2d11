//! The declarative figure registry: every campaign-driven binary of this
//! crate is described by a [`FigureDef`] registered under a stable name,
//! and the binaries themselves are thin CLI-parse → registry-lookup →
//! render shims.
//!
//! # Architecture
//!
//! A figure's identity is its [`FigureSpec`] — the resolved, identity-
//! relevant CLI options (backend, scale, sample budget, benchmark panels).
//! The [`FigureDef`] implementation materialises the spec into engines,
//! evaluates any [`faultmit_sim::ShardSpec`] slice of the campaign into one
//! [`PanelState`] per panel, and renders merged panel states into the exact
//! JSON document (and human-readable report) the monolithic binary emits.
//! Because chunk boundaries and per-sample RNG streams derive from the
//! global plan, and panel states serialise/merge losslessly
//! ([`crate::shard`]), a K-shard campaign merged in shard order renders
//! **byte-identical** figure JSON to the monolithic run — for every
//! registered figure.
//!
//! Three process entry points share this module:
//!
//! * the monolithic figure binaries ([`run_monolithic`] — the `0/1` shard);
//! * `campaign_shard` / `campaign_merge` (one shard per process, explicit
//!   merge);
//! * `campaign_run`, the multi-process driver: single-command sharded
//!   execution with bounded retries and checkpoint reuse —
//!
//! ```text
//! campaign_run --figure fig8_backend_matrix --shards 4 --jobs 2 \
//!     --samples 5 --out results/fig8.json
//! ```
//!
//! runs the Fig. 8 campaign as 4 `campaign_shard` child processes (at most
//! 2 at a time), reuses completed shard checkpoints, retries failed
//! shards, then merges and renders `results/fig8.json` byte-identical to
//! `fig8_backend_matrix --samples 5 --json results/fig8.json`.

mod ablation_lut;
mod ablation_shift;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod table1;

pub use fig5::{fig5_series, Fig5Campaign, Fig5Series};
pub use fig7::{fig7_series, Fig7Campaign, Fig7Series};
pub use fig9::{fig9_image_words, Fig9Campaign};

use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use crate::metrics::ShardMetrics;
use faultmit_analysis::CatalogueAccumulator;
use faultmit_apps::Benchmark;
use faultmit_memsim::{BackendKind, FaultKindLaw, ImageSpec};
use faultmit_sim::{Accumulator, KernelKind, Parallelism, ShardSpec};

/// Errors from figure materialisation, evaluation or rendering.
pub type FigureError = Box<dyn std::error::Error>;

/// Resolves benchmark selectors (`elasticnet`, `pca`, `knn` and their
/// aliases) into [`Benchmark`]s; an empty selector list selects all three.
///
/// # Errors
///
/// Returns a message naming the first unknown selector and the accepted
/// ones.
pub fn selected_benchmarks(selectors: &[String]) -> Result<Vec<Benchmark>, String> {
    if selectors.is_empty() {
        return Ok(Benchmark::ALL.to_vec());
    }
    selectors
        .iter()
        .map(|name| match name.to_ascii_lowercase().as_str() {
            "elasticnet" | "wine" => Ok(Benchmark::Elasticnet),
            "pca" | "madelon" => Ok(Benchmark::Pca),
            "knn" | "har" | "activity" => Ok(Benchmark::Knn),
            _ => Err(format!(
                "unknown benchmark '{name}', expected one of: elasticnet|wine, pca|madelon, \
                 knn|har|activity"
            )),
        })
        .collect()
}

fn benchmark_from_name(name: &str) -> Result<Benchmark, String> {
    match name.to_ascii_lowercase().as_str() {
        "elasticnet" => Ok(Benchmark::Elasticnet),
        "pca" => Ok(Benchmark::Pca),
        "knn" => Ok(Benchmark::Knn),
        other => Err(format!("unknown benchmark '{other}' in figure spec")),
    }
}

/// The identity of one figure campaign: the registered figure name plus
/// everything identity-relevant the CLI resolved, and nothing derived.
///
/// Two shard files belong to the same campaign exactly when their specs are
/// equal; all derived quantities (memory geometry, seed, `N_max`, scheme
/// catalogue, operating-point grids) are recomputed deterministically from
/// the spec by the figure's [`FigureDef`]. Figures normalise knobs they
/// ignore (a deterministic table records no backend), so equivalent
/// invocations produce equal specs and checkpoint files stay valid across
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureSpec {
    /// Registry name of the figure this campaign belongs to.
    pub figure: String,
    /// Fault-generation technology; `None` means the figure's default
    /// (every technology for `fig8_backend_matrix`, not applicable for
    /// deterministic figures).
    pub backend: Option<BackendKind>,
    /// Paper-scale (`--full`) or reduced configuration.
    pub full_scale: bool,
    /// Monte-Carlo fault maps per failure count (or the figure's sample
    /// budget where no failure-count sweep exists).
    pub samples_per_count: usize,
    /// Benchmark panels (Fig. 7 only; empty elsewhere).
    pub benchmarks: Vec<Benchmark>,
    /// Data image restriction for data-aware campaigns (`fig9`; `None` =
    /// the figure's default image sweep; other figures normalise it away).
    pub image: Option<ImageSpec>,
    /// Fault-kind law override for campaigns that honour one (`fig8`,
    /// `fig9`; `None` = the figure's default; other figures normalise it
    /// away).
    pub kind_law: Option<FaultKindLaw>,
    /// Evaluation kernel for the MSE catalogue campaigns (`fig5`, `fig8`,
    /// `fig9`; `None` = the engine default, event-driven sparse; other
    /// figures normalise it away). Every kernel accumulates bit-identical
    /// state — carrying the choice in the spec makes shard checkpoints
    /// record which kernel produced them.
    pub kernel: Option<KernelKind>,
}

impl FigureSpec {
    /// The backend a single-technology campaign runs on (the paper's SRAM
    /// model when the spec records none).
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.unwrap_or(BackendKind::Sram)
    }

    /// The evaluation kernel a Monte-Carlo campaign runs with (the
    /// engine's sparse default when the spec records none).
    #[must_use]
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel.unwrap_or_default()
    }

    /// Serialises the spec for embedding in shard-state files.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("figure", self.figure.to_json()),
            (
                "backend",
                match self.backend {
                    None => JsonValue::Null,
                    Some(kind) => kind.name().to_json(),
                },
            ),
            ("full_scale", self.full_scale.to_json()),
            ("samples_per_count", self.samples_per_count.to_json()),
            (
                "benchmarks",
                JsonValue::Array(
                    self.benchmarks
                        .iter()
                        .map(|b| b.name().to_ascii_lowercase().to_json())
                        .collect(),
                ),
            ),
            (
                "image",
                match self.image {
                    None => JsonValue::Null,
                    Some(image) => image.to_string().to_json(),
                },
            ),
            (
                "kind_law",
                match self.kind_law {
                    None => JsonValue::Null,
                    Some(law) => law.to_string().to_json(),
                },
            ),
            (
                "kernel",
                match self.kernel {
                    None => JsonValue::Null,
                    Some(kernel) => kernel.as_str().to_json(),
                },
            ),
        ])
    }

    /// Reads a spec back from shard-state JSON, validating the figure name
    /// against the registry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field, or of
    /// an unregistered figure name.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let figure = value
            .get("figure")
            .and_then(JsonValue::as_str)
            .ok_or("spec is missing 'figure'")?;
        // Registry-aware: resolve aliases to the canonical name and reject
        // figures this build does not know how to merge or render.
        let figure = find_figure(figure)?.name().to_owned();
        let backend = match value.get("backend") {
            None => return Err("spec is missing 'backend'".to_owned()),
            Some(JsonValue::Null) => None,
            Some(node) => Some(
                node.as_str()
                    .ok_or("spec 'backend' must be a string or null")?
                    .parse::<BackendKind>()
                    .map_err(|e| e.to_string())?,
            ),
        };
        let full_scale = value
            .get("full_scale")
            .and_then(JsonValue::as_bool)
            .ok_or("spec is missing 'full_scale'")?;
        let samples_per_count = value
            .get("samples_per_count")
            .and_then(JsonValue::as_u64)
            .ok_or("spec is missing 'samples_per_count'")? as usize;
        let benchmarks = value
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .ok_or("spec is missing 'benchmarks'")?
            .iter()
            .map(|b| {
                b.as_str()
                    .ok_or_else(|| "benchmark names must be strings".to_owned())
                    .and_then(benchmark_from_name)
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Absent or null image/kind-law fields mean the figure's defaults.
        let image = match value.get("image") {
            None | Some(JsonValue::Null) => None,
            Some(node) => Some(
                node.as_str()
                    .ok_or("spec 'image' must be a string or null")?
                    .parse::<ImageSpec>()
                    .map_err(|e| e.to_string())?,
            ),
        };
        let kind_law = match value.get("kind_law") {
            None | Some(JsonValue::Null) => None,
            Some(node) => Some(
                node.as_str()
                    .ok_or("spec 'kind_law' must be a string or null")?
                    .parse::<FaultKindLaw>()
                    .map_err(|e| e.to_string())?,
            ),
        };
        let kernel = match value.get("kernel") {
            None | Some(JsonValue::Null) => None,
            Some(node) => Some(
                node.as_str()
                    .ok_or("spec 'kernel' must be a string or null")?
                    .parse::<KernelKind>()
                    .map_err(|e| e.to_string())?,
            ),
        };
        Ok(Self {
            figure,
            backend,
            full_scale,
            samples_per_count,
            benchmarks,
            image,
            kind_law,
            kernel,
        })
    }
}

/// The outcome of one shard evaluation: the panel states plus the shard's
/// generation telemetry.
#[derive(Debug)]
pub struct ShardRun {
    /// One state per campaign panel, in panel order.
    pub panels: Vec<PanelState>,
    /// Worker-seconds the shard spent generating dies: per-worker wall
    /// spans summed across panels and worker threads (a descheduled
    /// worker's span still counts). `None` for deterministic tables, which
    /// generate no dies.
    pub generation_seconds: Option<f64>,
}

impl ShardRun {
    /// The shard of a deterministic table: its one panel, no dies.
    pub(crate) fn table(rows: JsonValue) -> Self {
        Self {
            panels: vec![PanelState::Table { rows }],
            generation_seconds: None,
        }
    }
}

/// The accumulated state of one campaign panel inside a shard — the two
/// shapes the registry's figures reduce to.
#[derive(Debug, Clone, PartialEq)]
pub enum PanelState {
    /// Monte-Carlo catalogue state: per-scheme, per-failure-count CDF
    /// sketches (Fig. 5, Fig. 7, Fig. 8, Fig. 9 and the shift-policy
    /// ablation).
    Catalogue {
        /// Scheme names in catalogue order (validated across shards).
        scheme_names: Vec<String>,
        /// The shard's accumulator for this panel.
        accumulator: CatalogueAccumulator,
    },
    /// A deterministic table with no Monte-Carlo content (Fig. 4, Fig. 6,
    /// overhead ablations, Table 1): every shard computes the same rows and
    /// the merge validates their equality.
    Table {
        /// The rendered series rows.
        rows: JsonValue,
    },
}

impl PanelState {
    /// The serialisation tag of this state's shape.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            PanelState::Catalogue { .. } => "catalogue",
            PanelState::Table { .. } => "table",
        }
    }

    /// Monte-Carlo samples this state has accumulated — `None` for
    /// deterministic tables, which have no sample stream. Campaign drivers
    /// combine this with the shard's wall clock into `samples/s` telemetry.
    #[must_use]
    pub fn samples_recorded(&self) -> Option<usize> {
        match self {
            PanelState::Catalogue { accumulator, .. } => Some(accumulator.samples_recorded()),
            PanelState::Table { .. } => None,
        }
    }

    /// `true` when two states can merge: same shape and same scheme
    /// catalogue (deterministic tables must be equal).
    #[must_use]
    pub fn compatible_with(&self, other: &PanelState) -> bool {
        match (self, other) {
            (
                PanelState::Catalogue { scheme_names, .. },
                PanelState::Catalogue {
                    scheme_names: other_names,
                    ..
                },
            ) => scheme_names == other_names,
            (PanelState::Table { rows }, PanelState::Table { rows: other_rows }) => {
                rows == other_rows
            }
            _ => false,
        }
    }

    /// Absorbs the state of the next shard (in shard order).
    ///
    /// # Errors
    ///
    /// Returns a description of the incompatibility (shape or catalogue
    /// mismatch, or deterministic tables that disagree).
    pub fn merge(&mut self, other: PanelState) -> Result<(), String> {
        if !self.compatible_with(&other) {
            return Err(match (&*self, &other) {
                (PanelState::Table { .. }, PanelState::Table { .. }) => {
                    "deterministic table panels disagree between shards".to_owned()
                }
                (a, b) if a.kind_name() == b.kind_name() => {
                    format!("{} panels disagree on the scheme catalogue", a.kind_name())
                }
                (a, b) => format!(
                    "panel state kinds disagree: '{}' vs '{}'",
                    a.kind_name(),
                    b.kind_name()
                ),
            });
        }
        match (self, other) {
            (
                PanelState::Catalogue { accumulator, .. },
                PanelState::Catalogue {
                    accumulator: other, ..
                },
            ) => {
                accumulator.merge(other);
            }
            // Equal tables: keep the existing copy.
            (PanelState::Table { .. }, PanelState::Table { .. }) => {}
            _ => unreachable!("compatible_with rejects mixed kinds"),
        }
        Ok(())
    }
}

/// Unwraps a catalogue panel (render-side helper).
pub(crate) fn take_catalogue(
    panel: PanelState,
    figure: &str,
) -> Result<(Vec<String>, CatalogueAccumulator), FigureError> {
    match panel {
        PanelState::Catalogue {
            scheme_names,
            accumulator,
        } => Ok((scheme_names, accumulator)),
        other => Err(format!(
            "{figure} expects catalogue panel state, found '{}'",
            other.kind_name()
        )
        .into()),
    }
}

/// Unwraps a deterministic table panel (render-side helper).
pub(crate) fn take_table(panel: PanelState, figure: &str) -> Result<JsonValue, FigureError> {
    match panel {
        PanelState::Table { rows } => Ok(rows),
        other => Err(format!(
            "{figure} expects table panel state, found '{}'",
            other.kind_name()
        )
        .into()),
    }
}

/// Unwraps the single panel of a one-panel figure.
pub(crate) fn single_panel(
    mut panels: Vec<PanelState>,
    figure: &str,
) -> Result<PanelState, FigureError> {
    if panels.len() != 1 {
        return Err(format!("{figure} expects exactly one panel, got {}", panels.len()).into());
    }
    Ok(panels.remove(0))
}

/// The rendered outcome of a figure campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedFigure {
    /// The machine-readable series — the bytes of the binary's historical
    /// `--json` output come from `document.to_pretty_string()`.
    pub document: JsonValue,
    /// The human-readable report the monolithic binary prints to stdout.
    pub report: String,
}

/// One figure of the registry: how to resolve its campaign spec from CLI
/// options, evaluate any shard of it, and render merged state into the
/// exact document the monolithic binary emits.
///
/// Implementations must uphold the registry's invariant: for any shard
/// count K, the [`PanelState`]s of shards `0..K` merged in shard order are
/// bit-identical to the `0/1` shard's state, so [`FigureDef::render`]
/// produces byte-identical documents either way.
pub trait FigureDef: Sync {
    /// Canonical registry name (also the binary's name where one exists).
    fn name(&self) -> &'static str;

    /// Additional accepted lookup names.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description (shown by `campaign_run --figure list`).
    fn description(&self) -> &'static str;

    /// Resolves CLI options into the campaign's identity, applying the
    /// figure's defaults and normalising options the figure ignores.
    fn spec(&self, options: &RunOptions) -> FigureSpec;

    /// Labels of the campaign panels a shard evaluates, in panel order.
    fn panel_labels(&self, spec: &FigureSpec) -> Vec<String>;

    /// Memory words each Monte-Carlo sample evaluates under this spec, for
    /// `words/s` throughput telemetry. `None` (the default) for figures
    /// without a meaningful per-sample word count (deterministic tables).
    fn words_per_sample(&self, spec: &FigureSpec) -> Option<u64> {
        let _ = spec;
        None
    }

    /// Evaluates one shard of every panel, in panel order, with the
    /// shard's generation telemetry (every Monte-Carlo figure reports it).
    ///
    /// # Errors
    ///
    /// Propagates backend-calibration, evaluator-construction and campaign
    /// errors.
    fn run_shard(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        shard: ShardSpec,
    ) -> Result<ShardRun, FigureError>;

    /// Renders merged panel states into the figure's document and report.
    ///
    /// # Errors
    ///
    /// Returns an error when the panel states do not match the spec's
    /// panels, or when reduction fails.
    fn render(
        &self,
        spec: &FigureSpec,
        parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError>;
}

/// Every registered figure, in catalogue order.
#[must_use]
pub fn registry() -> &'static [&'static dyn FigureDef] {
    static REGISTRY: [&dyn FigureDef; 9] = [
        &fig4::Fig4Def,
        &fig5::Fig5Def,
        &fig6::Fig6Def,
        &fig7::Fig7Def,
        &fig8::Fig8Def,
        &fig9::Fig9Def,
        &ablation_lut::AblationLutDef,
        &ablation_shift::AblationShiftDef,
        &table1::Table1Def,
    ];
    &REGISTRY
}

/// Looks a figure up by canonical name or alias (case-insensitive).
///
/// # Errors
///
/// Returns a message listing every registered name.
pub fn find_figure(name: &str) -> Result<&'static dyn FigureDef, String> {
    let wanted = name.to_ascii_lowercase();
    registry()
        .iter()
        .copied()
        .find(|figure| {
            figure.name() == wanted || figure.aliases().iter().any(|alias| *alias == wanted)
        })
        .ok_or_else(|| {
            let known: Vec<&str> = registry().iter().map(|f| f.name()).collect();
            format!(
                "unknown figure '{name}', expected one of: {}",
                known.join(", ")
            )
        })
}

/// Rejects campaign-identity flags (`--image`/`--kind-law`) that the
/// resolved spec does not carry: a figure that normalises the flag away
/// would silently run a different campaign than the one the user asked
/// for — the same policy an unparseable value already gets. Fig. 7's
/// benchmark selectors are identity too, so an unknown one is rejected
/// rather than dropped.
///
/// # Errors
///
/// Returns a message naming the unsupported flag and the figure, or the
/// unknown benchmark selector.
pub fn check_identity_flags(spec: &FigureSpec, options: &RunOptions) -> Result<(), FigureError> {
    if spec.figure == fig7::Fig7Def.name() {
        selected_benchmarks(&options.positional)?;
    }
    if options.image.is_some() && spec.image != options.image {
        return Err(format!(
            "figure '{}' does not support --image (only fig9_data_sensitivity evaluates \
             data images)",
            spec.figure
        )
        .into());
    }
    if options.kind_law.is_some() && spec.kind_law != options.kind_law {
        return Err(format!(
            "figure '{}' does not support --kind-law (fig8_backend_matrix and \
             fig9_data_sensitivity do)",
            spec.figure
        )
        .into());
    }
    if options.kernel.is_some() && spec.kernel != options.kernel {
        return Err(format!(
            "figure '{}' does not support --kernel (the MSE catalogue campaigns \
             fig5_mse_cdf, fig8_backend_matrix and fig9_data_sensitivity do)",
            spec.figure
        )
        .into());
    }
    Ok(())
}

/// The shared main body of every monolithic figure binary: parse the
/// process arguments, run the figure's whole campaign as the `0/1` shard,
/// print the report and write the `--json` document.
///
/// # Errors
///
/// Propagates figure evaluation and I/O errors.
pub fn run_monolithic(name: &str) -> Result<(), FigureError> {
    let options = RunOptions::from_args();
    let figure = find_figure(name)?;
    // A typo in a campaign-identity flag (--backend/--samples/--image/
    // --kind-law/--kernel) must not silently run a different campaign than
    // the one the user asked for, and a removed flag must not be silently
    // ignored.
    if !options.spec_flag_errors.is_empty() {
        return Err(options.spec_flag_errors.join("; ").into());
    }
    let spec = figure.spec(&options);
    check_identity_flags(&spec, &options)?;
    // The metrics recorder is installed only when --metrics asks for a
    // report: panel states never read metrics, so the figure JSON is
    // byte-identical either way, and the default run records nothing.
    let recorder = options
        .metrics_path
        .as_ref()
        .map(|_| std::sync::Arc::new(faultmit_obs::Recorder::new()));
    let guard = recorder.as_ref().map(faultmit_obs::install);
    let started = std::time::Instant::now();
    let run = figure.run_shard(&spec, options.parallelism(), ShardSpec::solo())?;
    let elapsed_seconds = started.elapsed().as_secs_f64();
    drop(guard);
    let mut metrics = recorder.map(|recorder| ShardMetrics {
        elapsed_seconds: Some(elapsed_seconds),
        generation_seconds: run.generation_seconds,
        kernel: spec.kernel.map(|kernel| kernel.as_str().to_owned()),
        auto_threshold: None,
        snapshot: Some(recorder.snapshot()),
    });
    let rendered = render_recorded(
        figure,
        &spec,
        options.parallelism(),
        run.panels,
        metrics.as_mut(),
    )?;
    print!("{}", rendered.report);
    if let Some(generation_seconds) = run.generation_seconds {
        println!("generation time: {generation_seconds:.2} worker-seconds across all workers");
    }
    options.write_json(&rendered.document)?;
    if let Some(metrics) = &metrics {
        options.write_metrics(metrics)?;
    }
    Ok(())
}

/// Renders `panels` through [`FigureDef::render`]. Given `metrics` (a
/// `--metrics` run), a recorder is active during the render, the call is
/// timed as [`faultmit_obs::Stage::Render`], and what the recorder saw is
/// folded into `metrics`' snapshot. The span wraps `render` from outside,
/// so figure definitions carry no instrumentation.
///
/// # Errors
///
/// Propagates [`FigureDef::render`] errors.
pub fn render_recorded(
    figure: &dyn FigureDef,
    spec: &FigureSpec,
    parallelism: Parallelism,
    panels: Vec<PanelState>,
    metrics: Option<&mut ShardMetrics>,
) -> Result<RenderedFigure, FigureError> {
    let Some(metrics) = metrics else {
        return figure.render(spec, parallelism, panels);
    };
    let recorder = std::sync::Arc::new(faultmit_obs::Recorder::new());
    let rendered = {
        let _guard = faultmit_obs::install(&recorder);
        let _span = faultmit_obs::span(faultmit_obs::Stage::Render);
        figure.render(spec, parallelism, panels)?
    };
    metrics
        .snapshot
        .get_or_insert_default()
        .merge(&recorder.snapshot());
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for figure in registry() {
            assert!(seen.insert(figure.name()), "duplicate {}", figure.name());
            assert_eq!(find_figure(figure.name()).unwrap().name(), figure.name());
            for alias in figure.aliases() {
                assert_eq!(find_figure(alias).unwrap().name(), figure.name());
            }
            assert!(!figure.description().is_empty());
        }
        assert_eq!(seen.len(), 9);
        let Err(message) = find_figure("fig99") else {
            panic!("fig99 must not resolve");
        };
        assert!(message.contains("fig5"), "{message}");
    }

    #[test]
    fn aliases_cover_the_binary_names() {
        for name in [
            "fig4_error_magnitude",
            "fig5_mse_cdf",
            "fig6_overhead",
            "fig7_quality",
            "fig8_backend_matrix",
            "fig9_data_sensitivity",
            "ablation_lut_write_path",
            "ablation_shift_policy",
            "table1_applications",
        ] {
            assert!(find_figure(name).is_ok(), "binary name {name} unresolved");
        }
        // Case-insensitive.
        assert_eq!(find_figure("FIG5").unwrap().name(), "fig5");
    }

    #[test]
    fn benchmark_selection_matches_fig7_behaviour() {
        assert_eq!(selected_benchmarks(&[]), Ok(Benchmark::ALL.to_vec()));
        assert_eq!(
            selected_benchmarks(&["knn".to_owned(), "wine".to_owned()]),
            Ok(vec![Benchmark::Knn, Benchmark::Elasticnet])
        );
        let Err(message) = selected_benchmarks(&["knn".to_owned(), "knn_typo".to_owned()]) else {
            panic!("an unknown selector must not resolve");
        };
        assert!(message.contains("'knn_typo'"), "{message}");
        assert!(message.contains("elasticnet|wine, pca|madelon, knn|har|activity"));
    }

    #[test]
    fn unknown_benchmark_selectors_fail_the_fig7_identity_check() {
        let fig7 = find_figure("fig7").unwrap();
        let typo = RunOptions::parse(["knn_typo".to_owned()]);
        let Err(error) = check_identity_flags(&fig7.spec(&typo), &typo) else {
            panic!("fig7 must reject an unknown benchmark selector");
        };
        assert!(error.to_string().contains("knn|har|activity"), "{error}");
        let valid = RunOptions::parse(["har".to_owned()]);
        assert!(check_identity_flags(&fig7.spec(&valid), &valid).is_ok());
        // Figures without benchmark panels ignore positionals, as before.
        let fig5 = find_figure("fig5").unwrap();
        assert!(check_identity_flags(&fig5.spec(&typo), &typo).is_ok());
    }

    #[test]
    fn specs_round_trip_through_json_for_every_figure() {
        let options = RunOptions::parse(
            ["--backend", "dram", "--samples", "7", "pca"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        for figure in registry() {
            let spec = figure.spec(&options);
            assert_eq!(spec.figure, figure.name());
            let parsed = FigureSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec, "{}", figure.name());
            // Panel labels derive deterministically from the spec.
            let labels = figure.panel_labels(&spec);
            assert!(!labels.is_empty(), "{}", figure.name());
            assert_eq!(labels, figure.panel_labels(&spec));
        }
        assert!(FigureSpec::from_json(&JsonValue::Null).is_err());
        // Unregistered figure names are rejected by the loader.
        let mut doc = registry()[0].spec(&RunOptions::default()).to_json();
        if let JsonValue::Object(fields) = &mut doc {
            fields[0].1 = JsonValue::String("fig99".to_owned());
        }
        assert!(FigureSpec::from_json(&doc).is_err());
    }

    #[test]
    fn identity_flags_are_rejected_by_figures_that_ignore_them() {
        let image = RunOptions::parse(["--image", "ones"].iter().map(|s| (*s).to_owned()));
        let law = RunOptions::parse(
            ["--kind-law", "stuck-at:0.9"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        let kernel = RunOptions::parse(["--kernel", "bitsliced"].iter().map(|s| (*s).to_owned()));
        for figure in registry() {
            let supports_image = figure.name() == "fig9";
            let supports_law = matches!(figure.name(), "fig8" | "fig9");
            let supports_kernel = matches!(figure.name(), "fig5" | "fig8" | "fig9");
            let image_check = check_identity_flags(&figure.spec(&image), &image);
            assert_eq!(
                image_check.is_ok(),
                supports_image,
                "{}: --image acceptance",
                figure.name()
            );
            let law_check = check_identity_flags(&figure.spec(&law), &law);
            assert_eq!(
                law_check.is_ok(),
                supports_law,
                "{}: --kind-law acceptance",
                figure.name()
            );
            let kernel_check = check_identity_flags(&figure.spec(&kernel), &kernel);
            assert_eq!(
                kernel_check.is_ok(),
                supports_kernel,
                "{}: --kernel acceptance",
                figure.name()
            );
        }
        // No flags: nothing to reject anywhere.
        let plain = RunOptions::default();
        for figure in registry() {
            assert!(check_identity_flags(&figure.spec(&plain), &plain).is_ok());
        }
    }

    #[test]
    fn panel_states_merge_by_kind_and_reject_mismatches() {
        use faultmit_sim::PairedSample;
        let sample = |index: u64, metrics: &[f64]| PairedSample {
            sample_index: index,
            n_faults: 1,
            weight: 0.5,
            metrics: metrics.to_vec(),
        };

        // Catalogue merging folds accumulators.
        let mut a0 = CatalogueAccumulator::new(1);
        a0.record(&sample(0, &[1.0]));
        let mut a1 = CatalogueAccumulator::new(1);
        a1.record(&sample(1, &[2.0]));
        let mut merged = PanelState::Catalogue {
            scheme_names: vec!["s".into()],
            accumulator: a0,
        };
        merged
            .merge(PanelState::Catalogue {
                scheme_names: vec!["s".into()],
                accumulator: a1,
            })
            .unwrap();
        if let PanelState::Catalogue { accumulator, .. } = &merged {
            assert_eq!(accumulator.samples_recorded(), 2);
        } else {
            unreachable!()
        }
        assert!(merged
            .clone()
            .merge(PanelState::Catalogue {
                scheme_names: vec!["other".into()],
                accumulator: CatalogueAccumulator::new(1),
            })
            .is_err());

        // Tables must agree; kinds must match.
        let table = || PanelState::Table {
            rows: JsonValue::Array(vec![JsonValue::Number(1.0)]),
        };
        let mut t = table();
        t.merge(table()).unwrap();
        assert!(t
            .merge(PanelState::Table {
                rows: JsonValue::Array(vec![]),
            })
            .is_err());
        assert!(t.merge(merged).is_err());
    }
}
