//! The three figure-production workloads.
//!
//! Each one produces a figure document from its spec through the public
//! campaign structs of `faultmit-bench`, with the campaign seed overridden,
//! and renders it with `FigureDef::render` (which never reads the seed).
//! Every call into a layer is timed from outside; nothing inside the program
//! is instrumented beyond the existing `faultmit_obs` stages, which a traced
//! repetition reads by installing a [`Recorder`] around the campaign calls.

use faultmit_analysis::CatalogueAccumulator;
use faultmit_bench::figures::{
    fig5_series, fig9_image_words, find_figure, Fig5Campaign, Fig7Campaign, Fig9Campaign,
    FigureError, FigureSpec, PanelState,
};
use faultmit_bench::json::JsonValue;
use faultmit_bench::metrics::ShardMetrics;
use faultmit_bench::shard::{ShardPanelState, ShardState};
use faultmit_bench::RunOptions;
use faultmit_core::{MitigationScheme, Scheme};
use faultmit_memsim::ImageSpec;
use faultmit_obs::{MetricsSnapshot, Recorder};
use faultmit_sim::{Parallelism, ShardSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shards the `fig9_sharded` workload splits its campaign into.
pub const FIG9_SHARDS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 at paper geometry, monolithic and in-process (sparse kernel).
    Fig5Paper,
    /// The full Fig. 9 matrix under the bit-sliced kernel, as four shards
    /// persisted to shard files, read back, merged and rendered.
    Fig9Sharded,
    /// Fig. 7 application quality at default scale.
    Fig7Quality,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Self; 3] = [Self::Fig5Paper, Self::Fig9Sharded, Self::Fig7Quality];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig5Paper => "fig5_paper",
            Self::Fig9Sharded => "fig9_sharded",
            Self::Fig7Quality => "fig7_quality",
        }
    }

    /// Looks a workload up by its benchmark name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry name of the figure the workload produces.
    pub fn figure(self) -> &'static str {
        match self {
            Self::Fig5Paper => "fig5",
            Self::Fig9Sharded => "fig9",
            Self::Fig7Quality => "fig7",
        }
    }

    /// The figure's protocol seed. The pinned-digest check fails if this
    /// drifts from the seed the monolithic binary bakes in.
    pub fn protocol_seed(self) -> u64 {
        match self {
            Self::Fig5Paper => 0xF165,
            Self::Fig9Sharded => 0xF169,
            Self::Fig7Quality => 0xF167,
        }
    }

    /// The figure-binary flags that define the workload's campaign. At the
    /// protocol seed the rendered document is byte-identical to what the
    /// monolithic binary writes with `--json` under these flags. `smoke`
    /// selects tiny budgets for the self-test.
    pub fn flags(self, smoke: bool) -> &'static [&'static str] {
        match (self, smoke) {
            (Self::Fig5Paper, false) => &["--full", "--samples", "25"],
            (Self::Fig5Paper, true) => &["--full", "--samples", "2"],
            (Self::Fig9Sharded, false) => &["--full", "--kernel", "bitsliced", "--samples", "60"],
            (Self::Fig9Sharded, true) => &["--full", "--kernel", "bitsliced", "--samples", "2"],
            (Self::Fig7Quality, false) => &["--samples", "5"],
            (Self::Fig7Quality, true) => &["--samples", "1"],
        }
    }

    /// Panels times schemes: the number of series (Fig. 5, Fig. 7) or rows
    /// (Fig. 9) the rendered document must hold.
    fn document_entries(self) -> usize {
        match self {
            Self::Fig5Paper => 7,
            Self::Fig9Sharded => 30 * 8,
            Self::Fig7Quality => 3 * 5,
        }
    }
}

/// Time and size of one figure production, layer by layer. Every `f64` is
/// wall-clock seconds measured around calls into one layer.
#[derive(Debug, Default)]
pub struct Rep {
    /// Spec resolution, backend calibration, evaluator and dataset build,
    /// image materialisation.
    pub setup: f64,
    /// The campaign calls (all shards).
    pub campaign: f64,
    /// `ShardState::to_json` + `to_pretty_string`.
    pub encode: f64,
    /// Shard file writes.
    pub write: f64,
    /// Shard file reads.
    pub read: f64,
    /// `ShardState::parse` + `into_panels`.
    pub parse: f64,
    /// `PanelState::merge` in shard order.
    pub merge: f64,
    /// `FigureDef::render`.
    pub render: f64,
    /// `JsonValue::to_pretty_string` of the figure document.
    pub emit: f64,
    /// Spec to rendered figure bytes.
    pub wall: f64,
    /// Bytes of shard-file JSON written.
    pub shard_bytes: usize,
    /// Monte-Carlo samples the rendered panels recorded.
    pub samples: usize,
    /// Samples the campaign plan schedules.
    pub planned: usize,
    /// The rendered figure document.
    pub document: String,
    /// What the campaign stages recorded (traced repetitions only).
    pub snapshot: Option<MetricsSnapshot>,
    /// The render's analysis calls, replayed after the wall clock stopped
    /// (traced repetitions of the MSE workloads only).
    pub analysis: Option<AnalysisSplit>,
}

impl Rep {
    /// Sum of the outside-timed wall-clock layers.
    pub fn covered(&self) -> f64 {
        self.setup
            + self.campaign
            + self.encode
            + self.write
            + self.read
            + self.parse
            + self.merge
            + self.render
            + self.emit
    }
}

/// The `analysis` share of a render: reducing state to per-scheme results,
/// and the yield queries the render makes on them.
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalysisSplit {
    /// `MonteCarloEngine::results_from_state`.
    pub results_seconds: f64,
    /// `SchemeMseResult::mse_for_yield` and `yield_at_mse` calls, and on
    /// Fig. 5 the series build.
    pub yield_seconds: f64,
}

/// A workload's materialised inputs: what setup builds from the spec.
enum Prepared {
    Fig5 {
        spec: FigureSpec,
        campaign: Fig5Campaign,
    },
    Fig9 {
        spec: FigureSpec,
        cells: Vec<Fig9Campaign>,
        images: Vec<(ImageSpec, Option<Vec<u64>>)>,
        labels: Vec<String>,
    },
    Fig7 {
        spec: FigureSpec,
        campaign: Fig7Campaign,
    },
}

/// Runs one workload at a fixed worker count.
pub struct Runner {
    workload: Workload,
    parallelism: Parallelism,
    smoke: bool,
    shard_dir: PathBuf,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *slot += start.elapsed().as_secs_f64();
    value
}

fn scheme_names(schemes: &[Scheme]) -> Vec<String> {
    schemes.iter().map(MitigationScheme::name).collect()
}

/// The Fig. 9 scheme catalogue (`Fig9Campaign::run_shard` uses the same
/// one; the pinned-digest check fails if they drift apart).
fn fig9_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::fig5_catalogue();
    schemes.push(Scheme::secded32());
    schemes
}

fn catalogue(scheme_names: &[String], accumulator: CatalogueAccumulator) -> PanelState {
    PanelState::Catalogue {
        scheme_names: scheme_names.to_vec(),
        accumulator,
    }
}

fn catalogue_states(panels: &[PanelState]) -> Vec<CatalogueAccumulator> {
    panels
        .iter()
        .filter_map(|panel| match panel {
            PanelState::Catalogue { accumulator, .. } => Some(accumulator.clone()),
            _ => None,
        })
        .collect()
}

impl Runner {
    /// A runner for `workload` with `workers` pipeline workers, writing its
    /// shard files under `shard_dir`.
    pub fn new(workload: Workload, workers: usize, smoke: bool, shard_dir: PathBuf) -> Self {
        Self {
            workload,
            parallelism: Parallelism::threads(workers),
            smoke,
            shard_dir,
        }
    }

    fn setup(&self, seed: u64) -> Result<Prepared, FigureError> {
        let options = RunOptions::parse(
            self.workload
                .flags(self.smoke)
                .iter()
                .map(|flag| (*flag).to_owned()),
        );
        let figure = find_figure(self.workload.figure())?;
        let spec = figure.spec(&options);
        Ok(match self.workload {
            Workload::Fig5Paper => {
                let mut campaign = Fig5Campaign::from_spec(&spec, self.parallelism)?;
                campaign.seed = seed;
                Prepared::Fig5 { spec, campaign }
            }
            Workload::Fig9Sharded => {
                let cells = Fig9Campaign::matrix(&spec, self.parallelism)?;
                // One materialisation per distinct image, shared across the
                // backend and law axes of the matrix and across the shards.
                let mut images: Vec<(ImageSpec, Option<Vec<u64>>)> = Vec::new();
                for cell in &cells {
                    if !images.iter().any(|(image, _)| *image == cell.image) {
                        images.push((cell.image, fig9_image_words(cell.image)?));
                    }
                }
                Prepared::Fig9 {
                    labels: figure.panel_labels(&spec),
                    spec,
                    cells,
                    images,
                }
            }
            Workload::Fig7Quality => {
                let mut campaign = Fig7Campaign::from_spec(&spec, self.parallelism)?;
                campaign.seed = seed;
                Prepared::Fig7 { spec, campaign }
            }
        })
    }

    /// Mean seconds of one setup, over back-to-back setups that together
    /// take at least `batch` seconds (a single setup can take microseconds).
    ///
    /// # Errors
    ///
    /// Propagates setup errors.
    pub fn setup_seconds(&self, batch: f64) -> Result<f64, FigureError> {
        let mut seconds = 0.0;
        let mut count = 0u32;
        while count == 0 || seconds < batch {
            let prepared = timed(&mut seconds, || self.setup(0))?;
            drop(black_box(prepared));
            count += 1;
        }
        Ok(seconds / f64::from(count))
    }

    /// Produces the figure once at campaign seed `seed`. A traced
    /// repetition records the campaign stages and replays the render's
    /// analysis calls after the wall clock stops.
    ///
    /// # Errors
    ///
    /// Propagates errors from every layer.
    pub fn run(&self, seed: u64, traced: bool) -> Result<Rep, FigureError> {
        let mut rep = Rep::default();
        let start = Instant::now();
        let prepared = timed(&mut rep.setup, || self.setup(seed))?;
        let recorder = traced.then(|| Arc::new(Recorder::new()));
        // Seconds inside the wall-clock interval that belong to the trace
        // alone (cloning state for the analysis replay).
        let mut excluded = 0.0;
        let (spec, panels) = match &prepared {
            Prepared::Fig5 { spec, campaign } => {
                let guard = recorder.as_ref().map(faultmit_obs::install);
                let (accumulator, _) = timed(&mut rep.campaign, || {
                    campaign.run_shard_stats(ShardSpec::solo())
                })?;
                drop(guard);
                rep.planned = spec.samples_per_count
                    * usize::try_from(campaign.engine.config().effective_max_failures()?)?;
                (
                    spec,
                    vec![catalogue(&scheme_names(&campaign.schemes), accumulator)],
                )
            }
            Prepared::Fig9 {
                spec,
                cells,
                images,
                labels,
            } => {
                let panels =
                    self.fig9_persisted(&mut rep, spec, cells, images, labels, seed, &recorder)?;
                for cell in cells {
                    rep.planned += spec.samples_per_count
                        * usize::try_from(cell.engine.config().effective_max_failures()?)?;
                }
                (spec, panels)
            }
            Prepared::Fig7 { spec, campaign } => {
                let guard = recorder.as_ref().map(faultmit_obs::install);
                let accumulators =
                    timed(&mut rep.campaign, || campaign.run_shard(ShardSpec::solo()))?;
                drop(guard);
                rep.planned = spec.samples_per_count
                    * usize::try_from(campaign.max_failures)?
                    * accumulators.len();
                let names = scheme_names(&campaign.schemes);
                (
                    spec,
                    accumulators
                        .into_iter()
                        .map(|accumulator| catalogue(&names, accumulator))
                        .collect(),
                )
            }
        };
        rep.samples = panels.iter().filter_map(PanelState::samples_recorded).sum();
        let replay = (traced && self.workload != Workload::Fig7Quality)
            .then(|| timed(&mut excluded, || catalogue_states(&panels)));

        let figure = find_figure(&spec.figure)?;
        let rendered = timed(&mut rep.render, || {
            figure.render(spec, self.parallelism, panels)
        })?;
        rep.document = timed(&mut rep.emit, || rendered.document.to_pretty_string());
        rep.wall = start.elapsed().as_secs_f64() - excluded;

        rep.snapshot = recorder.map(|recorder| recorder.snapshot());
        if let Some(states) = replay {
            rep.analysis = Some(analysis_replay(&prepared, states)?);
        }
        Ok(rep)
    }

    /// Evaluates the Fig. 9 matrix as [`FIG9_SHARDS`] shards one after
    /// another, persisting each to a shard file, then reads every file back,
    /// parses it and merges the panels in shard order.
    #[allow(clippy::too_many_arguments)]
    fn fig9_persisted(
        &self,
        rep: &mut Rep,
        spec: &FigureSpec,
        cells: &[Fig9Campaign],
        images: &[(ImageSpec, Option<Vec<u64>>)],
        labels: &[String],
        seed: u64,
        recorder: &Option<Arc<Recorder>>,
    ) -> Result<Vec<PanelState>, FigureError> {
        let schemes = fig9_schemes();
        let names = scheme_names(&schemes);
        std::fs::create_dir_all(&self.shard_dir)?;
        let mut files = Vec::new();
        for shard in ShardSpec::all(FIG9_SHARDS) {
            let guard = recorder.as_ref().map(faultmit_obs::install);
            let started = Instant::now();
            let mut generation_seconds = 0.0;
            let mut panels = Vec::with_capacity(cells.len());
            for (cell, label) in cells.iter().zip(labels) {
                let data = images
                    .iter()
                    .find(|(image, _)| *image == cell.image)
                    .and_then(|(_, words)| words.as_deref());
                let (accumulator, stats) = cell
                    .engine
                    .run_catalogue_shard_on_image_stats(&schemes, seed, shard, data)?;
                generation_seconds += stats.generation_seconds;
                panels.push(ShardPanelState {
                    label: label.clone(),
                    state: catalogue(&names, accumulator),
                });
            }
            let elapsed_seconds = started.elapsed().as_secs_f64();
            rep.campaign += elapsed_seconds;
            drop(guard);

            let state = ShardState {
                spec: spec.clone(),
                shard,
                panels,
                metrics: ShardMetrics {
                    elapsed_seconds: Some(elapsed_seconds),
                    generation_seconds: Some(generation_seconds),
                    kernel: Some(spec.kernel_kind().as_str().to_owned()),
                    auto_threshold: None,
                    snapshot: None,
                },
            };
            let text = timed(&mut rep.encode, || state.to_json().to_pretty_string());
            drop(state);
            let path = self.shard_dir.join(format!(
                "shard-{}-of-{FIG9_SHARDS}.json",
                shard.shard_index()
            ));
            timed(&mut rep.write, || std::fs::write(&path, &text))?;
            rep.shard_bytes += text.len();
            files.push((shard, path));
        }

        let mut merged: Option<Vec<PanelState>> = None;
        for (shard, path) in files {
            let text = timed(&mut rep.read, || std::fs::read_to_string(&path))?;
            let panels = timed(&mut rep.parse, || -> Result<_, FigureError> {
                let state = ShardState::parse(&text)?;
                if !state.matches(spec, shard) {
                    return Err(format!("{} holds a foreign shard", path.display()).into());
                }
                Ok(state.into_panels(labels)?)
            })?;
            timed(&mut rep.merge, || -> Result<(), FigureError> {
                match &mut merged {
                    None => merged = Some(panels),
                    Some(into) => {
                        for (into, from) in into.iter_mut().zip(panels) {
                            into.merge(from)?;
                        }
                    }
                }
                Ok(())
            })?;
        }
        merged.ok_or_else(|| "no shards were evaluated".into())
    }
}

/// Replays the analysis calls `FigureDef::render` makes on MSE catalogue
/// state: reduction to per-scheme results, then the yield queries on them.
/// The Fig. 5 document part is the program's own `fig5_series` (which also
/// builds the CDF grid). The Fig. 5 report table and headline, and the
/// Fig. 9 rows, have no public entry point, so their queries are a copy of
/// the render's pattern and must change when the render does.
fn analysis_replay(
    prepared: &Prepared,
    states: Vec<CatalogueAccumulator>,
) -> Result<AnalysisSplit, FigureError> {
    let mut split = AnalysisSplit::default();
    match prepared {
        Prepared::Fig5 { campaign, .. } => {
            for state in states {
                let results = timed(&mut split.results_seconds, || campaign.results(state))?;
                timed(&mut split.yield_seconds, || {
                    for result in &results {
                        for target in [0.99, 0.9999, 0.999_999] {
                            black_box(result.mse_for_yield(target));
                        }
                        black_box(result.yield_at_mse(1e6));
                        black_box(result.yield_at_mse(1e6));
                    }
                    for name in ["no-correction", "bit-shuffle nFM=1"] {
                        let headline = results.iter().find(|r| r.scheme_name == name);
                        black_box(headline.map(|r| r.mse_for_yield(0.99)));
                    }
                    black_box(fig5_series(&results));
                });
            }
        }
        Prepared::Fig9 { cells, .. } => {
            for (cell, state) in cells.iter().zip(states) {
                let results = timed(&mut split.results_seconds, || cell.results(state))?;
                timed(&mut split.yield_seconds, || {
                    for result in &results {
                        black_box(result.mse_for_yield(0.99));
                        black_box(result.yield_at_mse(1e6));
                    }
                });
            }
        }
        Prepared::Fig7 { .. } => {}
    }
    Ok(split)
}

fn probability(value: Option<&JsonValue>, what: &str) -> Result<f64, String> {
    let p = value
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what} is missing"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{what} = {p} lies outside [0, 1]"))
    }
}

fn check_cdf(cdf: Option<&JsonValue>, what: &str) -> Result<(), String> {
    let points = cdf
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{what} has no cdf"))?;
    if points.is_empty() {
        return Err(format!("{what} has an empty cdf"));
    }
    let mut last = (f64::NEG_INFINITY, 0.0);
    for point in points {
        let pair = point.as_array().unwrap_or_default();
        let x = pair
            .first()
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{what} has a malformed cdf point"))?;
        let p = probability(pair.get(1), what)?;
        if x < last.0 || p < last.1 {
            return Err(format!("{what} cdf is not monotone at ({x}, {p})"));
        }
        last = (x, p);
    }
    Ok(())
}

/// Checks the invariants a rendered document of `workload` holds at any
/// seed: the expected number of series, CDFs monotone within [0, 1], and
/// yields within [0, 1].
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_document(workload: Workload, document: &str) -> Result<(), String> {
    let parsed = JsonValue::parse(document).map_err(|e| format!("document does not parse: {e}"))?;
    let entries = parsed.as_array().ok_or("document is not an array")?;
    if entries.len() != workload.document_entries() {
        return Err(format!(
            "document holds {} entries, expected {}",
            entries.len(),
            workload.document_entries()
        ));
    }
    for (index, entry) in entries.iter().enumerate() {
        let what = format!("entry {index}");
        match workload {
            Workload::Fig5Paper => {
                check_cdf(entry.get("cdf"), &what)?;
                probability(entry.get("yield_at_mse_1e6"), &what)?;
            }
            Workload::Fig7Quality => {
                check_cdf(entry.get("cdf"), &what)?;
                let at_95 = probability(entry.get("yield_at_95pct"), &what)?;
                let at_99 = probability(entry.get("yield_at_99pct"), &what)?;
                if at_99 > at_95 {
                    return Err(format!("{what}: yield at 99 % exceeds yield at 95 %"));
                }
            }
            Workload::Fig9Sharded => {
                probability(entry.get("yield_at_mse_1e6"), &what)?;
                let mean = entry.get("mean_mse").and_then(JsonValue::as_f64);
                if !mean.is_some_and(|m| m >= 0.0) {
                    return Err(format!("{what}: mean_mse is missing or negative"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_document(cdf: &str) -> String {
        let series = format!(r#"{{"cdf": {cdf}, "yield_at_mse_1e6": 0.5}}"#);
        format!("[{}]", vec![series; 7].join(","))
    }

    #[test]
    fn monotone_cdfs_pass_and_broken_ones_fail() {
        assert!(
            check_document(Workload::Fig5Paper, &fig5_document("[[1, 0.2], [2, 0.9]]")).is_ok()
        );
        for broken in [
            "[[1, 0.9], [2, 0.2]]",
            "[[2, 0.2], [1, 0.9]]",
            "[[1, 1.5]]",
            "[]",
        ] {
            assert!(
                check_document(Workload::Fig5Paper, &fig5_document(broken)).is_err(),
                "{broken}"
            );
        }
        assert!(check_document(Workload::Fig7Quality, &fig5_document("[[1, 0.2]]")).is_err());
        assert!(check_document(Workload::Fig9Sharded, "[]").is_err());
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("fig5"), None);
    }
}
