//! Ablation — FM-LUT shift-selection policy for rows with multiple faults,
//! as a paired catalogue campaign: both policies score the same dies.

use super::{
    take_catalogue, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure, ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::{format_sci, Table};
use faultmit_analysis::MonteCarloEngine;
use faultmit_core::{
    rotate_left, rotate_right, MitigationScheme, ObservedWord, Scheme, SegmentGeometry,
};
use faultmit_memsim::{corrupt_word, Backend, Fault, MemoryConfig};
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

/// Bit-shuffling with the naive multi-fault policy: align the least
/// significant segment to the most significant faulty cell. It has no
/// single-fault table, so the catalogue walk scores each of its rows through
/// its row evaluator.
#[derive(Debug, Clone, Copy)]
struct NaiveShuffle(SegmentGeometry);

impl MitigationScheme for NaiveShuffle {
    fn name(&self) -> String {
        format!("naive bit-shuffle nFM={}", self.0.n_fm())
    }

    fn word_bits(&self) -> usize {
        self.0.word_bits()
    }

    fn observe_sparse(&self, row_faults: &[Fault], written: u64) -> ObservedWord {
        // The slice is sorted by column, so the MSB fault is the last one.
        let Some(msb_fault) = row_faults.last() else {
            return ObservedWord::intact(written);
        };
        let x_fm = self.0.segment_of_bit(msb_fault.col);
        let shift = self
            .0
            .shift_amount(x_fm)
            .expect("segment index is in range");
        let mut stored = rotate_right(written, shift, self.0.word_bits());
        for fault in row_faults {
            stored = corrupt_word(stored, fault.col, fault.kind);
        }
        ObservedWord {
            value: rotate_left(stored, shift, self.0.word_bits()),
            reliable: true,
        }
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
                // Paired catalogue walk: both policies score identical dies.
                let naive = NaiveShuffle(geometry);
                let optimal = Scheme::BitShuffle(geometry);
                let schemes: [&(dyn MitigationScheme + Sync); 2] = [&naive, &optimal];
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

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{FaultKind, FaultMap};

    /// The naive policy's dense evaluator from before it moved to the row
    /// path: the row's columns read from the map, each fault looked up.
    fn dense_naive(
        geometry: SegmentGeometry,
        faults: &FaultMap,
        row: usize,
        written: u64,
    ) -> ObservedWord {
        let columns = faults.faulty_columns(row);
        let Some(&msb_fault) = columns.last() else {
            return ObservedWord::intact(written);
        };
        let x_fm = geometry.segment_of_bit(msb_fault);
        let shift = geometry
            .shift_amount(x_fm)
            .expect("segment index is in range");
        let mut stored = rotate_right(written, shift, geometry.word_bits());
        for col in columns {
            if let Some(kind) = faults.fault_at(row, col) {
                stored = corrupt_word(stored, col, kind);
            }
        }
        ObservedWord {
            value: rotate_left(stored, shift, geometry.word_bits()),
            reliable: true,
        }
    }

    #[test]
    fn naive_row_evaluator_matches_the_dense_reference() {
        // Every sweep point's n_FM, on the empty row, every lone fault of
        // every kind and random rows of 2..=32 faults of mixed kinds.
        let config = MemoryConfig::new(4, 32).unwrap();
        let mut state = 0x0A1B_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut rows: Vec<Vec<Fault>> = vec![Vec::new()];
        for col in 0..32 {
            rows.extend(FaultKind::ALL.map(|kind| vec![Fault::new(1, col, kind)]));
        }
        for count in 2..=32usize {
            for _ in 0..6 {
                let mut cols: Vec<usize> = (0..32).collect();
                for i in 0..count {
                    cols.swap(i, i + next() as usize % (32 - i));
                }
                rows.push(
                    cols[..count]
                        .iter()
                        .map(|&col| Fault::new(1, col, FaultKind::ALL[next() as usize % 3]))
                        .collect(),
                );
            }
        }
        for n_fm in [1usize, 2, 3, 5] {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let naive = NaiveShuffle(geometry);
            for faults in &rows {
                let map = FaultMap::from_faults(config, faults.iter().copied()).unwrap();
                let mut words = vec![0, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001];
                words.extend((0..4).map(|_| next() & 0xFFFF_FFFF));
                for written in words {
                    assert_eq!(
                        naive.observe_sparse(map.row_faults(1), written),
                        dense_naive(geometry, &map, 1, written),
                        "nFM {n_fm} written {written:#x} faults {faults:?}"
                    );
                }
            }
        }
    }
}
