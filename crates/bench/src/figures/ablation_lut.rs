//! Ablation — FM-LUT realisation and the bit-shuffling write path
//! (deterministic cost model; the redundancy context table is a seeded,
//! deterministic die population).

use super::{
    single_panel, take_table, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure,
    ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::Table;
use faultmit_hwmodel::{LutImplementation, OverheadModel, ProtectionBlock};
use faultmit_memsim::{repair_yield, DieSampler, MemoryConfig, StreamSeeder};
use faultmit_sim::{Parallelism, ShardSpec};
use std::fmt::Write as _;

#[derive(Debug)]
struct WritePathRow {
    scheme: String,
    lut: String,
    energy_fj: f64,
    delay_ps: f64,
}

impl ToJson for WritePathRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("scheme", self.scheme.to_json()),
            ("lut", self.lut.to_json()),
            ("energy_fj", self.energy_fj.to_json()),
            ("delay_ps", self.delay_ps.to_json()),
        ])
    }
}

fn compute_series(model: &OverheadModel) -> Vec<WritePathRow> {
    let luts = [
        LutImplementation::ArrayColumns,
        LutImplementation::RegisterFile,
        LutImplementation::Cam { entries: 64 },
    ];
    let blocks = [
        ProtectionBlock::Secded,
        ProtectionBlock::PriorityEcc,
        ProtectionBlock::BitShuffle { n_fm: 1 },
        ProtectionBlock::BitShuffle { n_fm: 5 },
    ];
    let mut series = Vec::new();
    for block in blocks {
        for lut in luts {
            // The LUT choice only matters for bit-shuffling; emit ECC rows
            // once with a dash.
            let is_shuffle = matches!(block, ProtectionBlock::BitShuffle { .. });
            if !is_shuffle && lut != LutImplementation::ArrayColumns {
                continue;
            }
            let cost = model.write_path_cost(block, lut);
            let lut_label = if is_shuffle {
                lut.label()
            } else {
                "-".to_owned()
            };
            series.push(WritePathRow {
                scheme: block.label(),
                lut: lut_label,
                energy_fj: cost.energy_fj,
                delay_ps: cost.delay_ps,
            });
        }
    }
    series
}

/// The registered write-path / FM-LUT ablation.
pub struct AblationLutDef;

impl FigureDef for AblationLutDef {
    fn name(&self) -> &'static str {
        "ablation_lut_write_path"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["ablation_lut", "lut_write_path"]
    }

    fn description(&self) -> &'static str {
        "write-path cost per scheme and FM-LUT realisation (deterministic)"
    }

    fn spec(&self, _options: &RunOptions) -> FigureSpec {
        FigureSpec {
            figure: self.name().to_owned(),
            backend: None,
            full_scale: false,
            samples_per_count: 1,
            benchmarks: Vec::new(),
            image: None,
            kind_law: None,
            kernel: None,
        }
    }

    fn panel_labels(&self, _spec: &FigureSpec) -> Vec<String> {
        vec!["write_path".to_owned()]
    }

    fn words_per_sample(&self, _spec: &FigureSpec) -> Option<u64> {
        Some(1024)
    }

    fn run_shard(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        _shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        let model = OverheadModel::paper_16kb();
        Ok(ShardRun::table(compute_series(&model).to_json()))
    }

    fn render(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let rows = take_table(single_panel(panels, self.name())?, self.name())?;
        let model = OverheadModel::paper_16kb();
        let series = compute_series(&model);
        if rows != series.to_json() {
            return Err(format!(
                "{} shard state does not match the deterministic series",
                self.name()
            )
            .into());
        }

        let mut table = Table::new(
            "Ablation — write-path cost per scheme and FM-LUT realisation (16KB memory)",
            vec![
                "scheme".into(),
                "LUT realisation".into(),
                "write energy (fJ)".into(),
                "write delay (ps)".into(),
            ],
        );
        for row in &series {
            table.add_row(vec![
                row.scheme.clone(),
                row.lut.clone(),
                format!("{:.1}", row.energy_fj),
                format!("{:.1}", row.delay_ps),
            ]);
        }

        let mut report = String::new();
        writeln!(report, "{table}")?;

        // Context: the redundancy baseline's spare-row demand at the same
        // fault densities where bit-shuffling still delivers bounded errors.
        let mut redundancy = Table::new(
            "Context — spare rows needed by classical row redundancy (95% repair yield, 1024-row bank)",
            vec!["P_cell".into(), "spare rows for 95% yield".into()],
        );
        let config = MemoryConfig::new(1024, 32)?;
        for &p_cell in &[1e-5, 1e-4, 1e-3, 5e-3] {
            let sampler = DieSampler::new(config, p_cell)?;
            // Pipeline-style sampling: each die owns an index-derived RNG
            // stream, so the population is independent of iteration order.
            let seeder = StreamSeeder::new(0x5BA9);
            let dies = (0..200)
                .map(|i| sampler.sample_die(&mut seeder.rng_for_sample(i)))
                .collect::<Result<Vec<_>, _>>()?;
            let spares = (0..=1024)
                .find(|&s| repair_yield(&dies, s) >= 0.95)
                .unwrap_or(1024);
            redundancy.add_row(vec![format!("{p_cell:.0e}"), spares.to_string()]);
        }
        writeln!(report, "{redundancy}")?;
        writeln!(
            report,
            "Row redundancy must provision one spare per faulty row, so its cost explodes with P_cell; \
bit-shuffling keeps a constant nFM-column overhead regardless of the fault count."
        )?;

        Ok(RenderedFigure {
            document: rows,
            report,
        })
    }
}
