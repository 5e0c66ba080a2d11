//! Fig. 6 — read power, read delay and area overhead relative to the
//! H(39,32) SECDED baseline (deterministic analytical 28 nm cost model).

use super::{
    single_panel, take_table, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure,
    ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::Table;
use faultmit_hwmodel::{OverheadModel, ProtectionBlock};
use faultmit_sim::{Parallelism, ShardSpec};
use std::fmt::Write as _;

#[derive(Debug)]
struct Fig6Entry {
    scheme: String,
    relative_read_power: f64,
    relative_read_delay: f64,
    relative_area: f64,
    absolute_energy_fj: f64,
    absolute_delay_ps: f64,
    absolute_area_um2: f64,
}

impl ToJson for Fig6Entry {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("scheme", self.scheme.to_json()),
            ("relative_read_power", self.relative_read_power.to_json()),
            ("relative_read_delay", self.relative_read_delay.to_json()),
            ("relative_area", self.relative_area.to_json()),
            ("absolute_energy_fj", self.absolute_energy_fj.to_json()),
            ("absolute_delay_ps", self.absolute_delay_ps.to_json()),
            ("absolute_area_um2", self.absolute_area_um2.to_json()),
        ])
    }
}

fn compute_entries(model: &OverheadModel) -> Vec<Fig6Entry> {
    model
        .fig6_comparison()
        .iter()
        .map(|row| Fig6Entry {
            scheme: row.label.clone(),
            relative_read_power: row.relative.energy,
            relative_read_delay: row.relative.delay,
            relative_area: row.relative.area,
            absolute_energy_fj: row.cost.energy_fj,
            absolute_delay_ps: row.cost.delay_ps,
            absolute_area_um2: row.cost.area_um2,
        })
        .collect()
}

/// The registered Fig. 6 figure.
pub struct Fig6Def;

impl FigureDef for Fig6Def {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig6_overhead"]
    }

    fn description(&self) -> &'static str {
        "read power/delay/area overhead vs SECDED (deterministic cost model)"
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
        vec!["fig6".to_owned()]
    }

    fn run_shard(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        _shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        let model = OverheadModel::paper_16kb();
        Ok(ShardRun::table(compute_entries(&model).to_json()))
    }

    fn render(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let rows = take_table(single_panel(panels, "fig6")?, "fig6")?;
        let model = OverheadModel::paper_16kb();
        let entries = compute_entries(&model);
        if rows != entries.to_json() {
            return Err("fig6 shard state does not match the deterministic series".into());
        }

        let mut table = Table::new(
            "Fig. 6 — overhead relative to H(39,32) SECDED (analytical 28nm model, 16KB memory)",
            vec![
                "scheme".into(),
                "read power".into(),
                "read delay".into(),
                "area".into(),
            ],
        );
        for entry in &entries {
            table.add_row(vec![
                entry.scheme.clone(),
                format!("{:.2}", entry.relative_read_power),
                format!("{:.2}", entry.relative_read_delay),
                format!("{:.2}", entry.relative_area),
            ]);
        }

        let mut report = String::new();
        writeln!(report, "{table}")?;

        let savings = model.best_shuffle_savings();
        writeln!(
            report,
            "best bit-shuffling savings vs SECDED: {:.0}% read power, {:.0}% read delay, {:.0}% area",
            savings.energy * 100.0,
            savings.delay * 100.0,
            savings.area * 100.0
        )?;
        writeln!(
            report,
            "paper reports up to 83% read power, 77% read delay and 89% area savings"
        )?;

        let pecc = model.read_path_cost(ProtectionBlock::PriorityEcc);
        let shuffle1 = model.read_path_cost(ProtectionBlock::BitShuffle { n_fm: 1 });
        writeln!(
            report,
            "bit-shuffle nFM=1 vs P-ECC: {:.0}% read power, {:.0}% read delay, {:.0}% area reduction (paper: up to 59% / 64% / 57%)",
            (1.0 - shuffle1.energy_fj / pecc.energy_fj) * 100.0,
            (1.0 - shuffle1.delay_ps / pecc.delay_ps) * 100.0,
            (1.0 - shuffle1.area_um2 / pecc.area_um2) * 100.0,
        )?;

        Ok(RenderedFigure {
            document: rows,
            report,
        })
    }
}
