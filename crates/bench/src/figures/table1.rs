//! Table 1 — evaluation applications, datasets and quality metrics with
//! the measured fault-free quality of each benchmark (deterministic given
//! the sample budget).

use super::{
    single_panel, take_table, FigureDef, FigureError, FigureSpec, PanelState, RenderedFigure,
    ShardRun,
};
use crate::cli::RunOptions;
use crate::json::{JsonValue, ToJson};
use faultmit_analysis::report::Table;
use faultmit_apps::{Benchmark, QualityEvaluator};
use faultmit_sim::{Parallelism, ShardSpec};
use std::fmt::Write as _;

#[derive(Debug)]
struct Table1Row {
    class: String,
    algorithm: String,
    dataset: String,
    metric: String,
    fault_free_quality: f64,
}

impl ToJson for Table1Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("class", self.class.to_json()),
            ("algorithm", self.algorithm.to_json()),
            ("dataset", self.dataset.to_json()),
            ("metric", self.metric.to_json()),
            ("fault_free_quality", self.fault_free_quality.to_json()),
        ])
    }
}

fn class_of(benchmark: Benchmark) -> &'static str {
    match benchmark {
        Benchmark::Elasticnet => "Regression",
        Benchmark::Pca => "Dimensionality Reduction",
        Benchmark::Knn => "Classification",
    }
}

fn compute_rows(spec: &FigureSpec) -> Result<Vec<Table1Row>, FigureError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let evaluator = QualityEvaluator::builder(benchmark)
            .samples(spec.samples_per_count)
            .memory_rows(1024)
            .build()?;
        let baseline = evaluator.baseline_quality()?;
        rows.push(Table1Row {
            class: class_of(benchmark).to_owned(),
            algorithm: benchmark.name().to_owned(),
            dataset: benchmark.dataset_name().to_owned(),
            metric: benchmark.metric_name().to_owned(),
            fault_free_quality: baseline,
        });
    }
    Ok(rows)
}

/// The registered Table 1 figure.
pub struct Table1Def;

impl FigureDef for Table1Def {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["table1_applications"]
    }

    fn description(&self) -> &'static str {
        "benchmark catalogue with measured fault-free quality (deterministic)"
    }

    fn spec(&self, options: &RunOptions) -> FigureSpec {
        let default_samples = if options.full_scale { 1280 } else { 320 };
        FigureSpec {
            figure: self.name().to_owned(),
            backend: None,
            full_scale: options.full_scale,
            samples_per_count: options.samples_or(default_samples),
            benchmarks: Vec::new(),
            image: None,
            kind_law: None,
            kernel: None,
        }
    }

    fn panel_labels(&self, _spec: &FigureSpec) -> Vec<String> {
        vec!["table1".to_owned()]
    }

    fn run_shard(
        &self,
        spec: &FigureSpec,
        _parallelism: Parallelism,
        _shard: ShardSpec,
    ) -> Result<ShardRun, FigureError> {
        Ok(ShardRun::table(compute_rows(spec)?.to_json()))
    }

    fn render(
        &self,
        _spec: &FigureSpec,
        _parallelism: Parallelism,
        panels: Vec<PanelState>,
    ) -> Result<RenderedFigure, FigureError> {
        let rows = take_table(single_panel(panels, "table1")?, "table1")?;

        // The baseline evaluation is the whole cost of this figure, so the
        // report is rebuilt from the panel's rows instead of recomputing.
        let mut table = Table::new(
            "Table 1 — evaluation applications and datasets",
            vec![
                "class".into(),
                "algorithm".into(),
                "dataset".into(),
                "metric".into(),
                "fault-free quality".into(),
            ],
        );
        for row in rows.as_array().ok_or("table1 rows must be an array")? {
            let field = |key: &str| -> Result<String, FigureError> {
                Ok(row
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("table1 row is missing '{key}'"))?
                    .to_owned())
            };
            let quality = row
                .get("fault_free_quality")
                .and_then(JsonValue::as_f64)
                .ok_or("table1 row is missing 'fault_free_quality'")?;
            table.add_row(vec![
                field("class")?,
                field("algorithm")?,
                field("dataset")?,
                field("metric")?,
                format!("{quality:.4}"),
            ]);
        }

        let mut report = String::new();
        writeln!(report, "{table}")?;

        Ok(RenderedFigure {
            document: rows,
            report,
        })
    }
}
