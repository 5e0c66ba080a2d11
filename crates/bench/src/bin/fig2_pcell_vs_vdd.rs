//! Fig. 2 — SRAM cell failure probability under V_DD scaling, and the
//! zero-failure yield collapse of a 16 KB memory.
//!
//! With `--backend dram|mlc` the analogue sweeps the technology's own
//! failure law; the operating-point axis (and its `--t-ref-ns` /
//! `--temp-c` controls) is resolved by the shared
//! [`faultmit_bench::cli::LawSweep`] helper, so every consumer of the
//! sweep flags agrees on their meaning.
//!
//! ```text
//! cargo run -p faultmit-bench --bin fig2_pcell_vs_vdd [-- --json results/fig2.json]
//! cargo run -p faultmit-bench --bin fig2_pcell_vs_vdd -- --backend dram --temp-c 85
//! cargo run -p faultmit-bench --bin fig2_pcell_vs_vdd -- --backend dram --t-ref-ns 6.4e7
//! ```

use faultmit_analysis::report::{format_percent, format_sci, Table};
use faultmit_bench::cli::LawSweep;
use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_bench::RunOptions;
use faultmit_memsim::{BackendKind, CellFailureModel, MemoryConfig, VddSweep};

#[derive(Debug)]
struct Fig2Point {
    vdd: f64,
    p_cell: f64,
    expected_failures_16kb: f64,
    zero_failure_yield_16kb: f64,
}

impl ToJson for Fig2Point {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("vdd", self.vdd.to_json()),
            ("p_cell", self.p_cell.to_json()),
            (
                "expected_failures_16kb",
                self.expected_failures_16kb.to_json(),
            ),
            (
                "zero_failure_yield_16kb",
                self.zero_failure_yield_16kb.to_json(),
            ),
        ])
    }
}

/// One point of a backend law sweep: the technology's own operating-point
/// knob (not a voltage, hence the distinct JSON shape from [`Fig2Point`]).
#[derive(Debug)]
struct BackendLawPoint {
    knob: f64,
    knob_unit: &'static str,
    p_cell: f64,
    expected_failures_16kb: f64,
    zero_failure_yield_16kb: f64,
}

impl ToJson for BackendLawPoint {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("knob", self.knob.to_json()),
            ("knob_unit", self.knob_unit.to_json()),
            ("p_cell", self.p_cell.to_json()),
            (
                "expected_failures_16kb",
                self.expected_failures_16kb.to_json(),
            ),
            (
                "zero_failure_yield_16kb",
                self.zero_failure_yield_16kb.to_json(),
            ),
        ])
    }
}

/// `--backend dram|mlc`: the analogue of Fig. 2 for the other fault
/// backends — the per-cell failure law against the technology's own
/// operating-point knob, with the same derived columns. The axis, knob
/// grid and labels all come from the shared [`LawSweep`] resolution.
fn backend_law_sweep(
    options: &RunOptions,
    sweep: &LawSweep,
) -> Result<(), Box<dyn std::error::Error>> {
    let memory = MemoryConfig::paper_16kb();
    let cells = memory.total_cells();

    let mut table = Table::new(
        sweep.title.clone(),
        vec![
            sweep.knob_header.into(),
            "P_cell".into(),
            "E[failures] (16KB)".into(),
            "zero-failure yield".into(),
        ],
    );
    let mut series = Vec::new();
    for &knob in &sweep.knobs {
        let p_cell = sweep.p_cell(memory, knob)?;
        let expected = p_cell * cells as f64;
        let yield_zero = (cells as f64 * (-p_cell).ln_1p()).exp();
        table.add_row(vec![
            format!("{knob:.1}"),
            format_sci(p_cell),
            format_sci(expected),
            format_percent(yield_zero),
        ]);
        series.push(BackendLawPoint {
            knob,
            knob_unit: sweep.knob_unit,
            p_cell,
            expected_failures_16kb: expected,
            zero_failure_yield_16kb: yield_zero,
        });
    }
    println!("{table}");
    options.write_json(&series)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = RunOptions::from_args();
    // Only the DRAM sweep reads the operating-point flags, and a pinned
    // refresh interval sweeps the temperature `--temp-c` would set.
    let mut reads = vec!["--full", "--backend"];
    if options.backend_kind() == BackendKind::Dram {
        reads.push("--t-ref-ns");
        if options.t_ref_ns.is_none() {
            reads.push("--temp-c");
        }
    }
    options.refuse_flag_errors(&reads)?;
    if let Some(sweep) = LawSweep::for_backend(options.backend_kind(), &options) {
        return backend_law_sweep(&options, &sweep);
    }
    let steps = if options.full_scale { 41 } else { 9 };

    let model = CellFailureModel::default_28nm();
    let memory = MemoryConfig::paper_16kb();
    let sweep = VddSweep::paper_fig2(steps)?;

    let mut table = Table::new(
        "Fig. 2 — P_cell vs V_DD (28nm analytical noise-margin model, 16KB memory)",
        vec![
            "V_DD (V)".into(),
            "P_cell".into(),
            "E[failures] (16KB)".into(),
            "zero-failure yield".into(),
        ],
    );
    let mut series = Vec::new();
    for vdd in sweep.voltages() {
        let p_cell = model.p_cell(vdd);
        let expected = model.expected_failures(vdd, memory.total_cells());
        let yield_zero = model.zero_failure_yield(vdd, memory.total_cells());
        table.add_row(vec![
            format!("{vdd:.3}"),
            format_sci(p_cell),
            format_sci(expected),
            format_percent(yield_zero),
        ]);
        series.push(Fig2Point {
            vdd,
            p_cell,
            expected_failures_16kb: expected,
            zero_failure_yield_16kb: yield_zero,
        });
    }
    println!("{table}");

    // The paper's observation: the traditional yield criterion collapses near
    // 0.73 V for a 16 KB memory.
    let collapse = sweep
        .voltages()
        .find(|&v| model.zero_failure_yield(v, memory.total_cells()) > 0.5)
        .unwrap_or(1.0);
    println!(
        "zero-failure yield first exceeds 50% at V_DD ~= {collapse:.2} V (paper: collapse near 0.73 V)"
    );

    options.write_json(&series)?;
    Ok(())
}
