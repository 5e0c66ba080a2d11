//! Evaluate one shard of any registered figure campaign and write its
//! panel state.
//!
//! A K-shard campaign splits a figure's plan into K disjoint chunk ranges
//! (`faultmit_sim::ShardSpec`); each invocation of this binary evaluates
//! one range — on any host, since per-sample RNG streams derive from
//! `(seed, global sample index)` alone — and serialises its panel states to
//! `--out`. `campaign_merge` (or the `campaign_run` driver) folds the K
//! files in shard order and renders figure JSON **byte-identical** to the
//! monolithic figure binary. The figure is selected with `--figure <name>`
//! (or the historical first positional argument) from the
//! `faultmit_bench::figures` registry — every campaign binary is covered,
//! not just fig5/fig7.
//!
//! A completed shard file is a checkpoint: when `--out` already holds the
//! state of exactly this campaign slice, the run is skipped, so re-running
//! a partially finished campaign recomputes only the missing shards. The
//! file is written to `<out>.tmp` and renamed into place, so a run killed
//! mid-write leaves no partial checkpoint behind.
//!
//! ```text
//! campaign_shard --figure fig5 --backend dram --shard 0/2 --out shards/fig5-dram-0of2.json
//! campaign_shard --figure fig8 --samples 5 --shard 1/4 --out shards/fig8-1of4.json
//! campaign_shard fig7 elasticnet --shard 1/3 --samples 4 --out shards/fig7-el-1of3.json
//! ```

use faultmit_bench::cli::IDENTITY_FLAGS;
use faultmit_bench::figures::{check_identity_flags, find_figure};
use faultmit_bench::metrics::ShardMetrics;
use faultmit_bench::shard::{ShardPanelState, ShardState};
use faultmit_bench::RunOptions;
use faultmit_obs as obs;
use std::fs::File;
use std::io::Write;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut options = RunOptions::from_args();
    // A refused --shard must not fall back to the monolithic 0/1 shard and
    // write solo-coverage state under a shard file's name, and a refused
    // identity flag must not evaluate a different campaign.
    options.refuse_flag_errors(&[&IDENTITY_FLAGS[..], &["--shard"]].concat())?;
    let name =
        match options.figure.clone() {
            Some(name) => name,
            None if !options.positional.is_empty() => options.positional.remove(0),
            None => return Err(
                "usage: campaign_shard --figure <name> [benchmarks...] --shard I/K --out <path>\
                        \n       [--backend sram|dram|mlc] [--samples N] [--threads N] [--full]\
                        \n(the figure may also be the first positional argument)"
                    .into(),
            ),
        };
    let figure = find_figure(&name)?;
    let shard = options.shard_or_solo();
    let out_path = options
        .json_path
        .clone()
        .ok_or("campaign_shard requires --out <path> for the shard-state file")?;

    let spec = figure.spec(&options);
    // An --image/--kind-law the figure would normalise away must be fatal
    // for the same reason: it would evaluate a different campaign.
    check_identity_flags(&spec, &options)?;

    // Resumability: a completed shard file for exactly this campaign slice
    // is a checkpoint — skip the work.
    if let Ok(existing) = std::fs::read_to_string(&out_path) {
        match ShardState::parse(&existing) {
            Ok(state) if state.matches(&spec, shard) => {
                println!(
                    "shard {shard} of {} already complete at {}; skipping",
                    figure.name(),
                    out_path.display()
                );
                return Ok(());
            }
            Ok(_) => eprintln!(
                "{} holds a different campaign's state; recomputing",
                out_path.display()
            ),
            Err(e) => eprintln!(
                "{} is not a valid shard file ({e}); recomputing",
                out_path.display()
            ),
        }
    }

    let labels = figure.panel_labels(&spec);
    println!(
        "{} shard {shard}: {} panel(s) {labels:?}",
        figure.name(),
        labels.len()
    );
    // Shard checkpoints always carry a metrics snapshot: the recorder is
    // ambient (thread-local, re-installed on workers), the hot paths pay a
    // handful of u64 adds per chunk, and the driver/merge side can then
    // aggregate cross-shard metrics without any flag forwarding. Counter
    // sums are order-independent, so the snapshot is bit-identical at any
    // worker count.
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let guard = obs::install(&recorder);
    let started = std::time::Instant::now();
    let run = figure.run_shard(&spec, options.parallelism(), shard)?;
    let elapsed_seconds = started.elapsed().as_secs_f64();
    drop(guard);
    let panels = run.panels;
    if panels.len() != labels.len() {
        return Err(format!(
            "{} produced {} panel states for {} panels",
            figure.name(),
            panels.len(),
            labels.len()
        )
        .into());
    }

    let kernel = spec.kernel.map(|kernel| kernel.as_str().to_owned());
    let state = ShardState {
        spec,
        shard,
        panels: labels
            .into_iter()
            .zip(panels)
            .map(|(label, state)| ShardPanelState { label, state })
            .collect(),
        // Wall-clock telemetry for the campaign driver's timing summary
        // (and for sizing future splits to the slowest host), plus which
        // evaluation kernel produced the state so throughput numbers stay
        // comparable across checkpoints (the spec's kernel; the merge
        // validates it across the set). Figures without a kernel axis
        // (deterministic tables, app-quality campaigns, the shift-policy
        // ablation) record none, and figures that generate no dies record
        // no generation seconds.
        // The snapshot carries the typed counters/histograms/stage clocks
        // this shard's pipeline recorded.
        metrics: ShardMetrics {
            elapsed_seconds: Some(elapsed_seconds),
            kernel,
            generation_seconds: run.generation_seconds,
            auto_threshold: None,
            snapshot: Some(recorder.snapshot()),
        },
    };
    let persist_started = std::time::Instant::now();
    let dir = match out_path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    // Write a temp file next to the checkpoint, make it durable and rename
    // it into place, so a process killed (or a host crashing) mid-write
    // never leaves a truncated checkpoint under the shard's name. A stale
    // temp file from such a run is overwritten.
    let mut temp_path = out_path.clone().into_os_string();
    temp_path.push(".tmp");
    let text = state.to_json().to_pretty_string();
    let mut temp = File::create(&temp_path)?;
    temp.write_all(text.as_bytes())?;
    temp.sync_all()?;
    std::fs::rename(&temp_path, &out_path)?;
    // Make the rename itself durable.
    File::open(dir)?.sync_all()?;
    println!(
        "wrote shard state to {} ({} bytes, encode+write {:.3}s)",
        out_path.display(),
        text.len(),
        persist_started.elapsed().as_secs_f64()
    );
    Ok(())
}
