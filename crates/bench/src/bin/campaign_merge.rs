//! Merge campaign shard files and render the figure JSON.
//!
//! Reads the K shard-state files of a campaign (in any order), validates
//! that they form a complete K-shard set of one registered figure's
//! campaign — reporting **every** missing, duplicated or mismatched shard
//! index (and every unreadable file) in one error instead of failing on the
//! first — folds their panel states **in shard order**, and renders the
//! figure series with the exact code path of the monolithic figure binary:
//! the output at `--out` is **byte-identical** to that binary's `--json`
//! output at the same flags, for every figure of the
//! `faultmit_bench::figures` registry.
//!
//! ```text
//! campaign_merge shards/fig8-0of4.json shards/fig8-1of4.json \
//!     shards/fig8-2of4.json shards/fig8-3of4.json --out results/fig8.json
//! ```

use faultmit_bench::figures::{find_figure, render_recorded};
use faultmit_bench::shard::{load_shard_files, ShardState};
use faultmit_bench::RunOptions;
use faultmit_obs::Stage;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = RunOptions::from_args();
    options.refuse_flag_errors(&[])?;
    if options.positional.is_empty() {
        return Err(
            "usage: campaign_merge <shard-file>... --out <figure-json-path> [--threads N]\
                    \n       [--metrics <metrics-json-path>]"
                .into(),
        );
    }

    // Shard read, parse and merge make up the persist stage.
    let persist_started = Instant::now();
    let shards = load_shard_files(&options.positional)?;
    for (path, state) in options.positional.iter().zip(&shards) {
        println!(
            "read shard {} of {} from {path}",
            state.shard, state.spec.figure
        );
    }
    let mut merged = ShardState::merge(shards)?;
    let persist = persist_started.elapsed();
    let spec = merged.spec.clone();
    let figure = find_figure(&spec.figure)?;
    println!(
        "merged {} shard(s) of {} ({} samples/count)",
        options.positional.len(),
        spec.figure,
        spec.samples_per_count
    );

    // The merge aggregated the shard set's telemetry (clocks and counter
    // snapshots sum across shards); --metrics writes the cross-shard report
    // with this process's persist and render spans folded in.
    let mut metrics = std::mem::take(&mut merged.metrics);
    if options.metrics_path.is_some() {
        metrics.add_stage_call(Stage::Persist, persist);
    }

    // Render through the figure's own reduction path: a merged state is
    // bit-identical to the monolithic accumulator, so the series — and its
    // serialised bytes — match the monolithic binary's --json output.
    let panels = merged.into_panels(&figure.panel_labels(&spec))?;
    let rendered = render_recorded(
        figure,
        &spec,
        options.parallelism(),
        panels,
        options.metrics_path.is_some().then_some(&mut metrics),
    )?;
    options.write_metrics(&metrics)?;

    if options.json_path.is_some() {
        options.write_json(&rendered.document)?;
    } else {
        println!("{}", rendered.document.to_pretty_string());
    }
    Ok(())
}
