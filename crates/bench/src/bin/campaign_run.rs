//! Single-command, multi-process, resumable execution of any registered
//! figure campaign.
//!
//! `campaign_run --figure <name> --shards K --jobs J` splits the figure's
//! campaign into K shards, spawns up to J `campaign_shard` child processes
//! at a time (sibling binary of this executable), retries failed shards up
//! to `--retries R` times (default 2), then merges the K checkpoint files
//! and renders the figure JSON — **byte-identical** to the monolithic
//! figure binary's `--json` output at the same flags, because every stage
//! shares the `faultmit_bench::figures` registry code path. Each checkpoint
//! is parsed once, when its shard finishes, and the validated states are
//! the ones merged.
//!
//! Completed shard files under `--dir` (default `campaign-shards/`) are
//! checkpoints: a killed or crashed driver re-run recomputes only the
//! missing or foreign shards, and a corrupted checkpoint is detected by
//! `campaign_shard` and recomputed. Figure flags (`--backend`, `--samples`,
//! `--full`, benchmark selectors) pass through to the children and to the
//! final render.
//!
//! ```text
//! campaign_run --figure fig8_backend_matrix --shards 4 --jobs 2 \
//!     --samples 5 --out results/fig8.json
//! campaign_run --figure list        # print the figure catalogue
//! ```

use faultmit_bench::figures::{
    check_identity_flags, find_figure, registry, render_recorded, FigureDef,
};
use faultmit_bench::shard::ShardState;
use faultmit_bench::RunOptions;
use faultmit_obs::Stage;
use faultmit_sim::ShardSpec;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// How often the driver prints a live progress line while children run.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(5);

/// One queued shard evaluation and how often it has been attempted.
struct ShardJob {
    shard: ShardSpec,
    attempts: usize,
}

/// Total Monte-Carlo samples a shard checkpoint recorded across its panels
/// (deterministic table panels carry no sample stream).
fn shard_samples(state: &ShardState) -> usize {
    state
        .panels
        .iter()
        .filter_map(|panel| panel.state.samples_recorded())
        .sum()
}

/// Median of an unsorted, possibly empty slice of durations.
fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[sorted.len() / 2])
}

fn shard_binary() -> Result<PathBuf, Box<dyn std::error::Error>> {
    let driver = std::env::current_exe()?;
    let dir = driver
        .parent()
        .ok_or("cannot locate the campaign_run executable directory")?;
    let sibling = dir.join(format!("campaign_shard{}", std::env::consts::EXE_SUFFIX));
    if !sibling.exists() {
        return Err(format!(
            "campaign_shard not found next to campaign_run at {}; \
             build the full binary set first (cargo build -p faultmit-bench)",
            sibling.display()
        )
        .into());
    }
    Ok(sibling)
}

/// The figure flags forwarded to every `campaign_shard` child, plus an
/// explicit per-child thread budget: without one each child would default
/// to one worker per CPU and `J` concurrent children would oversubscribe
/// the machine `J`-fold, so the CPU pool is divided across the jobs
/// (results are bit-identical at any worker count, so this is purely a
/// scheduling choice).
fn passthrough_args(
    options: &RunOptions,
    figure: &'static dyn FigureDef,
    jobs: usize,
) -> Vec<String> {
    let mut args = vec!["--figure".to_owned(), figure.name().to_owned()];
    if options.full_scale {
        args.push("--full".to_owned());
    }
    if let Some(samples) = options.samples {
        args.push("--samples".to_owned());
        args.push(samples.to_string());
    }
    if let Some(backend) = options.backend {
        args.push("--backend".to_owned());
        args.push(backend.name().to_owned());
    }
    if let Some(image) = options.image {
        args.push("--image".to_owned());
        args.push(image.to_string());
    }
    if let Some(law) = options.kind_law {
        args.push("--kind-law".to_owned());
        args.push(law.to_string());
    }
    if let Some(kernel) = options.kernel {
        args.push("--kernel".to_owned());
        args.push(kernel.to_string());
    }
    let threads = options.threads.unwrap_or_else(|| {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        (cpus / jobs).max(1)
    });
    args.push("--threads".to_owned());
    args.push(threads.to_string());
    args.extend(options.positional.iter().cloned());
    args
}

fn shard_path(dir: &Path, figure: &'static dyn FigureDef, shard: ShardSpec) -> PathBuf {
    dir.join(format!(
        "{}-{}of{}.json",
        figure.name(),
        shard.shard_index(),
        shard.shard_count()
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = RunOptions::from_args();
    let Some(name) = options.figure.clone() else {
        return Err(
            "usage: campaign_run --figure <name> --shards K [--jobs J] [--retries R]\
                    \n       [--dir <checkpoint-dir>] [--out <figure-json-path>]\
                    \n       [--backend sram|dram|mlc] [--samples N] [--threads N] [--full]\
                    \n       [--image <spec>] [--kind-law flip|stuck-at|stuck-at:P]\
                    \n       [--kernel sparse|bitsliced]\
                    \n       [--metrics <metrics-json-path>]\
                    \nrun 'campaign_run --figure list' for the figure catalogue"
                .into(),
        );
    };
    if name == "list" {
        println!("registered figures:");
        for figure in registry() {
            println!("  {:<24} {}", figure.name(), figure.description());
        }
        return Ok(());
    }
    let figure = find_figure(&name)?;
    if let Some(error) = &options.shard_error {
        return Err(error.clone().into());
    }
    // A typo in --shards/--jobs/--retries must not silently degrade the
    // campaign split (the same policy an unparseable --shard has), a typo
    // in a campaign-identity flag (--backend/--samples/--image/--kind-law/
    // --kernel) must not silently select a different campaign, and a
    // removed flag must not be silently ignored.
    if !options.driver_flag_errors.is_empty() {
        return Err(options.driver_flag_errors.join("; ").into());
    }
    if !options.spec_flag_errors.is_empty() {
        return Err(options.spec_flag_errors.join("; ").into());
    }

    let shard_count = options.shards.unwrap_or(1).max(1);
    let jobs = options
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, shard_count);
    let max_retries = options.retries.unwrap_or(2);
    let dir = options
        .dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("campaign-shards"));
    std::fs::create_dir_all(&dir)?;

    let spec = figure.spec(&options);
    check_identity_flags(&spec, &options)?;
    let shard_bin = shard_binary()?;
    let child_args = passthrough_args(&options, figure, jobs);
    println!(
        "campaign_run: {} as {shard_count} shard(s), {jobs} concurrent job(s), \
         {max_retries} retr{} per shard, checkpoints in {}",
        figure.name(),
        if max_retries == 1 { "y" } else { "ies" },
        dir.display()
    );

    // Schedule: a queue of shards, at most `jobs` children in flight.
    // `campaign_shard` itself skips shards whose checkpoint files already
    // match this campaign slice, so resuming a killed driver only pays for
    // the missing work.
    let mut queue: VecDeque<ShardJob> = ShardSpec::all(shard_count)
        .map(|shard| ShardJob { shard, attempts: 0 })
        .collect();
    let mut running: Vec<(ShardJob, Child, Instant)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // Each completed shard's validated checkpoint, by shard index, and the
    // time spent reading, parsing (and later merging) them: the persist
    // stage.
    let mut states: Vec<Option<ShardState>> = vec![None; shard_count];
    let mut persist = Duration::ZERO;

    // Live-progress bookkeeping for the heartbeat: driver-observed attempt
    // durations size the ETA and flag in-flight stragglers, completed
    // sample counts give a running throughput estimate.
    let campaign_started = Instant::now();
    // `None` until the first poll, so even a campaign shorter than the
    // heartbeat interval prints one progress line.
    let mut last_heartbeat: Option<Instant> = None;
    let mut completed_count = 0usize;
    let mut completed_samples = 0usize;
    let mut attempt_durations: Vec<f64> = Vec::new();

    while !(queue.is_empty() && running.is_empty()) {
        while running.len() < jobs {
            let Some(mut job) = queue.pop_front() else {
                break;
            };
            job.attempts += 1;
            let out = shard_path(&dir, figure, job.shard);
            let child = Command::new(&shard_bin)
                .args(&child_args)
                .arg("--shard")
                .arg(job.shard.to_string())
                .arg("--out")
                .arg(&out)
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", shard_bin.display()))?;
            running.push((job, child, Instant::now()));
        }

        // Reap the first finished child (bounded poll keeps this portable
        // without signal handling). Between polls, a periodic heartbeat
        // reports per-shard progress, a live throughput estimate and an
        // ETA so a long campaign is observable without waiting for the
        // final summary.
        let (index, status) = 'wait: loop {
            for (index, (_, child, _)) in running.iter_mut().enumerate() {
                if let Some(status) = child.try_wait()? {
                    break 'wait (index, status);
                }
            }
            if last_heartbeat.is_none_or(|at| at.elapsed() >= HEARTBEAT_INTERVAL) {
                last_heartbeat = Some(Instant::now());
                let in_flight: Vec<String> = running
                    .iter()
                    .map(|(job, _, started)| {
                        let seconds = started.elapsed().as_secs_f64();
                        // An in-flight shard more than 2x the median
                        // completed attempt is flagged as a straggler:
                        // the operator's cue to look at that host.
                        let flag = match median(&attempt_durations) {
                            Some(mid) if mid > 0.0 && seconds > 2.0 * mid => " [straggler]",
                            _ => "",
                        };
                        format!("shard {}: {seconds:.1}s{flag}", job.shard)
                    })
                    .collect();
                let wall = campaign_started.elapsed().as_secs_f64();
                let mut line = format!(
                    "heartbeat: {completed_count}/{shard_count} shard(s) complete, \
                     {} running ({}), {} queued",
                    running.len(),
                    in_flight.join(", "),
                    queue.len(),
                );
                if completed_samples > 0 && wall > 0.0 {
                    line.push_str(&format!(
                        ", ~{:.1} samples/s",
                        completed_samples as f64 / wall
                    ));
                }
                if let Some(mid) = median(&attempt_durations) {
                    let remaining = queue.len() + running.len();
                    let eta = mid * (remaining as f64 / jobs as f64).ceil();
                    line.push_str(&format!(", ETA ~{eta:.0}s"));
                }
                println!("{line}");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let (job, _, started) = running.swap_remove(index);

        // A zero exit must also have produced a matching checkpoint; treat
        // anything else as a failed attempt. Matching this campaign slice
        // also rules out a mix of figures across the set.
        let read_started = Instant::now();
        let checkpoint = std::fs::read_to_string(shard_path(&dir, figure, job.shard))
            .ok()
            .and_then(|text| ShardState::parse(&text).ok())
            .filter(|state| status.success() && state.matches(&spec, job.shard));
        persist += read_started.elapsed();
        if let Some(state) = checkpoint {
            completed_samples += shard_samples(&state);
            states[job.shard.shard_index()] = Some(state);
            completed_count += 1;
            attempt_durations.push(started.elapsed().as_secs_f64());
            println!(
                "shard {} complete ({} attempt{})",
                job.shard,
                job.attempts,
                if job.attempts == 1 { "" } else { "s" }
            );
        } else if job.attempts <= max_retries {
            eprintln!(
                "shard {} failed ({status}); retrying ({}/{max_retries})",
                job.shard, job.attempts
            );
            queue.push_back(job);
        } else {
            failures.push(format!(
                "shard {} failed after {} attempts (last: {status})",
                job.shard, job.attempts
            ));
        }
    }

    if !failures.is_empty() {
        return Err(format!("campaign did not complete: {}", failures.join("; ")).into());
    }

    // Merge and render in-process through the same registry code path the
    // monolithic binary uses. Every shard completed, so every slot is set.
    let states: Vec<ShardState> = states.into_iter().flatten().collect();

    // Per-shard wall-clock and throughput summary (timing recorded in each
    // checkpoint by `campaign_shard`): the spread tells the operator how to
    // size K for the slowest host, and the samples/s · words/s rates make
    // runs comparable across hosts and kernel generations. Checkpoints from
    // before the telemetry existed simply report no timing.
    let words_per_sample = figure.words_per_sample(&spec);
    println!("per-shard wall clock:");
    let mut timed_samples = 0usize;
    let recorded: Vec<f64> = states
        .iter()
        .filter_map(ShardState::elapsed_seconds)
        .collect();
    // Shards slower than 2x the median of the set are flagged: on a
    // uniform split they mark a slow host (or a noisy neighbour), the
    // operator's cue for sizing K or moving the work.
    let straggler_cutoff = median(&recorded)
        .filter(|&mid| mid > 0.0)
        .map(|mid| 2.0 * mid);
    for state in &states {
        let shard = state.shard.to_string();
        // Which evaluation kernel produced the checkpoint (recorded by
        // `campaign_shard`); throughput numbers only compare across runs of
        // the same kernel generation.
        let kernel = state
            .kernel()
            .map(|kernel| format!(", {kernel} kernel"))
            .unwrap_or_default();
        // Generation share from the checkpoint telemetry (absent in files
        // from before it existed). Generation seconds are worker-seconds:
        // wall spans summed across the shard's workers, so the share of
        // the wall clock can exceed 100% at worker counts above one.
        let generation = match (state.generation_seconds(), state.elapsed_seconds()) {
            (Some(gen_seconds), Some(seconds)) if seconds > 0.0 => format!(
                ", gen {gen_seconds:.2} worker-seconds ({:.0}% of wall)",
                100.0 * gen_seconds / seconds
            ),
            (Some(gen_seconds), _) => format!(", gen {gen_seconds:.2} worker-seconds"),
            (None, _) => String::new(),
        };
        // A shard's sample count spans every Monte-Carlo panel it evaluated
        // (deterministic table panels carry no sample stream).
        let samples = shard_samples(state);
        let straggler = match (state.elapsed_seconds(), straggler_cutoff) {
            (Some(seconds), Some(cutoff)) if seconds > cutoff => " [straggler: >2x median]",
            _ => "",
        };
        match state.elapsed_seconds() {
            Some(seconds) if samples > 0 && seconds > 0.0 => {
                timed_samples += samples;
                // Per-shard throughput uses the shard's own wall clock —
                // never the merged campaign's — so a slow host cannot be
                // masked by fast siblings.
                let samples_per_second = samples as f64 / seconds;
                match words_per_sample {
                    Some(words) => println!(
                        "  shard {shard}: {seconds:.2}s ({samples_per_second:.1} samples/s, \
                         {:.3e} words/s{generation}{kernel}){straggler}",
                        samples_per_second * words as f64
                    ),
                    None => println!(
                        "  shard {shard}: {seconds:.2}s \
                         ({samples_per_second:.1} samples/s{generation}{kernel}){straggler}"
                    ),
                }
            }
            Some(seconds) => {
                println!("  shard {shard}: {seconds:.2}s{generation}{kernel}{straggler}");
            }
            None => println!("  shard {shard}: no timing recorded{generation}{kernel}"),
        }
    }
    if !recorded.is_empty() {
        let total: f64 = recorded.iter().sum();
        print!(
            "  total {total:.2}s across {} timed shard(s), slowest {:.2}s",
            recorded.len(),
            recorded.iter().cloned().fold(0.0, f64::max),
        );
        // Aggregate throughput uses the driver's wall clock, not the sum of
        // per-shard clocks: shards run concurrently, so dividing by the sum
        // understates what the campaign actually delivered per second of
        // real time. (On a resumed run the wall clock covers only the work
        // this invocation performed.)
        let wall = campaign_started.elapsed().as_secs_f64();
        if timed_samples > 0 && wall > 0.0 {
            let samples_per_second = timed_samples as f64 / wall;
            match words_per_sample {
                Some(words) => print!(
                    " ({samples_per_second:.1} samples/s, {:.3e} words/s aggregate \
                     over {wall:.2}s driver wall clock)",
                    samples_per_second * words as f64
                ),
                None => print!(
                    " ({samples_per_second:.1} samples/s aggregate \
                     over {wall:.2}s driver wall clock)"
                ),
            }
        }
        println!();
    }

    let merge_started = Instant::now();
    let mut merged = ShardState::merge(states)?;
    persist += merge_started.elapsed();
    if merged.spec != spec {
        return Err("merged shard set belongs to a different campaign configuration".into());
    }
    // The merge aggregated every shard's metrics (clocks and counter
    // snapshots sum; the kernel identity was validated consistent), so the
    // cross-shard report is the merged state's plus this process's persist
    // and render spans.
    let mut metrics = std::mem::take(&mut merged.metrics);
    if options.metrics_path.is_some() {
        metrics.add_stage_call(Stage::Persist, persist);
    }
    let panels = merged.into_panels(&figure.panel_labels(&spec))?;
    let rendered = render_recorded(
        figure,
        &spec,
        options.parallelism(),
        panels,
        options.metrics_path.is_some().then_some(&mut metrics),
    )?;
    options.write_metrics(&metrics)?;

    print!("{}", rendered.report);
    if options.json_path.is_some() {
        options.write_json(&rendered.document)?;
    }
    Ok(())
}
