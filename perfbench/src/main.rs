//! Figure-production benchmark runner.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --out-dir <dir> [--smoke]
//! ```
//!
//! One run times setup on its own in short batches, produces the figure
//! once at its protocol seed and writes that document to
//! `<out-dir>/protocol.json` for the pinned-digest check (this also warms
//! caches), then produces the figure repeatedly, each repetition at a
//! campaign seed of its own derived from `--seed`, until `--seconds` have
//! passed. A reference probe runs before and after every repetition and a
//! setup batch after it; the end-to-end timings are scaled by the probe (see
//! [`Probe`]), and the raw seconds go to the result file next to them. Every
//! document is checked against the figure's invariants.
//! With `--trace 1` the repetitions alternate untraced and traced in pairs
//! that share a seed and must render byte-identical documents, and the
//! per-layer metrics come from the traced ones. The result — metrics with
//! units, host stamp, attempted and failed repetitions — is written to
//! `<out-dir>/result.json`; `run.py` adds the digest check and prints the
//! final line.

mod workloads;

use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_obs::{Counter, Stage};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Rep, Runner, Workload};

/// Pipeline workers every workload runs with. The host reports two CPUs but
/// delivers about one (see `effective_parallelism` in each result), and a
/// second worker only adds scheduling noise to the timings.
const WORKERS: usize = 1;

/// Setup batches timed before the first repetition; one more follows every
/// timed repetition, so the batches spread over the run. `setup_s` is the
/// median of their per-setup means.
const SETUP_BATCHES: usize = 5;

/// Minimum seconds of back-to-back setups in one batch.
const SETUP_BATCH_SECONDS: f64 = 0.01;

/// A reported metric: name, unit and value.
type Metric = (&'static str, &'static str, f64);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    smoke: bool,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value '{value}' for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = Some(parse_value(&flag, &value)?),
            "--seconds" => seconds = Some(parse_value(&flag, &value)?),
            "--trace" => trace = parse_value::<u8>(&flag, &value)? != 0,
            "--out-dir" => out_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir: out_dir.ok_or("--out-dir is required")?,
        smoke,
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed reference computation timed between repetitions. The host is
/// shared with other tenants, whose load changes its speed from minute to
/// minute, and not evenly: code that works out of the L1/L2 caches with
/// data-dependent branches, as the figure pipelines do, slows by up to 60 %
/// while a register-bound loop barely moves. So the probe is made of such
/// code: Jacobi rotations over a 64×64 symmetric matrix, nearest-neighbour
/// distances with a sort, and repeated sorts of 4096 floats. It is frozen
/// here, apart from the program, so no program change moves it. Scaling each
/// repetition's wall clock by the probe's cancels most of the drift.
struct Probe {
    matrix: Vec<f64>,
    rotated: Vec<f64>,
    points: Vec<f64>,
    distances: Vec<(f64, usize)>,
    values: Vec<f64>,
    sorted: Vec<f64>,
}

/// Probe seconds that define the reference host speed: a repetition's wall
/// clock `w` next to a probe of `p` seconds reports as
/// `w * REFERENCE_PROBE_SECONDS / p`.
const REFERENCE_PROBE_SECONDS: f64 = 0.02;

/// Side of the probe's symmetric matrix.
const PROBE_MATRIX: usize = 64;

/// Points (of [`PROBE_DIMS`] coordinates) the probe's neighbour search scans.
const PROBE_POINTS: usize = 320;

const PROBE_DIMS: usize = 8;

impl Probe {
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state = splitmix64(state);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = PROBE_MATRIX;
        let factor: Vec<f64> = (0..n * n).map(|_| uniform()).collect();
        // A Gram matrix, so the rotations meet a well-conditioned
        // symmetric input.
        let matrix = (0..n * n)
            .map(|cell| {
                let (i, j) = (cell / n, cell % n);
                (0..n).map(|k| factor[i * n + k] * factor[j * n + k]).sum()
            })
            .collect();
        Self {
            matrix,
            rotated: vec![0.0; n * n],
            points: (0..PROBE_POINTS * PROBE_DIMS).map(|_| uniform()).collect(),
            distances: Vec::with_capacity(PROBE_POINTS),
            values: (0..4096).map(|_| uniform()).collect(),
            sorted: vec![0.0; 4096],
        }
    }

    /// Sixteen cyclic Jacobi sweeps over a copy of the matrix.
    fn rotations(&mut self) {
        let n = PROBE_MATRIX;
        let m = &mut self.rotated;
        m.copy_from_slice(&self.matrix);
        for _ in 0..16 {
            for p in 0..n {
                for q in p + 1..n {
                    let apq = m[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let theta = (m[q * n + q] - m[p * n + p]) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let (kp, kq) = (m[k * n + p], m[k * n + q]);
                        m[k * n + p] = c * kp - s * kq;
                        m[k * n + q] = s * kp + c * kq;
                    }
                    for k in 0..n {
                        let (pk, qk) = (m[p * n + k], m[q * n + k]);
                        m[p * n + k] = c * pk - s * qk;
                        m[q * n + k] = s * pk + c * qk;
                    }
                }
            }
        }
        std::hint::black_box(&self.rotated);
    }

    /// For 600 queries, every point's distance, sorted.
    fn neighbours(&mut self) {
        let d = PROBE_DIMS;
        let mut picked = 0usize;
        for query in 0..600 {
            let q = query % PROBE_POINTS;
            let query = &self.points[q * d..(q + 1) * d];
            self.distances.clear();
            for (index, point) in self.points.chunks_exact(d).enumerate() {
                let distance: f64 = point
                    .iter()
                    .zip(query)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                self.distances.push((distance, index));
            }
            self.distances.sort_by(|a, b| a.0.total_cmp(&b.0));
            picked = picked.wrapping_add(self.distances[5].1);
        }
        std::hint::black_box(picked);
    }

    /// Sixty rounds of sorting the values and remixing them.
    fn sorts(&mut self) {
        self.sorted.copy_from_slice(&self.values);
        for round in 0..60 {
            self.sorted.sort_unstable_by(f64::total_cmp);
            for (i, x) in self.sorted.iter_mut().enumerate() {
                *x = (*x * 7919.0 + (i + round) as f64 * 0.618).fract();
            }
        }
        std::hint::black_box(&self.sorted);
    }

    /// `REFERENCE_PROBE_SECONDS` over the probe's seconds now.
    fn scale(&mut self) -> f64 {
        let started = Instant::now();
        self.rotations();
        self.neighbours();
        self.sorts();
        REFERENCE_PROBE_SECONDS / started.elapsed().as_secs_f64()
    }
}

/// The parallelism the host delivers: `threads` copies of a fixed spin
/// loop, timed together against one copy alone.
fn effective_parallelism(threads: usize) -> f64 {
    fn spin() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..40_000_000u64 {
            x = x.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        std::hint::black_box(x);
    }
    let started = Instant::now();
    spin();
    let single = started.elapsed();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(spin);
        }
    });
    threads as f64 * single.as_secs_f64() / started.elapsed().as_secs_f64()
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The per-layer metrics of one traced repetition (all but
/// `obs.overhead_s`, which compares repetitions). `worker_seconds` are
/// `faultmit_obs` stage times summed across workers; they are never added to
/// the wall-clock layers.
fn layer_metrics(workload: Workload, rep: &Rep) -> Vec<Metric> {
    let snapshot = rep.snapshot.unwrap_or_default();
    let stage = |stage| snapshot.stage_seconds(stage);
    let counter = |counter| snapshot.counter(counter);
    // On Fig. 7 the observe stage wraps the application evaluation.
    let (core_observe, apps_observe) = if workload == Workload::Fig7Quality {
        (0.0, stage(Stage::Observe))
    } else {
        (stage(Stage::Observe), 0.0)
    };
    let generate = stage(Stage::Generate);
    let analysis = rep.analysis.unwrap_or_default();
    vec![
        ("setup.seconds", "s", rep.setup),
        ("sim.campaign.seconds", "s", rep.campaign),
        (
            "sim.samples",
            "count",
            counter(Counter::SamplesEvaluated) as f64,
        ),
        ("sim.plan.worker_seconds", "s", stage(Stage::Plan)),
        ("sim.merge.worker_seconds", "s", stage(Stage::Merge)),
        ("memsim.generate.worker_seconds", "s", generate),
        (
            "memsim.generate.dies_per_s",
            "1/s",
            if generate > 0.0 {
                counter(Counter::DiesGenerated) as f64 / generate
            } else {
                0.0
            },
        ),
        (
            "memsim.generate.faults",
            "count",
            counter(Counter::FaultsGenerated) as f64,
        ),
        (
            "memsim.widegen.lane_utilisation",
            "ratio",
            snapshot.wide_lane_utilisation().unwrap_or(0.0),
        ),
        (
            "memsim.transpose.worker_seconds",
            "s",
            stage(Stage::Transpose),
        ),
        (
            "memsim.transpose.blocks",
            "count",
            counter(Counter::BlocksTransposed) as f64,
        ),
        (
            "memsim.arena.reallocs",
            "count",
            counter(Counter::ReallocEvents) as f64,
        ),
        ("core.observe.worker_seconds", "s", core_observe),
        (
            "core.observe.fallback_rate",
            "ratio",
            snapshot.observe_fallback_rate().unwrap_or(0.0),
        ),
        (
            "ecc.clean_decode_ratio",
            "ratio",
            ratio(
                counter(Counter::EccCleanDecodes),
                counter(Counter::EccCleanDecodes) + counter(Counter::EccFullDecodes),
            ),
        ),
        ("apps.observe.worker_seconds", "s", apps_observe),
        ("analysis.reduce.worker_seconds", "s", stage(Stage::Reduce)),
        ("analysis.results.seconds", "s", analysis.results_seconds),
        ("analysis.yield_search.seconds", "s", analysis.yield_seconds),
        ("bench.render.seconds", "s", rep.render),
        ("bench.render.emit_seconds", "s", rep.emit),
        ("bench.render.doc_bytes", "bytes", rep.document.len() as f64),
        ("bench.shard.encode_seconds", "s", rep.encode),
        ("bench.shard.write_seconds", "s", rep.write),
        ("bench.shard.read_seconds", "s", rep.read),
        ("bench.shard.parse_seconds", "s", rep.parse),
        ("bench.shard.merge_seconds", "s", rep.merge),
        ("bench.shard.bytes", "bytes", rep.shard_bytes as f64),
        ("wall_coverage", "ratio", rep.covered() / rep.wall),
    ]
}

/// Runs checks that hold at any seed; `reference` is an earlier document at
/// the same campaign seed, which this one must equal byte for byte.
fn check_rep(workload: Workload, rep: &Rep, reference: Option<&str>) -> Result<(), String> {
    if rep.samples != rep.planned {
        return Err(format!(
            "recorded {} samples, the plan schedules {}",
            rep.samples, rep.planned
        ));
    }
    workloads::check_document(workload, &rep.document)?;
    if reference.is_some_and(|doc| doc != rep.document) {
        return Err("document differs from the first repetition at the same seed".to_owned());
    }
    Ok(())
}

fn run(args: &Args) -> Result<JsonValue, Box<dyn std::error::Error>> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = WORKERS.min(nproc);
    let effective = effective_parallelism(nproc);
    // Each repetition (each untraced/traced pair under --trace 1) runs at a
    // campaign seed of its own, so a run's medians do not hinge on one
    // seed's data (the render's yield search stops at a data-dependent
    // threshold).
    let seed_base = splitmix64(args.seed ^ workload.protocol_seed());
    let campaign_seed = |index: usize| splitmix64(seed_base.wrapping_add(index as u64));
    std::fs::create_dir_all(&args.out_dir)?;
    let runner = Runner::new(workload, workers, args.smoke, args.out_dir.join("shards"));
    let mut attempted = 0usize;
    let mut errors: Vec<String> = Vec::new();

    // Setup first, while the heap is as fresh as in a real run.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < SETUP_BATCHES && started.elapsed() < budget / 10 {
        setups.push(runner.setup_seconds(SETUP_BATCH_SECONDS)?);
    }

    // The pinned-output repetition at the protocol seed. Its inputs are the
    // same in every run, so the process peak right after it is the
    // workload's peak memory, free of seed-to-seed variation.
    attempted += 1;
    let protocol_doc = args.out_dir.join("protocol.json");
    let _ = std::fs::remove_file(&protocol_doc);
    match runner.run(workload.protocol_seed(), false) {
        Ok(rep) => {
            if let Err(e) = check_rep(workload, &rep, None) {
                errors.push(format!("protocol seed: {e}"));
            }
            std::fs::write(&protocol_doc, &rep.document)?;
        }
        Err(e) => errors.push(format!("protocol seed: {e}")),
    }
    let peak_rss = peak_rss_mb().ok_or("VmHWM is unavailable")?;

    // From here on, setup seconds and repetition wall clocks are also scaled
    // by the probe timed next to them (the probe's buffer is allocated only
    // now, so it stays out of the peak above).
    let mut probe = Probe::new();
    let mut scale = probe.scale();
    let mut scaled_setups: Vec<f64> = setups.iter().map(|setup| setup * scale).collect();
    let min_reps = match (args.smoke, args.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => 3,
        (false, true) => 4,
    };
    // (campaign seed, repetition, probe scale around it)
    let mut untraced: Vec<(u64, Rep, f64)> = Vec::new();
    let mut traced: Vec<(u64, Rep, f64)> = Vec::new();
    let mut reference: Option<(u64, String)> = None;
    let mut index = 0usize;
    let reps_started = Instant::now();
    loop {
        let trace_this = args.trace && index % 2 == 1;
        let seed = campaign_seed(if args.trace { index / 2 } else { index });
        index += 1;
        attempted += 1;
        let earlier = reference
            .as_ref()
            .filter(|(s, _)| *s == seed)
            .map(|(_, doc)| doc.as_str());
        // The probe after one repetition is the probe before the next.
        let before = scale;
        let outcome = runner.run(seed, trace_this);
        scale = probe.scale();
        let rep_scale = (before + scale) / 2.0;
        match outcome {
            Ok(rep) => match check_rep(workload, &rep, earlier) {
                Ok(()) => {
                    if earlier.is_none() {
                        reference = Some((seed, rep.document.clone()));
                    }
                    if trace_this {
                        traced.push((seed, rep, rep_scale));
                    } else {
                        untraced.push((seed, rep, rep_scale));
                    }
                }
                Err(e) => errors.push(format!("repetition {index} (seed {seed:#x}): {e}")),
            },
            Err(e) => errors.push(format!("repetition {index} (seed {seed:#x}): {e}")),
        }
        let setup = runner.setup_seconds(SETUP_BATCH_SECONDS)?;
        setups.push(setup);
        scaled_setups.push(setup * scale);
        let per_rep = reps_started.elapsed() / index as u32;
        if index >= min_reps && started.elapsed() + per_rep > budget {
            break;
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    if !args.trace && !untraced.is_empty() {
        let scaled = |f: fn(&Rep, f64) -> f64| {
            median(
                &mut untraced
                    .iter()
                    .map(|(_, rep, scale)| f(rep, *scale))
                    .collect::<Vec<_>>(),
            )
        };
        metrics = vec![
            ("wall_s", "s", scaled(|rep, scale| rep.wall * scale)),
            ("setup_s", "s", median(&mut scaled_setups)),
            (
                "samples_per_s",
                "1/s",
                scaled(|rep, scale| rep.samples as f64 / (rep.wall * scale)),
            ),
            ("peak_rss_mb", "MB", peak_rss),
        ];
    }
    if args.trace && !traced.is_empty() && !untraced.is_empty() {
        let per_rep: Vec<Vec<Metric>> = traced
            .iter()
            .map(|(_, rep, _)| layer_metrics(workload, rep))
            .collect();
        for (index, &(name, unit, _)) in per_rep[0].iter().enumerate() {
            let mut values: Vec<f64> = per_rep.iter().map(|rep| rep[index].2).collect();
            metrics.push((name, unit, median(&mut values)));
        }
        // Traced minus untraced wall clock, paired by campaign seed, each
        // side scaled by its own probe as `wall_s` is.
        let mut overheads: Vec<f64> = traced
            .iter()
            .filter_map(|(seed, rep, scale)| {
                let (_, plain, plain_scale) = untraced.iter().find(|(s, _, _)| s == seed)?;
                Some(rep.wall * scale - plain.wall * plain_scale)
            })
            .collect();
        metrics.push(("obs.overhead_s", "s", median(&mut overheads)));
    }

    let failed = errors.len();
    for error in &errors {
        eprintln!("perfbench {}: check failed: {error}", workload.name());
    }
    println!(
        "perfbench {}: {} repetitions ({} traced), campaign seeds from {:#x}, \
         workers: {workers}, failed: {failed}",
        workload.name(),
        untraced.len() + traced.len(),
        traced.len(),
        campaign_seed(0),
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>16.6e} {unit}");
    }
    Ok(JsonValue::object([
        ("workload", workload.name().to_json()),
        (
            "figure_flags",
            JsonValue::array(workload.flags(args.smoke).iter().copied()),
        ),
        ("smoke", args.smoke.to_json()),
        ("trace", args.trace.to_json()),
        ("protocol_seed", workload.protocol_seed().to_json()),
        (
            "first_campaign_seed",
            campaign_seed(0).to_string().to_json(),
        ),
        (
            "host",
            JsonValue::object([
                ("nproc", nproc.to_json()),
                ("effective_parallelism", effective.to_json()),
                ("workers", workers.to_json()),
            ]),
        ),
        ("repetitions", (untraced.len() + traced.len()).to_json()),
        (
            "raw_wall_seconds",
            JsonValue::array(untraced.iter().map(|(_, rep, _)| rep.wall)),
        ),
        (
            "probe_scales",
            JsonValue::array(untraced.iter().map(|(_, _, scale)| *scale)),
        ),
        ("raw_setup_s", median(&mut setups).to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("errors", errors.to_json()),
        (
            "metrics",
            JsonValue::Object(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        let metric = JsonValue::object([
                            ("value", value.to_json()),
                            ("unit", unit.to_json()),
                        ]);
                        (name.to_owned(), metric)
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            match std::fs::write(args.out_dir.join("result.json"), result.to_pretty_string()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: cannot write the result: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
