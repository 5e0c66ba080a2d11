//! Process-level gates for the sharded campaign pipeline: `campaign_shard`
//! processes run as genuinely separate OS processes, their shard files are
//! merged by `campaign_merge`, and the rendered figure JSON must be
//! **byte-identical** to the monolithic figure binary's `--json` output.
//! Completed shard files must act as checkpoints (resumability).

use faultmit_bench::shard::SHARD_STATE_FORMAT;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {binary}: {e}"));
    assert!(
        output.status.success(),
        "{binary} {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "faultmit-shard-pipeline-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn join(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Parses a shard checkpoint with its metrics telemetry stripped: the
/// recorded wall clocks (and the stage timers inside the snapshot) vary
/// run to run by design, so checkpoint equality means "same campaign
/// state", not "same bytes".
fn state_of(path: &str) -> faultmit_bench::shard::ShardState {
    let mut state = faultmit_bench::shard::ShardState::parse(&read(path))
        .unwrap_or_else(|e| panic!("parse {path}: {e}"));
    state.metrics = Default::default();
    state
}

const SHARD_BIN: &str = env!("CARGO_BIN_EXE_campaign_shard");
const MERGE_BIN: &str = env!("CARGO_BIN_EXE_campaign_merge");
const FIG5_BIN: &str = env!("CARGO_BIN_EXE_fig5_mse_cdf");
const FIG7_BIN: &str = env!("CARGO_BIN_EXE_fig7_quality");

#[test]
fn fig5_two_shard_merge_is_byte_identical_to_the_monolithic_binary_per_backend() {
    for backend in ["sram", "dram", "mlc"] {
        let dir = TempDir::new(&format!("fig5-{backend}"));
        let mono = dir.join("mono.json");
        let s0 = dir.join("s0.json");
        let s1 = dir.join("s1.json");
        let merged = dir.join("merged.json");

        run(
            FIG5_BIN,
            &["--backend", backend, "--samples", "2", "--json", &mono],
        );
        run(
            SHARD_BIN,
            &[
                "fig5",
                "--backend",
                backend,
                "--samples",
                "2",
                "--shard",
                "0/2",
                "--out",
                &s0,
            ],
        );
        run(
            SHARD_BIN,
            &[
                "fig5",
                "--backend",
                backend,
                "--samples",
                "2",
                "--shard",
                "1/2",
                "--out",
                &s1,
            ],
        );
        // Shard files may arrive in any order; merge sorts by shard index.
        run(MERGE_BIN, &[&s1, &s0, "--out", &merged]);

        assert_eq!(
            read(&mono),
            read(&merged),
            "{backend}: merged shards differ from the monolithic fig5 JSON"
        );
    }
}

#[test]
fn fig7_three_shard_merge_is_byte_identical_to_the_monolithic_binary() {
    let dir = TempDir::new("fig7");
    let mono = dir.join("mono.json");
    let merged = dir.join("merged.json");

    run(FIG7_BIN, &["elasticnet", "--samples", "1", "--json", &mono]);
    let mut shard_files = Vec::new();
    for index in 0..3 {
        let path = dir.join(&format!("s{index}.json"));
        run(
            SHARD_BIN,
            &[
                "fig7",
                "elasticnet",
                "--samples",
                "1",
                "--shard",
                &format!("{index}/3"),
                "--out",
                &path,
            ],
        );
        shard_files.push(path);
    }
    let mut args: Vec<&str> = shard_files.iter().map(String::as_str).collect();
    args.extend(["--out", &merged]);
    run(MERGE_BIN, &args);

    assert_eq!(
        read(&mono),
        read(&merged),
        "merged shards differ from the monolithic fig7 JSON"
    );
}

#[test]
fn completed_shard_files_are_checkpoints() {
    let dir = TempDir::new("resume");
    let mono = dir.join("mono.json");
    let s0 = dir.join("s0.json");
    let s1 = dir.join("s1.json");
    let merged = dir.join("merged.json");
    let shard_args = |shard: &str, out: &str| {
        vec![
            "fig5".to_owned(),
            "--samples".to_owned(),
            "2".to_owned(),
            "--shard".to_owned(),
            shard.to_owned(),
            "--out".to_owned(),
            out.to_owned(),
        ]
    };
    let run_shard = |shard: &str, out: &str| {
        let args = shard_args(shard, out);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        stdout_of(&run(SHARD_BIN, &args))
    };

    // First pass: both shards compute.
    assert!(!run_shard("0/2", &s0).contains("skipping"));
    assert!(!run_shard("1/2", &s1).contains("skipping"));
    let s0_bytes = read(&s0);
    let s0_state = state_of(&s0);
    let s1_state = state_of(&s1);

    // Second pass: both shard files are checkpoints — no recomputation
    // (the file is untouched, wall-clock telemetry and all).
    assert!(run_shard("0/2", &s0).contains("skipping"));
    assert!(run_shard("1/2", &s1).contains("skipping"));
    assert_eq!(read(&s0), s0_bytes);

    // Delete shard 0: re-running the campaign recomputes only the missing
    // shard; the surviving file is still honoured as a checkpoint. The
    // recomputed state is identical up to its (freshly measured)
    // wall-clock telemetry.
    std::fs::remove_file(Path::new(&s0)).unwrap();
    assert!(!run_shard("0/2", &s0).contains("skipping"));
    assert!(run_shard("1/2", &s1).contains("skipping"));
    assert_eq!(state_of(&s0), s0_state, "recomputed shard diverged");
    assert_eq!(state_of(&s1), s1_state);

    // A finished checkpoint in the retired v4 format is refused with its tag
    // named and recomputed, not skipped, to the same state.
    let current = format!("\"format\": \"{SHARD_STATE_FORMAT}\"");
    let retired = "\"format\": \"faultmit-shard-state/v4\"";
    let retagged = read(&s1).replacen(&current, retired, 1);
    assert!(retagged.contains(retired));
    std::fs::write(Path::new(&s1), retagged).unwrap();
    let args = shard_args("1/2", &s1);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let recompute = run(SHARD_BIN, &args);
    assert!(!stdout_of(&recompute).contains("skipping"));
    let refusal = String::from_utf8_lossy(&recompute.stderr);
    assert!(refusal.contains("'faultmit-shard-state/v4'"), "{refusal}");
    assert_eq!(state_of(&s1), s1_state, "recomputed v4 shard diverged");

    // A shard file from a different campaign configuration is recomputed,
    // not trusted.
    let foreign_args = ["fig5", "--samples", "3", "--shard", "0/2", "--out", &s0];
    let foreign = run(SHARD_BIN, &foreign_args);
    assert!(!stdout_of(&foreign).contains("skipping"));
    assert_ne!(state_of(&s0), s0_state);
    // Restore and verify the merged figure still matches the monolithic run.
    assert!(!run_shard("0/2", &s0).contains("skipping"));
    run(FIG5_BIN, &["--samples", "2", "--json", &mono]);
    run(MERGE_BIN, &[&s0, &s1, "--out", &merged]);
    assert_eq!(read(&mono), read(&merged));
}

#[test]
fn checkpoints_are_renamed_into_place_and_stale_temp_files_do_not_block_a_resume() {
    let dir = TempDir::new("atomic");
    let out = dir.join("s0.json");
    let temp = format!("{out}.tmp");
    let args = ["fig5", "--samples", "2", "--shard", "0/2", "--out", &out];
    let files = || -> Vec<String> {
        std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };

    run(SHARD_BIN, &args);
    assert_eq!(files(), ["s0.json"], "a temp file was left behind");
    let state = state_of(&out);

    // A run killed mid-write: the checkpoint never landed, a truncated temp
    // file did. The resume recomputes the shard and replaces the temp file.
    std::fs::remove_file(Path::new(&out)).unwrap();
    std::fs::write(Path::new(&temp), "{\"format\": \"faultmit-shard-st").unwrap();
    assert!(!stdout_of(&run(SHARD_BIN, &args)).contains("skipping"));
    assert_eq!(files(), ["s0.json"], "the stale temp file was left behind");
    assert_eq!(state_of(&out), state);
}

#[test]
fn campaign_shard_refuses_an_unparseable_shard_spec() {
    // A bad --shard (e.g. the 1-based typo 2/2) must be fatal, not a silent
    // fallback to the monolithic 0/1 shard.
    let dir = TempDir::new("bad-shard");
    let out = dir.join("s.json");
    let status = Command::new(SHARD_BIN)
        .args(["fig5", "--samples", "2", "--shard", "2/2", "--out", &out])
        .output()
        .unwrap();
    assert!(!status.status.success());
    assert!(!Path::new(&out).exists());
}

#[test]
fn merge_rejects_mismatched_or_incomplete_shard_sets() {
    let dir = TempDir::new("mismatch");
    let sram = dir.join("sram0.json");
    let dram = dir.join("dram1.json");
    run(
        SHARD_BIN,
        &["fig5", "--samples", "2", "--shard", "0/2", "--out", &sram],
    );
    run(
        SHARD_BIN,
        &[
            "fig5",
            "--backend",
            "dram",
            "--samples",
            "2",
            "--shard",
            "1/2",
            "--out",
            &dram,
        ],
    );

    // Backend mismatch.
    let status = Command::new(MERGE_BIN)
        .args([&sram, &dram, "--out", &dir.join("bad.json")])
        .output()
        .unwrap();
    assert!(!status.status.success());

    // Incomplete set (1 of 2 shards).
    let status = Command::new(MERGE_BIN)
        .args([&sram, "--out", &dir.join("bad.json")])
        .output()
        .unwrap();
    assert!(!status.status.success());
}

#[test]
fn every_monte_carlo_figure_reports_its_generation_time() {
    // One clock for every campaign: each figure that draws dies reports the
    // worker-seconds it spent generating them, and only the deterministic
    // tables report none.
    use faultmit_bench::figures::{registry, PanelState};
    use faultmit_bench::RunOptions;
    use faultmit_sim::{Parallelism, ShardSpec};
    let options = RunOptions::parse(["--samples", "1", "elasticnet"].map(str::to_owned));
    for figure in registry() {
        let spec = figure.spec(&options);
        let run = figure
            .run_shard(&spec, Parallelism::threads(1), ShardSpec::solo())
            .unwrap();
        let monte_carlo = run
            .panels
            .iter()
            .any(|panel| !matches!(panel, PanelState::Table { .. }));
        match run.generation_seconds {
            Some(seconds) => assert!(
                monte_carlo && seconds > 0.0,
                "{}: {seconds} generation seconds",
                figure.name()
            ),
            None => assert!(!monte_carlo, "{}: no generation time", figure.name()),
        }
    }
}
