//! Registry-wide gates for the multi-process campaign driver: for **every**
//! figure of the `faultmit_bench::figures` registry, `campaign_run
//! --figure <name> --shards K --jobs J` must render JSON **byte-identical**
//! to the monolithic figure binary at the same flags; checkpoints must be
//! reused, corrupted checkpoints must be detected and recomputed, and the
//! merge layer must reject mixed-figure shard sets with errors that name
//! the offending shard indices.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN_BIN: &str = env!("CARGO_BIN_EXE_campaign_run");
const SHARD_BIN: &str = env!("CARGO_BIN_EXE_campaign_shard");
const MERGE_BIN: &str = env!("CARGO_BIN_EXE_campaign_merge");
const FIG5_BIN: &str = env!("CARGO_BIN_EXE_fig5_mse_cdf");
const FIG2_BIN: &str = env!("CARGO_BIN_EXE_fig2_pcell_vs_vdd");

/// Every registered figure with the smallest budget that still exercises
/// its campaign, and the shard/job split the gate runs it at.
const CATALOGUE: &[(&str, &str, &[&str], usize)] = &[
    ("fig4", env!("CARGO_BIN_EXE_fig4_error_magnitude"), &[], 2),
    (
        "fig5",
        env!("CARGO_BIN_EXE_fig5_mse_cdf"),
        &["--samples", "2"],
        2,
    ),
    ("fig6", env!("CARGO_BIN_EXE_fig6_overhead"), &[], 3),
    (
        "fig7",
        env!("CARGO_BIN_EXE_fig7_quality"),
        &["elasticnet", "--samples", "1"],
        3,
    ),
    (
        "fig8",
        env!("CARGO_BIN_EXE_fig8_backend_matrix"),
        &["--samples", "2"],
        2,
    ),
    (
        "fig9",
        env!("CARGO_BIN_EXE_fig9_data_sensitivity"),
        &["--backend", "mlc", "--samples", "2"],
        3,
    ),
    (
        "ablation_lut_write_path",
        env!("CARGO_BIN_EXE_ablation_lut_write_path"),
        &[],
        2,
    ),
    (
        "ablation_shift_policy",
        env!("CARGO_BIN_EXE_ablation_shift_policy"),
        &["--samples", "2"],
        3,
    ),
    (
        "table1",
        env!("CARGO_BIN_EXE_table1_applications"),
        &["--samples", "32"],
        2,
    ),
];

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "faultmit-registry-pipeline-{label}-{}",
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

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn driver_args<'a>(
    figure: &'a str,
    flags: &[&'a str],
    shards: &'a str,
    dir: &'a str,
    out: &'a str,
) -> Vec<&'a str> {
    let mut args = vec!["--figure", figure, "--shards", shards, "--jobs", "2"];
    args.extend_from_slice(flags);
    args.extend(["--dir", dir, "--out", out]);
    args
}

#[test]
fn campaign_run_matches_every_monolithic_binary_in_the_registry() {
    // The full-registry acceptance gate: any K, any J, byte-identical JSON.
    for &(figure, mono_bin, flags, shard_count) in CATALOGUE {
        let dir = TempDir::new(&format!("loop-{figure}"));
        let mono = dir.join("mono.json");
        let merged = dir.join("merged.json");
        let shard_dir = dir.join("shards");
        let shards = shard_count.to_string();

        let mut mono_args: Vec<&str> = flags.to_vec();
        mono_args.extend(["--json", &mono]);
        run(mono_bin, &mono_args);

        run(
            RUN_BIN,
            &driver_args(figure, flags, &shards, &shard_dir, &merged),
        );

        assert_eq!(
            read(&mono),
            read(&merged),
            "{figure}: campaign_run ({shard_count} shards) differs from the monolithic binary"
        );
    }
}

#[test]
fn campaign_run_reuses_checkpoints_and_recovers_a_corrupted_shard() {
    let dir = TempDir::new("recover");
    let mono = dir.join("mono.json");
    let merged = dir.join("merged.json");
    let shard_dir = dir.join("shards");

    run(
        env!("CARGO_BIN_EXE_fig5_mse_cdf"),
        &["--samples", "2", "--json", &mono],
    );
    let flags: &[&str] = &["--samples", "2"];
    run(
        RUN_BIN,
        &driver_args("fig5", flags, "3", &shard_dir, &merged),
    );
    assert_eq!(read(&mono), read(&merged));

    // Second run: every shard checkpoint is honoured (children report the
    // skip on the driver's inherited stdout).
    let output = run(
        RUN_BIN,
        &driver_args("fig5", flags, "3", &shard_dir, &merged),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        stdout.matches("skipping").count(),
        3,
        "expected all 3 checkpoints to be reused:\n{stdout}"
    );

    // Corrupt one checkpoint (a simulated killed/garbled shard): the driver
    // must detect, recompute only that shard, and still render identical
    // bytes.
    let corrupted = Path::new(&shard_dir).join("fig5-1of3.json");
    std::fs::write(&corrupted, "{\"format\": \"garbage\"").unwrap();
    let output = run(
        RUN_BIN,
        &driver_args("fig5", flags, "3", &shard_dir, &merged),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        stdout.matches("skipping").count(),
        2,
        "only the surviving checkpoints may be skipped:\n{stdout}"
    );
    assert!(
        stderr.contains("not a valid shard file"),
        "the corrupted checkpoint must be reported:\n{stderr}"
    );
    assert_eq!(read(&mono), read(&merged));
}

#[test]
fn campaign_run_lists_the_registry() {
    let output = run(RUN_BIN, &["--figure", "list"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    for &(figure, _, _, _) in CATALOGUE {
        assert!(stdout.contains(figure), "missing {figure}:\n{stdout}");
    }
}

#[test]
fn campaign_run_rejects_unknown_figures() {
    let output = Command::new(RUN_BIN)
        .args(["--figure", "fig99", "--shards", "2"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown figure"), "{stderr}");
}

#[test]
fn unknown_fig7_benchmark_selectors_fail_before_any_output() {
    let dir = TempDir::new("selector");
    let out = dir.join("fig7.json");
    let shards = dir.join("shards");
    let shard_args = ["--figure", "fig7", "--shard", "0/1", "--out", &out];
    let run_args = driver_args("fig7", &[], "2", &shards, &out);
    for (binary, args) in [
        (
            env!("CARGO_BIN_EXE_fig7_quality"),
            vec!["knn_typo", "--samples", "1", "--json", &out],
        ),
        (SHARD_BIN, [&shard_args[..], &["knn_typo"]].concat()),
        (RUN_BIN, [&run_args[..], &["knn_typo"]].concat()),
    ] {
        let output = Command::new(binary).args(&args).output().unwrap();
        assert!(!output.status.success(), "{binary} {args:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown benchmark 'knn_typo'")
                && stderr.contains("elasticnet|wine, pca|madelon, knn|har|activity"),
            "{binary}: {stderr}"
        );
        assert!(!Path::new(&out).exists(), "{binary} wrote {out}");
    }
}

#[test]
fn removed_kernel_names_fail_before_any_output() {
    let dir = TempDir::new("removed-kernel");
    let out = dir.join("fig5.json");
    let shards = dir.join("shards");
    let shard_args = ["--figure", "fig5", "--shard", "0/1", "--out", &out];
    let run_args = driver_args("fig5", &["--samples", "1"], "2", &shards, &out);
    for removed in ["bitsliced256", "auto"] {
        let kernel = ["--kernel", removed];
        for (binary, args) in [
            (
                env!("CARGO_BIN_EXE_fig5_mse_cdf"),
                vec!["--samples", "1", "--json", &out],
            ),
            (SHARD_BIN, shard_args.to_vec()),
            (RUN_BIN, run_args.clone()),
        ] {
            let args = [&args[..], &kernel[..]].concat();
            let output = Command::new(binary).args(&args).output().unwrap();
            assert!(!output.status.success(), "{binary} {args:?} must fail");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(&format!("kernel '{removed}' was removed"))
                    && stderr.contains("(expected sparse|bitsliced)"),
                "{binary}: {stderr}"
            );
            assert!(!Path::new(&out).exists(), "{binary} wrote {out}");
            assert!(!Path::new(&shards).exists(), "{binary} wrote {shards}");
        }
    }
}

#[test]
fn removed_tuning_flags_fail_before_any_output() {
    // `--wide-generation` and `--auto-threshold` were removed: every
    // campaign entry point refuses them by name instead of swallowing the
    // flag (or its value) as a positional argument.
    let dir = TempDir::new("removed-tuning");
    let out = dir.join("fig.json");
    let shards = dir.join("shards");
    let shard_args = ["--figure", "fig5", "--shard", "0/1", "--out", &out];
    let run_args = driver_args("fig5", &["--samples", "1"], "2", &shards, &out);
    for removed in [["--wide-generation", "off"], ["--auto-threshold", "0.25"]] {
        for (binary, args) in [
            (
                env!("CARGO_BIN_EXE_fig5_mse_cdf"),
                vec!["--samples", "1", "--json", &out],
            ),
            (
                env!("CARGO_BIN_EXE_fig7_quality"),
                vec!["--samples", "1", "--json", &out],
            ),
            (SHARD_BIN, shard_args.to_vec()),
            (RUN_BIN, run_args.clone()),
        ] {
            let args = [&args[..], &removed[..]].concat();
            let output = Command::new(binary).args(&args).output().unwrap();
            assert!(!output.status.success(), "{binary} {args:?} must fail");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(&format!("{} was removed", removed[0])),
                "{binary}: {stderr}"
            );
            assert!(!Path::new(&out).exists(), "{binary} wrote {out}");
            assert!(!Path::new(&shards).exists(), "{binary} wrote {shards}");
        }
    }
}

#[test]
fn backend_and_samples_typos_fail_before_any_output() {
    // Both flags are campaign identity: a typo must not silently run the
    // SRAM default or the figure's default budget and write its output
    // (or a checkpoint whose spec names a campaign nobody asked for). A
    // typo in an operating-point flag must not run the default sweep, a
    // typo in a driver flag must not change the split, and a zero budget
    // must not run as 1. The refused value is reported once, as the
    // binary's error, and never announced as ignored; no entry point,
    // `campaign_merge` included, drops one.
    let dir = TempDir::new("identity-typo");
    let out = dir.join("fig.json");
    let shards = dir.join("shards");
    let shard_args = ["--figure", "fig5", "--shard", "0/2", "--out", &out];
    let run_args = driver_args("fig5", &[], "2", &shards, &out);
    let shard_file = dir.join("fig5-0of2.json");
    let fig5_args = ["--samples", "2", "--json", &out];
    let typos: [(&[&str], &str); 8] = [
        (&["--backend", "drma"], "unknown backend 'drma'"),
        (&["--samples", "2x"], "invalid --samples value '2x'"),
        (&["--t-ref-ns", "64ms"], "invalid --t-ref-ns value '64ms'"),
        (&["--temp-c", "85C"], "invalid --temp-c value '85C'"),
        (&["--temp-c"], "--temp-c requires a value"),
        (&["--shards", "1O"], "invalid --shards value '1O'"),
        (&["--jobs"], "--jobs requires a value"),
        (
            &["--samples", "0"],
            "invalid --samples value '0' (must be at least 1)",
        ),
    ];
    for (typo, message) in typos {
        for (binary, args) in [
            (FIG5_BIN, fig5_args.to_vec()),
            (FIG2_BIN, vec!["--backend", "dram", "--json", &out]),
            (
                env!("CARGO_BIN_EXE_fig7_quality"),
                vec!["elasticnet", "--samples", "1", "--json", &out],
            ),
            (SHARD_BIN, shard_args.to_vec()),
            (RUN_BIN, run_args.clone()),
            (MERGE_BIN, vec![&shard_file, "--out", &out]),
        ] {
            let args = [&args[..], typo].concat();
            let output = Command::new(binary).args(&args).output().unwrap();
            assert!(!output.status.success(), "{binary} {args:?} must fail");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(stderr.matches(message).count(), 1, "{binary}: {stderr}");
            assert!(!stderr.contains("ignoring"), "{binary}: {stderr}");
            assert!(!Path::new(&out).exists(), "{binary} wrote {out}");
            assert!(!Path::new(&shards).exists(), "{binary} wrote {shards}");
        }
    }

    // A valid flag given to a run that would drop it is refused, naming the
    // flag once and the runs that read it.
    let fig2_args = ["--json", &out];
    let merge_args = [&shard_file, "--out", &out];
    let identity = "the figure binaries, campaign_shard and campaign_run";
    let sweeps = "the figure binaries, fig2_pcell_vs_vdd, campaign_shard and campaign_run";
    let dram = "fig2_pcell_vs_vdd --backend dram";
    // The last flag of each case's extra arguments is the one dropped.
    let dropped: [(&str, &[&str], &[&str], &str); 18] = [
        (FIG5_BIN, &fig5_args, &["--shard", "1/2"], "campaign_shard"),
        (SHARD_BIN, &shard_args, &["--shards", "4"], "campaign_run"),
        (RUN_BIN, &run_args, &["--shard", "1/2"], "campaign_shard"),
        (FIG5_BIN, &fig5_args, &["--temp-c", "85"], dram),
        (SHARD_BIN, &shard_args, &["--t-ref-ns", "6.4e7"], dram),
        (RUN_BIN, &run_args, &["--temp-c", "85"], dram),
        (FIG2_BIN, &fig2_args, &["--samples", "5"], identity),
        (FIG2_BIN, &fig2_args, &["--image", "random"], identity),
        (FIG2_BIN, &fig2_args, &["--kind-law", "stuck-at"], identity),
        (FIG2_BIN, &fig2_args, &["--kernel", "bitsliced"], identity),
        (
            FIG2_BIN,
            &fig2_args,
            &["--backend", "mlc", "--temp-c", "85"],
            dram,
        ),
        (
            FIG2_BIN,
            &fig2_args,
            &["--backend", "sram", "--t-ref-ns", "6.4e7"],
            dram,
        ),
        (
            FIG2_BIN,
            &fig2_args,
            &["--backend", "dram", "--t-ref-ns", "6.4e7", "--temp-c", "85"],
            dram,
        ),
        (MERGE_BIN, &merge_args, &["--samples", "7"], identity),
        (MERGE_BIN, &merge_args, &["--backend", "dram"], sweeps),
        (MERGE_BIN, &merge_args, &["--full"], sweeps),
        (MERGE_BIN, &merge_args, &["--kernel", "bitsliced"], identity),
        (MERGE_BIN, &merge_args, &["--temp-c", "85"], dram),
    ];
    for (binary, args, extra, reader) in dropped {
        let flag = extra.iter().rfind(|arg| arg.starts_with("--")).unwrap();
        let output = Command::new(binary)
            .args(args)
            .args(extra)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{binary} {extra:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.matches(flag).count(), 1, "{binary}: {stderr}");
        let readers = format!("is read only by {reader}");
        assert!(stderr.contains(&readers), "{binary}: {stderr}");
        assert!(!Path::new(&out).exists(), "{binary} wrote {out}");
        assert!(!Path::new(&shards).exists(), "{binary} wrote {shards}");
    }

    // `--threads` sets throughput, not identity: a bad value is dropped
    // with one warning, and the run goes on to write its figure.
    let output = Command::new(FIG5_BIN)
        .args(["--samples", "2", "--threads", "two", "--json", &out])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert_eq!(
        stderr
            .matches("invalid --threads value 'two'; ignoring")
            .count(),
        1,
        "{stderr}"
    );
    assert!(Path::new(&out).exists(), "no figure written to {out}");
}

#[test]
fn merge_rejects_mixed_figure_shard_sets_by_name() {
    let dir = TempDir::new("mixed");
    let fig5 = dir.join("fig5-0of2.json");
    let fig4 = dir.join("fig4-1of2.json");
    run(
        SHARD_BIN,
        &[
            "--figure",
            "fig5",
            "--samples",
            "2",
            "--shard",
            "0/2",
            "--out",
            &fig5,
        ],
    );
    run(
        SHARD_BIN,
        &["--figure", "fig4", "--shard", "1/2", "--out", &fig4],
    );

    let output = Command::new(MERGE_BIN)
        .args([&fig5, &fig4, "--out", &dir.join("bad.json")])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("mix figures"), "{stderr}");
    assert!(stderr.contains("fig4"), "{stderr}");
}

#[test]
fn merge_errors_enumerate_missing_shard_indices() {
    // Shards 0 and 3 of a 4-way fig6 campaign: the merge error must name
    // exactly the missing indices 1 and 2 instead of stopping at the first.
    let dir = TempDir::new("missing");
    let s0 = dir.join("s0.json");
    let s3 = dir.join("s3.json");
    run(
        SHARD_BIN,
        &["--figure", "fig6", "--shard", "0/4", "--out", &s0],
    );
    run(
        SHARD_BIN,
        &["--figure", "fig6", "--shard", "3/4", "--out", &s3],
    );

    let output = Command::new(MERGE_BIN)
        .args([&s0, &s3, "--out", &dir.join("bad.json")])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing shard(s) [1, 2]"), "{stderr}");
    assert!(stderr.contains("4-shard set"), "{stderr}");
}
