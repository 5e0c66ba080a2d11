//! The one command-line parser shared by every figure/ablation binary.
//!
//! Historically each binary hand-rolled its flag handling; this module
//! centralises it so a flag added here (like the `--backend` technology
//! axis) is picked up by all of them at once. Recognised flags:
//!
//! * `--full` / `--full-scale` — run at the paper's full Monte-Carlo scale;
//! * `--json <path>` (alias `--out <path>`) — write the machine-readable
//!   series;
//! * `--threads <n>` — pin the pipeline worker count (`1` = serial);
//! * `--samples <n>` — override the number of fault maps per failure count;
//! * `--backend <sram|dram|mlc>` — select the fault-generation technology
//!   ([`faultmit_memsim::backend`]); the default is the paper's SRAM model;
//! * `--shard <I/K>` — evaluate only shard `I` of a `K`-way campaign split
//!   (the `campaign_shard` axis; see [`faultmit_sim::ShardSpec`]);
//! * `--figure <name>` — select a figure from the
//!   [`crate::figures`] registry (the `campaign_shard` / `campaign_merge` /
//!   `campaign_run` axis);
//! * `--shards <K>` / `--jobs <J>` / `--retries <R>` / `--dir <path>` —
//!   `campaign_run` driver controls: split the campaign into `K` shards,
//!   run at most `J` `campaign_shard` child processes at a time, retry a
//!   failed shard up to `R` times, and keep shard checkpoints under `path`;
//! * `--t-ref-ns <ns>` / `--temp-c <C>` — DRAM-retention operating-point
//!   sweep controls: pin the refresh interval (switching `fig2`'s DRAM
//!   analogue to a temperature sweep) or set the sweep temperature (see
//!   [`LawSweep`]);
//! * `--image <spec>` — the data image a data-aware campaign evaluates
//!   faults against (`zeros|ones|random[:seed]|sparse[:seed]|wine|`
//!   `madelon|har`, see [`faultmit_memsim::image`]); `fig9_data_sensitivity`
//!   restricts its image sweep to the given image;
//! * `--kind-law <law>` — how faulty cells behave (`flip|stuck-at|`
//!   `stuck-at:P` with `P = Pr(stuck at 0)`, see
//!   [`faultmit_memsim::FaultKindLaw`]); honoured by
//!   `fig8_backend_matrix` and `fig9_data_sensitivity`;
//! * `--kernel <sparse|bitsliced>` — the Monte-Carlo evaluation kernel
//!   ([`faultmit_sim::KernelKind`]); both kernels produce bit-identical
//!   campaign state, so this selects throughput only. The removed names
//!   (`scalar`, `bitsliced256` and the `auto` density policy) are refused,
//!   never remapped. Honoured by the MSE catalogue campaigns
//!   (`fig5_mse_cdf`, `fig8_backend_matrix`, `fig9_data_sensitivity`).
//!
//! Every refused value goes into one list, [`RunOptions::flag_errors`], in
//! command-line order: a missing or unparseable value of a
//! campaign-identity flag (`--backend`, `--samples`, `--image`,
//! `--kind-law`, `--kernel`), of an operating-point flag (`--t-ref-ns`,
//! `--temp-c`), of `--shard` or of a driver flag (`--shards`, `--jobs`,
//! `--retries`); a zero `--samples`, `--shards` or `--jobs`; and the
//! removed tuning flags `--wide-generation` and `--auto-threshold` (with
//! their value, if one follows). Every entry point refuses the whole list
//! through [`RunOptions::refuse_flag_errors`] before any output, which also
//! refuses any valid non-lenient flag the run would drop and names the runs
//! that read it: `campaign_merge` reads none (its shard files carry the
//! campaign), `fig2_pcell_vs_vdd` reads `--full`, `--backend` and, on
//! DRAM, the operating-point flags. Each error is reported once, as the
//! binary's `Error:` line; parsing prints nothing for it.
//!
//! Only the lenient flags drop a bad value and run on: `--threads` (it sets
//! throughput, not identity), `--json`, `--metrics`, `--figure` and
//! `--dir`. They warn "…; ignoring" on stderr. Anything else is collected
//! as a positional argument (e.g. the benchmark selector of
//! `fig7_quality`).

use crate::json::ToJson;
use faultmit_memsim::{
    BackendKind, DramRetentionBackend, FaultKindLaw, ImageSpec, MemError, MemoryConfig,
    MlcNvmBackend,
};
use faultmit_sim::{KernelKind, Parallelism, ShardSpec};
use std::path::PathBuf;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Run at the paper's full scale (slower); the default is a reduced but
    /// shape-preserving configuration.
    pub full_scale: bool,
    /// Optional path to write the JSON series to (`--json` / `--out`).
    pub json_path: Option<PathBuf>,
    /// Optional path to write the aggregated metrics report to
    /// (`--metrics <path>`). Metrics never feed back into panel states, so
    /// figure JSON stays byte-identical whether or not this is set.
    pub metrics_path: Option<PathBuf>,
    /// Optional worker-thread count for the simulation pipeline
    /// (`None` = one worker per CPU).
    pub threads: Option<usize>,
    /// Optional override of the Monte-Carlo samples per failure count.
    pub samples: Option<usize>,
    /// Fault-generation technology selected with `--backend`
    /// (`None` = the paper's SRAM model).
    pub backend: Option<BackendKind>,
    /// Campaign shard selected with `--shard I/K`
    /// (`None` = run the whole campaign, i.e. the `0/1` shard).
    pub shard: Option<ShardSpec>,
    /// Figure selected with `--figure <name>` (a [`crate::figures`]
    /// registry name; `None` = take the figure from the first positional
    /// argument, the historical `campaign_shard` convention).
    pub figure: Option<String>,
    /// Campaign split requested with `--shards K` (`campaign_run`).
    pub shards: Option<usize>,
    /// Maximum concurrent shard child processes, `--jobs J`
    /// (`campaign_run`).
    pub jobs: Option<usize>,
    /// Per-shard retry budget, `--retries R` (`campaign_run`).
    pub retries: Option<usize>,
    /// Shard-checkpoint directory, `--dir <path>` (`campaign_run`).
    pub dir: Option<PathBuf>,
    /// Fixed DRAM refresh interval in nanoseconds (`--t-ref-ns`); when set,
    /// the `fig2` DRAM analogue sweeps the temperature axis at this refresh
    /// interval instead of sweeping the refresh interval itself.
    pub t_ref_ns: Option<f64>,
    /// DRAM die temperature in °C (`--temp-c`) used by the refresh-interval
    /// sweep (`None` = the 45 °C reference).
    pub temp_c: Option<f64>,
    /// Data image selected with `--image <spec>` (`None` = the figure's
    /// default — the all-zeros background for single-image campaigns, the
    /// full image sweep for `fig9_data_sensitivity`).
    pub image: Option<ImageSpec>,
    /// Fault-kind law selected with `--kind-law <law>` (`None` = the
    /// figure's default).
    pub kind_law: Option<FaultKindLaw>,
    /// Evaluation kernel selected with `--kernel <name>` (`None` = the
    /// engine default, the event-driven sparse kernel). Kernels are
    /// bit-identical, so this is a throughput knob — but it is still part
    /// of the campaign spec so shard checkpoints record which kernel
    /// produced them.
    pub kernel: Option<KernelKind>,
    /// Every refused flag value, in command-line order (see the module
    /// docs); [`RunOptions::refuse_flag_errors`] refuses the run on any.
    pub flag_errors: Vec<String>,
    /// Positional arguments (e.g. the benchmark selector of `fig7_quality`).
    pub positional: Vec<String>,
}

impl RunOptions {
    /// Parses options from the process arguments (skipping the binary name).
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit iterator (used in tests).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        let mut iter = args.into_iter().peekable();
        // A flag's value is only consumed when the next token is not itself
        // a flag, so `--threads --full` complains instead of silently eating
        // `--full`.
        let next_value = |iter: &mut std::iter::Peekable<I::IntoIter>| match iter.peek() {
            Some(value) if !value.starts_with("--") => iter.next(),
            _ => None,
        };
        // The lenient flags drop a missing value with a warning; every other
        // flag's missing value is recorded and reported once, as the
        // binary's error.
        let lenient_value = |iter: &mut std::iter::Peekable<I::IntoIter>, flag: &str| {
            let value = next_value(iter);
            if value.is_none() {
                eprintln!("{flag} requires a value; ignoring");
            }
            value
        };
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" | "--full-scale" => options.full_scale = true,
                "--json" | "--out" => {
                    if let Some(path) = lenient_value(&mut iter, &arg) {
                        options.json_path = Some(PathBuf::from(path));
                    }
                }
                "--metrics" => {
                    if let Some(path) = lenient_value(&mut iter, &arg) {
                        options.metrics_path = Some(PathBuf::from(path));
                    }
                }
                "--threads" => {
                    if let Some(value) = lenient_value(&mut iter, &arg) {
                        match value.parse() {
                            Ok(count) => options.threads = Some(count),
                            Err(_) => eprintln!("invalid {arg} value '{value}'; ignoring"),
                        }
                    }
                }
                "--samples" => {
                    let value = next_value(&mut iter);
                    options.samples = options.strict_value(&arg, value, |v| count(&arg, v));
                }
                "--backend" => {
                    let value = next_value(&mut iter);
                    options.backend = options.strict_value(&arg, value, str::parse);
                }
                "--shard" => {
                    let value = next_value(&mut iter);
                    options.shard = options.strict_value(&arg, value, |v| {
                        v.parse().map_err(|_| {
                            format!("invalid {arg} value '{v}' (must be I/K with 0 <= I < K)")
                        })
                    });
                }
                "--figure" => {
                    if let Some(name) = lenient_value(&mut iter, &arg) {
                        options.figure = Some(name);
                    }
                }
                "--shards" => {
                    let value = next_value(&mut iter);
                    options.shards = options.strict_value(&arg, value, |v| count(&arg, v));
                }
                "--jobs" => {
                    let value = next_value(&mut iter);
                    options.jobs = options.strict_value(&arg, value, |v| count(&arg, v));
                }
                "--retries" => {
                    let value = next_value(&mut iter);
                    options.retries = options.strict_value(&arg, value, |v| number(&arg, v));
                }
                "--dir" => {
                    if let Some(path) = lenient_value(&mut iter, &arg) {
                        options.dir = Some(PathBuf::from(path));
                    }
                }
                "--image" => {
                    let value = next_value(&mut iter);
                    options.image = options.strict_value(&arg, value, str::parse);
                }
                "--kind-law" => {
                    let value = next_value(&mut iter);
                    options.kind_law = options.strict_value(&arg, value, str::parse);
                }
                "--kernel" => {
                    let value = next_value(&mut iter);
                    options.kernel = options.strict_value(&arg, value, str::parse);
                }
                "--wide-generation" | "--auto-threshold" => {
                    // Consume the flag's old value so it is not mistaken
                    // for a positional argument.
                    if iter.peek().is_some_and(|value| !value.starts_with("--")) {
                        iter.next();
                    }
                    options.flag_errors.push(format!(
                        "{arg} was removed; drop the flag (it tuned throughput, never results)"
                    ));
                }
                "--t-ref-ns" => {
                    let value = next_value(&mut iter);
                    options.t_ref_ns = options.strict_value(&arg, value, |v| number(&arg, v));
                }
                "--temp-c" => {
                    let value = next_value(&mut iter);
                    options.temp_c = options.strict_value(&arg, value, |v| number(&arg, v));
                }
                _ => options.positional.push(arg),
            }
        }
        options
    }

    /// Parses the value of a flag whose bad value is refused. A missing or
    /// unparseable value yields `None` and is recorded in
    /// [`RunOptions::flag_errors`]; nothing is printed here.
    fn strict_value<T, E: std::fmt::Display>(
        &mut self,
        flag: &str,
        value: Option<String>,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Option<T> {
        let Some(value) = value else {
            self.flag_errors.push(format!("{flag} requires a value"));
            return None;
        };
        parse(&value)
            .map_err(|e| self.flag_errors.push(e.to_string()))
            .ok()
    }

    /// Refuses the run when any flag value was refused, or when a valid
    /// non-lenient flag is given to a run that would drop it. `reads` lists
    /// the non-lenient flags the calling entry point reads (the registry
    /// binaries read [`IDENTITY_FLAGS`]). Every entry point calls this
    /// before any output.
    ///
    /// # Errors
    ///
    /// Returns every refused value in one message, the binary's `Error:`
    /// line; a dropped flag's message names the runs that read it.
    pub fn refuse_flag_errors(&self, reads: &[&str]) -> Result<(), String> {
        let campaigns = "the figure binaries, campaign_shard and campaign_run";
        let sweeps = "the figure binaries, fig2_pcell_vs_vdd, campaign_shard and campaign_run";
        let dram = "fig2_pcell_vs_vdd --backend dram";
        let dram_sweep = "fig2_pcell_vs_vdd --backend dram without --t-ref-ns";
        // Every non-lenient flag with its value, if given, and the runs that
        // read it.
        let flags = [
            ("--full", sweeps, self.full_scale.then(String::new)),
            ("--samples", campaigns, shown(self.samples)),
            ("--backend", sweeps, shown(self.backend)),
            ("--image", campaigns, shown(self.image)),
            ("--kind-law", campaigns, shown(self.kind_law)),
            ("--kernel", campaigns, shown(self.kernel)),
            ("--t-ref-ns", dram, shown(self.t_ref_ns)),
            ("--temp-c", dram_sweep, shown(self.temp_c)),
            ("--shard", "campaign_shard", shown(self.shard)),
            ("--shards", "campaign_run", shown(self.shards)),
            ("--jobs", "campaign_run", shown(self.jobs)),
            ("--retries", "campaign_run", shown(self.retries)),
        ];
        let mut errors = self.flag_errors.clone();
        for (flag, readers, value) in flags {
            if let Some(value) = value.filter(|_| !reads.contains(&flag)) {
                let given = format!("{flag} {value}");
                errors.push(format!(
                    "{} is read only by {readers}; this run would drop it",
                    given.trim_end()
                ));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// The pipeline worker policy implied by `--threads` (defaults to one
    /// worker per CPU).
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        match self.threads {
            Some(threads) => Parallelism::threads(threads),
            None => Parallelism::Auto,
        }
    }

    /// The selected backend technology (defaults to the paper's SRAM
    /// voltage-scaling model).
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.unwrap_or(BackendKind::Sram)
    }

    /// The campaign shard implied by `--shard` (defaults to the monolithic
    /// `0/1` shard).
    #[must_use]
    pub fn shard_or_solo(&self) -> ShardSpec {
        self.shard.unwrap_or_else(ShardSpec::solo)
    }

    /// The Monte-Carlo samples per failure count: the `--samples` override
    /// when given, otherwise `default`.
    #[must_use]
    pub fn samples_or(&self, default: usize) -> usize {
        self.samples.unwrap_or(default)
    }

    /// Writes `value` as pretty JSON to the configured path, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json<T: ToJson + ?Sized>(
        &self,
        value: &T,
    ) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(path) = &self.json_path {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(path, value.to_json().to_pretty_string())?;
            println!("wrote JSON series to {}", path.display());
        }
        Ok(())
    }

    /// Writes the aggregated metrics report for `metrics` to the
    /// `--metrics` path, if one was given.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_metrics(
        &self,
        metrics: &crate::metrics::ShardMetrics,
    ) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(path) = &self.metrics_path {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let report = crate::metrics::metrics_report(metrics);
            std::fs::write(path, report.to_pretty_string())?;
            println!("wrote metrics report to {}", path.display());
        }
        Ok(())
    }
}

/// The campaign-identity flags the registry figure binaries,
/// `campaign_shard` and `campaign_run` read. A figure whose spec drops one
/// refuses it in [`crate::figures::check_identity_flags`].
pub const IDENTITY_FLAGS: [&str; 6] = [
    "--full",
    "--samples",
    "--backend",
    "--image",
    "--kind-law",
    "--kernel",
];

/// A given flag value, spelt as its flag parses it back.
fn shown(value: Option<impl std::fmt::Display>) -> Option<String> {
    value.map(|value| value.to_string())
}

/// Parses a numeric flag value, naming the flag and the value on failure.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value '{value}'"))
}

/// Parses a count flag value, which must be at least 1.
fn count(flag: &str, value: &str) -> Result<usize, String> {
    match number(flag, value)? {
        0 => Err(format!(
            "invalid {flag} value '{value}' (must be at least 1)"
        )),
        count => Ok(count),
    }
}

/// The operating-point axis a non-SRAM `fig2`-style law sweep walks,
/// resolved from the shared `--t-ref-ns` / `--temp-c` flags.
///
/// The DRAM-retention operating point is two-dimensional, so both axes are
/// sweepable: the default walks the refresh interval at `--temp-c` (default
/// 45 °C), while `--t-ref-ns <ns>` pins the refresh interval and walks the
/// die temperature instead. MLC NVM sweeps its level spacing at one day of
/// drift. This used to be hand-rolled per backend inside
/// `fig2_pcell_vs_vdd`; [`LawSweep::for_backend`] is the shared resolution
/// every consumer goes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepAxis {
    /// DRAM: sweep the refresh interval (ms) at a fixed die temperature.
    RefreshInterval {
        /// Die temperature (°C) the sweep is evaluated at.
        temperature_c: f64,
    },
    /// DRAM: sweep the die temperature (°C) at a pinned refresh interval.
    Temperature {
        /// The pinned refresh interval (ms).
        refresh_interval_ms: f64,
    },
    /// MLC NVM: sweep the level spacing (σ) at one day of drift.
    LevelSpacing,
}

/// A resolved backend law sweep: the axis, its knob grid and its labels —
/// everything a `fig2`-style binary needs to print and evaluate the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LawSweep {
    /// Which operating-point axis is swept.
    pub axis: SweepAxis,
    /// Knob values, ordered from conservative to aggressive.
    pub knobs: Vec<f64>,
    /// Unit tag recorded in the JSON series (`"ms"`, `"C"`, `"sigma"`).
    pub knob_unit: &'static str,
    /// Table column header for the knob.
    pub knob_header: &'static str,
    /// Human-readable sweep title.
    pub title: String,
}

impl LawSweep {
    /// Resolves the sweep for a non-SRAM backend from the shared
    /// operating-point flags. Returns `None` for
    /// [`BackendKind::Sram`] — the SRAM analogue is the paper's own
    /// `V_DD` sweep, which has its own grid.
    #[must_use]
    pub fn for_backend(kind: BackendKind, options: &RunOptions) -> Option<Self> {
        match kind {
            BackendKind::Sram => None,
            BackendKind::Dram => Some(match options.t_ref_ns {
                // 1 ms = 1e6 ns; the CLI takes nanoseconds, the backend
                // milliseconds.
                Some(t_ref_ns) => {
                    let refresh_interval_ms = t_ref_ns / 1e6;
                    Self {
                        axis: SweepAxis::Temperature {
                            refresh_interval_ms,
                        },
                        knobs: (0..9).map(|i| 25.0 + 10.0 * f64::from(i)).collect(),
                        knob_unit: "C",
                        knob_header: "T (C)",
                        title: format!(
                            "Fig. 2 (DRAM analogue) — P_cell vs temperature \
                             (t_ref = {refresh_interval_ms} ms, 16KB memory)"
                        ),
                    }
                }
                None => {
                    let temperature_c = options.temp_c.unwrap_or(45.0);
                    Self {
                        axis: SweepAxis::RefreshInterval { temperature_c },
                        knobs: vec![4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
                        knob_unit: "ms",
                        knob_header: "t_ref (ms)",
                        title: format!(
                            "Fig. 2 (DRAM analogue) — P_cell vs refresh interval \
                             ({temperature_c:.0}C, 16KB memory)"
                        ),
                    }
                }
            }),
            BackendKind::Mlc => Some(Self {
                axis: SweepAxis::LevelSpacing,
                knobs: (0..10).map(|i| 16.0 - f64::from(i)).collect(),
                knob_unit: "sigma",
                knob_header: "spacing (sigma)",
                title: "Fig. 2 (MLC analogue) — P_cell vs level spacing \
                        (1-day drift, 16KB memory)"
                    .to_owned(),
            }),
        }
    }

    /// The marginal per-cell failure probability of the swept backend at
    /// one knob value on the given geometry.
    ///
    /// # Errors
    ///
    /// Propagates backend-construction errors (an out-of-domain knob).
    pub fn p_cell(&self, memory: MemoryConfig, knob: f64) -> Result<f64, MemError> {
        Ok(match self.axis {
            SweepAxis::RefreshInterval { temperature_c } => {
                DramRetentionBackend::new(memory, knob, temperature_c)?.p_cell()
            }
            SweepAxis::Temperature {
                refresh_interval_ms,
            } => DramRetentionBackend::new(memory, refresh_interval_ms, knob)?.p_cell(),
            SweepAxis::LevelSpacing => MlcNvmBackend::new(memory, knob, 86_400.0)?.p_cell(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn parse_recognises_flags_and_positionals() {
        let opts = RunOptions::parse(
            [
                "--full",
                "elasticnet",
                "--json",
                "out/series.json",
                "--threads",
                "4",
                "--samples",
                "25",
                "--backend",
                "dram",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        assert!(opts.full_scale);
        assert_eq!(opts.positional, vec!["elasticnet".to_owned()]);
        assert_eq!(opts.json_path, Some(PathBuf::from("out/series.json")));
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.samples, Some(25));
        assert_eq!(opts.samples_or(100), 25);
        assert_eq!(opts.backend, Some(BackendKind::Dram));
        assert_eq!(opts.backend_kind(), BackendKind::Dram);
        assert_eq!(opts.parallelism(), Parallelism::threads(4));
        assert!(opts.flag_errors.is_empty());
    }

    #[test]
    fn parse_defaults_are_empty() {
        let opts = RunOptions::parse(std::iter::empty());
        assert!(!opts.full_scale);
        assert!(opts.json_path.is_none());
        assert!(opts.threads.is_none());
        assert!(opts.samples.is_none());
        assert!(opts.backend.is_none());
        assert!(opts.positional.is_empty());
        assert_eq!(opts.parallelism(), Parallelism::Auto);
        assert_eq!(opts.backend_kind(), BackendKind::Sram);
        assert_eq!(opts.samples_or(60), 60);
    }

    #[test]
    fn parse_recognises_shard_and_operating_point_flags() {
        let opts = RunOptions::parse(
            ["--shard", "1/4", "--t-ref-ns", "6.4e7", "--temp-c", "-10.5"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(opts.shard, Some(ShardSpec::new(1, 4).unwrap()));
        assert_eq!(opts.shard_or_solo(), ShardSpec::new(1, 4).unwrap());
        assert_eq!(opts.t_ref_ns, Some(6.4e7));
        assert_eq!(opts.temp_c, Some(-10.5));
        assert!(opts.positional.is_empty());

        let opts = RunOptions::parse(std::iter::empty());
        assert!(opts.shard.is_none());
        assert!(opts.shard_or_solo().is_solo());
        assert!(opts.t_ref_ns.is_none());
        assert!(opts.temp_c.is_none());

        // An invalid or missing shard spec is consumed and recorded, so
        // every entry point refuses to run.
        let opts = RunOptions::parse(["--shard".to_owned(), "5/2".to_owned()]);
        assert!(opts.shard.is_none());
        assert_eq!(
            opts.flag_errors,
            vec!["invalid --shard value '5/2' (must be I/K with 0 <= I < K)"]
        );
        assert!(opts.positional.is_empty());
        let opts = RunOptions::parse(["--shard".to_owned(), "--full".to_owned()]);
        assert!(opts.shard.is_none());
        assert_eq!(opts.flag_errors, vec!["--shard requires a value"]);
        let opts = RunOptions::parse(["--shard".to_owned(), "1/4".to_owned()]);
        assert!(opts.flag_errors.is_empty());
    }

    #[test]
    fn parse_recognises_driver_flags() {
        let opts = RunOptions::parse(
            [
                "--figure",
                "fig5",
                "--shards",
                "4",
                "--jobs",
                "2",
                "--retries",
                "3",
                "--dir",
                "shards/run",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        assert_eq!(opts.figure.as_deref(), Some("fig5"));
        assert_eq!(opts.shards, Some(4));
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.retries, Some(3));
        assert_eq!(opts.dir, Some(PathBuf::from("shards/run")));
        assert!(opts.positional.is_empty());

        let opts = RunOptions::parse(std::iter::empty());
        assert!(opts.figure.is_none());
        assert!(opts.shards.is_none());
        assert!(opts.jobs.is_none());
        assert!(opts.retries.is_none());
        assert!(opts.dir.is_none());
    }

    #[test]
    fn law_sweep_resolves_each_backend_axis() {
        let memory = MemoryConfig::paper_16kb();
        assert!(LawSweep::for_backend(BackendKind::Sram, &RunOptions::default()).is_none());

        // DRAM default: refresh-interval sweep at 45 °C.
        let sweep = LawSweep::for_backend(BackendKind::Dram, &RunOptions::default()).unwrap();
        assert_eq!(
            sweep.axis,
            SweepAxis::RefreshInterval {
                temperature_c: 45.0
            }
        );
        assert_eq!(sweep.knob_unit, "ms");
        assert_eq!(sweep.knobs.len(), 8);
        // P_cell grows with the refresh interval.
        let p: Vec<f64> = sweep
            .knobs
            .iter()
            .map(|&knob| sweep.p_cell(memory, knob).unwrap())
            .collect();
        assert!(p.windows(2).all(|w| w[0] < w[1]));

        // --temp-c re-temperatures the refresh sweep.
        let opts = RunOptions::parse(["--temp-c".to_owned(), "85".to_owned()]);
        let hot = LawSweep::for_backend(BackendKind::Dram, &opts).unwrap();
        assert_eq!(
            hot.axis,
            SweepAxis::RefreshInterval {
                temperature_c: 85.0
            }
        );
        assert!(hot.p_cell(memory, 64.0).unwrap() > sweep.p_cell(memory, 64.0).unwrap());

        // --t-ref-ns switches to the temperature axis.
        let opts = RunOptions::parse(["--t-ref-ns".to_owned(), "6.4e7".to_owned()]);
        let sweep = LawSweep::for_backend(BackendKind::Dram, &opts).unwrap();
        assert_eq!(
            sweep.axis,
            SweepAxis::Temperature {
                refresh_interval_ms: 64.0
            }
        );
        assert_eq!(sweep.knob_unit, "C");
        let p: Vec<f64> = sweep
            .knobs
            .iter()
            .map(|&knob| sweep.p_cell(memory, knob).unwrap())
            .collect();
        assert!(p.windows(2).all(|w| w[0] < w[1]));

        // MLC: level-spacing sweep, falling spacing raises P_cell.
        let sweep = LawSweep::for_backend(BackendKind::Mlc, &RunOptions::default()).unwrap();
        assert_eq!(sweep.axis, SweepAxis::LevelSpacing);
        assert_eq!(sweep.knob_unit, "sigma");
        let p: Vec<f64> = sweep
            .knobs
            .iter()
            .map(|&knob| sweep.p_cell(memory, knob).unwrap())
            .collect();
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parse_recognises_image_and_kind_law_flags() {
        let opts = RunOptions::parse(
            ["--image", "random:7", "--kind-law", "stuck-at:0.9"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(opts.image, Some(ImageSpec::UniformRandom { seed: 7 }));
        assert_eq!(
            opts.kind_law,
            Some(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9
            })
        );
        assert!(opts.positional.is_empty());

        let opts = RunOptions::parse(std::iter::empty());
        assert!(opts.image.is_none());
        assert!(opts.kind_law.is_none());
        assert!(opts.flag_errors.is_empty());

        // Unparseable values are consumed and recorded as fatal errors: a
        // typo must not silently select a different campaign.
        let opts = RunOptions::parse(
            ["--image", "noise", "--kind-law", "decay"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(opts.image.is_none());
        assert!(opts.kind_law.is_none());
        assert!(opts.positional.is_empty());
        assert_eq!(opts.flag_errors.len(), 2);
        assert!(opts.flag_errors[0].contains("noise"));
        assert!(opts.flag_errors[1].contains("decay"));

        // A dropped value (next token is a flag) is fatal too, not a
        // silent fall-back to the default sweep.
        let opts = RunOptions::parse(
            ["--image", "--kind-law", "stuck-at:0.9"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(opts.image.is_none());
        assert_eq!(
            opts.kind_law,
            Some(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9
            })
        );
        assert_eq!(opts.flag_errors, vec!["--image requires a value"]);
    }

    #[test]
    fn parse_recognises_the_kernel_flag() {
        let opts = RunOptions::parse(["--kernel", "bitsliced"].iter().map(|s| (*s).to_owned()));
        assert_eq!(opts.kernel, Some(KernelKind::Bitsliced));
        assert!(opts.flag_errors.is_empty());

        let opts = RunOptions::parse(std::iter::empty());
        assert!(opts.kernel.is_none());

        // A typo must be fatal for the campaign entry points, not a silent
        // fall-back to the default kernel's telemetry label.
        let opts = RunOptions::parse(["--kernel", "vectorised"].iter().map(|s| (*s).to_owned()));
        assert!(opts.kernel.is_none());
        assert_eq!(opts.flag_errors.len(), 1);
        assert!(opts.flag_errors[0].contains("vectorised"));

        // So must a removed kernel's name: it is refused, never remapped.
        for removed in ["bitsliced256", "auto"] {
            let opts = RunOptions::parse(["--kernel".to_owned(), removed.to_owned()]);
            assert!(opts.kernel.is_none());
            assert_eq!(opts.flag_errors.len(), 1);
            assert!(opts.flag_errors[0].contains(&format!("'{removed}' was removed")));
        }

        // A dropped value is recorded too.
        let opts = RunOptions::parse(["--kernel", "--full"].iter().map(|s| (*s).to_owned()));
        assert!(opts.kernel.is_none());
        assert_eq!(opts.flag_errors, vec!["--kernel requires a value"]);
    }

    #[test]
    fn removed_tuning_flags_are_refused() {
        for flag in ["--wide-generation", "--auto-threshold"] {
            // With a value: both words are consumed, neither becomes a
            // positional, and the refusal is a fatal spec error.
            let opts = RunOptions::parse([flag, "off", "--full"].iter().map(|s| (*s).to_owned()));
            assert!(opts.positional.is_empty(), "{flag}");
            assert!(opts.full_scale, "{flag}");
            assert_eq!(opts.flag_errors.len(), 1, "{flag}");
            assert!(
                opts.flag_errors[0].contains(&format!("{flag} was removed")),
                "{:?}",
                opts.flag_errors
            );
            // Without a value: still refused.
            let opts = RunOptions::parse([flag.to_owned()]);
            assert_eq!(opts.flag_errors.len(), 1, "{flag}");
        }
    }

    #[test]
    fn out_is_an_alias_for_json() {
        let opts = RunOptions::parse(["--out", "results/x.json"].iter().map(|s| (*s).to_owned()));
        assert_eq!(opts.json_path, Some(PathBuf::from("results/x.json")));
    }

    #[test]
    fn metrics_flag_records_the_report_path() {
        let opts = RunOptions::parse(["--metrics", "m.json"].iter().map(|s| (*s).to_owned()));
        assert_eq!(opts.metrics_path, Some(PathBuf::from("m.json")));
        // The flag is independent of --json/--out and optional.
        let opts = RunOptions::parse(["--out", "x.json"].iter().map(|s| (*s).to_owned()));
        assert!(opts.metrics_path.is_none());
        // A dangling --metrics is ignored like a dangling --json.
        let opts = RunOptions::parse(["--metrics".to_owned()]);
        assert!(opts.metrics_path.is_none());
    }

    #[test]
    fn missing_or_invalid_values_are_ignored() {
        let opts = RunOptions::parse(["--json".to_owned()]);
        assert!(opts.json_path.is_none());
        // A non-numeric --threads value is consumed and ignored: it sets
        // throughput, not campaign identity.
        let opts = RunOptions::parse(["--threads".to_owned(), "abc".to_owned()]);
        assert!(opts.threads.is_none());
        assert!(opts.positional.is_empty());
        assert!(opts.flag_errors.is_empty());
    }

    #[test]
    fn backend_and_samples_typos_are_recorded_as_errors() {
        // Both are campaign identity: a typo must not silently run the SRAM
        // default or the figure's default budget. Nor may a typo in an
        // operating-point flag silently sweep the default refresh interval
        // or temperature.
        let opts = RunOptions::parse(
            [
                "--backend",
                "drma",
                "--samples",
                "2x",
                "--t-ref-ns",
                "64ms",
                "--temp-c",
                "85C",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        assert!(opts.backend.is_none());
        assert!(opts.samples.is_none());
        assert!(opts.t_ref_ns.is_none());
        assert!(opts.temp_c.is_none());
        assert!(opts.positional.is_empty());
        assert_eq!(opts.flag_errors.len(), 4);
        assert!(
            opts.flag_errors[0].contains("unknown backend 'drma'"),
            "{:?}",
            opts.flag_errors
        );
        assert_eq!(opts.flag_errors[1], "invalid --samples value '2x'");
        assert_eq!(opts.flag_errors[2], "invalid --t-ref-ns value '64ms'");
        assert_eq!(opts.flag_errors[3], "invalid --temp-c value '85C'");

        // A dropped value is fatal too.
        for flag in ["--backend", "--samples", "--t-ref-ns", "--temp-c"] {
            let opts = RunOptions::parse([flag, "--full"].iter().map(|s| (*s).to_owned()));
            assert!(opts.full_scale, "{flag}");
            assert_eq!(opts.flag_errors, vec![format!("{flag} requires a value")]);
        }
    }

    #[test]
    fn driver_flag_typos_are_recorded_as_errors() {
        // A typo in --shards must not silently degrade a K-way campaign to
        // a monolithic run: the driver treats these as fatal.
        let opts = RunOptions::parse(["--shards".to_owned(), "1O".to_owned()]);
        assert!(opts.shards.is_none());
        assert_eq!(opts.flag_errors, vec!["invalid --shards value '1O'"]);

        let opts = RunOptions::parse(
            ["--jobs", "x", "--retries", "-1"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(opts.jobs.is_none());
        assert!(opts.retries.is_none());
        assert_eq!(opts.flag_errors.len(), 2);

        // A missing value is recorded too.
        let opts = RunOptions::parse(["--jobs".to_owned(), "--full".to_owned()]);
        assert!(opts.full_scale);
        assert_eq!(opts.flag_errors, vec!["--jobs requires a value"]);

        let opts = RunOptions::parse(
            ["--shards", "4", "--jobs", "2", "--retries", "0"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(opts.flag_errors.is_empty());
        assert_eq!(
            opts.refuse_flag_errors(&["--shards", "--jobs", "--retries"]),
            Ok(())
        );

        // A zero budget is refused, never rewritten to 1.
        let opts = RunOptions::parse(
            ["--samples", "0", "--shards", "0", "--jobs", "0"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(
            opts.flag_errors,
            ["--samples", "--shards", "--jobs"]
                .map(|flag| format!("invalid {flag} value '0' (must be at least 1)"))
        );
    }

    #[test]
    fn write_json_without_path_is_a_no_op() {
        let opts = RunOptions::default();
        opts.write_json(&vec![1.0, 2.0, 3.0]).unwrap();
    }

    #[test]
    fn write_json_creates_parent_directories() {
        let dir = std::env::temp_dir().join("faultmit-bench-test");
        let path = dir.join("nested").join("series.json");
        let opts = RunOptions {
            json_path: Some(path.clone()),
            ..RunOptions::default()
        };
        opts.write_json(&JsonValue::object([("ok", true.to_json())]))
            .unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"ok\": true"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
