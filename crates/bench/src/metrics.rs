//! JSON serialisation and cross-shard aggregation for the observability
//! layer ([`faultmit_obs`]).
//!
//! The obs crate is dependency-free by design, so everything that touches
//! JSON lives here: [`snapshot_to_json`]/[`snapshot_from_json`] round-trip a
//! [`MetricsSnapshot`] exactly (counters, histogram buckets and stage clocks
//! are stored as integers), [`ShardMetrics`] is the one telemetry section a
//! shard checkpoint carries (wall/generation clocks, kernel identity, the
//! `--auto-threshold` override and the snapshot — the fields that used to be
//! four ad-hoc top-level checkpoint entries), and [`metrics_report`] renders
//! the aggregated `--metrics` output document with its derived rates.
//!
//! # Determinism
//!
//! Counter totals are sums of per-chunk contributions, so for a fixed
//! campaign the deterministic counters (see
//! [`faultmit_obs::Counter::is_deterministic`]) aggregate to **bit-identical
//! values at any worker count and any shard split**: merging K shard
//! snapshots reproduces the monolithic run's counters exactly. Stage clocks
//! and realloc events are host telemetry and are excluded from that
//! contract.

use crate::json::{JsonValue, ToJson};
use faultmit_obs::{Counter, Histogram, MetricsSnapshot, Stage, HISTOGRAM_BUCKETS};
use std::time::Duration;

/// Format tag of `--metrics` output documents.
pub const METRICS_REPORT_FORMAT: &str = "faultmit-metrics/v1";

/// Serialises a [`MetricsSnapshot`] with every counter, histogram bucket
/// and stage clock as an exact integer, keyed by the obs crate's stable
/// snake_case names. All slots are emitted (zeros included) so the schema
/// is the same for every producer.
#[must_use]
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> JsonValue {
    let counters = JsonValue::Object(
        Counter::ALL
            .iter()
            .map(|&counter| {
                (
                    counter.name().to_owned(),
                    snapshot.counter(counter).to_json(),
                )
            })
            .collect(),
    );
    let histograms = JsonValue::Object(
        Histogram::ALL
            .iter()
            .map(|&histogram| {
                (
                    histogram.name().to_owned(),
                    JsonValue::Array(
                        snapshot
                            .histogram(histogram)
                            .iter()
                            .map(|&bucket| bucket.to_json())
                            .collect(),
                    ),
                )
            })
            .collect(),
    );
    let stages = JsonValue::Object(
        Stage::ALL
            .iter()
            .map(|&stage| {
                (
                    stage.name().to_owned(),
                    JsonValue::object([
                        ("nanos", snapshot.stage_nanos[stage as usize].to_json()),
                        ("calls", snapshot.stage_calls(stage).to_json()),
                    ]),
                )
            })
            .collect(),
    );
    JsonValue::object([
        ("counters", counters),
        ("histograms", histograms),
        ("stages", stages),
    ])
}

/// Rebuilds a [`MetricsSnapshot`] from its serialised form. Unknown keys
/// are ignored and missing keys read as zero, so snapshots written by
/// builds with fewer (or more) counters still load.
///
/// # Errors
///
/// Returns a description of the first structurally malformed entry.
pub fn snapshot_from_json(value: &JsonValue) -> Result<MetricsSnapshot, String> {
    let mut snapshot = MetricsSnapshot::default();
    if let Some(counters) = value.get("counters") {
        for &counter in &Counter::ALL {
            if let Some(node) = counters.get(counter.name()) {
                snapshot.counters[counter as usize] = node
                    .as_u64()
                    .ok_or_else(|| format!("counter '{}' must be an integer", counter.name()))?;
            }
        }
    }
    if let Some(histograms) = value.get("histograms") {
        for &histogram in &Histogram::ALL {
            let Some(node) = histograms.get(histogram.name()) else {
                continue;
            };
            let buckets = node
                .as_array()
                .filter(|buckets| buckets.len() == HISTOGRAM_BUCKETS)
                .ok_or_else(|| {
                    format!(
                        "histogram '{}' must be an array of {HISTOGRAM_BUCKETS} buckets",
                        histogram.name()
                    )
                })?;
            for (slot, bucket) in snapshot.histograms[histogram as usize]
                .iter_mut()
                .zip(buckets)
            {
                *slot = bucket.as_u64().ok_or_else(|| {
                    format!("histogram '{}' buckets must be integers", histogram.name())
                })?;
            }
        }
    }
    if let Some(stages) = value.get("stages") {
        for &stage in &Stage::ALL {
            let Some(node) = stages.get(stage.name()) else {
                continue;
            };
            snapshot.stage_nanos[stage as usize] = node
                .get("nanos")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stage '{}' is missing integer 'nanos'", stage.name()))?;
            snapshot.stage_calls[stage as usize] = node
                .get("calls")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stage '{}' is missing integer 'calls'", stage.name()))?;
        }
    }
    Ok(snapshot)
}

/// A checkpoint's complete telemetry — the shard-state `metrics` section:
/// wall and generation clocks, kernel identity and the observability
/// snapshot, behind one accessor path.
/// Everything here is **identity-free** telemetry: it never feeds back into
/// panel states, so figure JSON is byte-identical whether or not metrics
/// were recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardMetrics {
    /// Wall-clock seconds the producing process spent evaluating the shard
    /// (aggregated checkpoints sum across shards, so the total is CPU-side
    /// "shard seconds", not the driver's wall clock).
    pub elapsed_seconds: Option<f64>,
    /// Worker-seconds spent generating fault maps: per-worker wall spans
    /// summed across worker threads, so a descheduled worker's span still
    /// counts and the total can exceed `elapsed_seconds` at worker counts
    /// above one.
    pub generation_seconds: Option<f64>,
    /// Name of the evaluation kernel the spec selected (`"sparse"` or
    /// `"bitsliced"`; `None` when the spec names none). Must agree across a
    /// shard set — see [`crate::shard::ShardState::merge`].
    pub kernel: Option<String>,
    /// Vestigial: the `--auto-threshold` override was removed, so nothing
    /// sets this. Writers emit `null` and readers ignore the stored value.
    pub auto_threshold: Option<f64>,
    /// The observability snapshot the run recorded, when a recorder was
    /// installed (see [`faultmit_obs::install`]); `None` for runs without
    /// instrumentation and for legacy checkpoints.
    pub snapshot: Option<MetricsSnapshot>,
}

impl ShardMetrics {
    /// `true` when nothing was recorded (serialises as `null`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elapsed_seconds.is_none()
            && self.generation_seconds.is_none()
            && self.kernel.is_none()
            && self.snapshot.is_none()
    }

    /// Serialises the section (`null` when empty, so checkpoints without
    /// telemetry stay small).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        if self.is_empty() {
            return JsonValue::Null;
        }
        JsonValue::object([
            (
                "elapsed_seconds",
                match self.elapsed_seconds {
                    None => JsonValue::Null,
                    Some(seconds) => JsonValue::Number(seconds),
                },
            ),
            (
                "generation_seconds",
                match self.generation_seconds {
                    None => JsonValue::Null,
                    Some(seconds) => JsonValue::Number(seconds),
                },
            ),
            (
                "kernel",
                match &self.kernel {
                    None => JsonValue::Null,
                    Some(kernel) => kernel.to_json(),
                },
            ),
            ("auto_threshold", JsonValue::Null),
            (
                "snapshot",
                match &self.snapshot {
                    None => JsonValue::Null,
                    Some(snapshot) => snapshot_to_json(snapshot),
                },
            ),
        ])
    }

    /// Reads the section back (absent or `null` → empty).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        if matches!(value, JsonValue::Null) {
            return Ok(Self::default());
        }
        let snapshot = match value.get("snapshot") {
            None | Some(JsonValue::Null) => None,
            Some(node) => Some(snapshot_from_json(node)?),
        };
        Ok(Self {
            elapsed_seconds: value.get("elapsed_seconds").and_then(JsonValue::as_f64),
            generation_seconds: value.get("generation_seconds").and_then(JsonValue::as_f64),
            kernel: value
                .get("kernel")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
            auto_threshold: None,
            snapshot,
        })
    }

    /// Adds one call of `stage`, lasting `elapsed`, to the snapshot (an
    /// empty snapshot is created if none was recorded). For driver-side
    /// stages timed in pieces that still count as one call: `campaign_run`
    /// reads each checkpoint as its shard finishes and merges them at the
    /// end, all as one [`Stage::Persist`] call.
    pub fn add_stage_call(&mut self, stage: Stage, elapsed: Duration) {
        let snapshot = self.snapshot.get_or_insert_default();
        snapshot.stage_nanos[stage as usize] +=
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        snapshot.stage_calls[stage as usize] += 1;
    }

    /// Folds another shard's telemetry into this one (cross-shard
    /// aggregation): clocks and snapshots **sum**, the kernel identity is
    /// kept from whichever shard recorded it (callers validate agreement
    /// first — see [`crate::shard::ShardState::merge`]).
    pub fn absorb(&mut self, other: &ShardMetrics) {
        self.elapsed_seconds = sum_opt(self.elapsed_seconds, other.elapsed_seconds);
        self.generation_seconds = sum_opt(self.generation_seconds, other.generation_seconds);
        if self.kernel.is_none() {
            self.kernel.clone_from(&other.kernel);
        }
        match (&mut self.snapshot, &other.snapshot) {
            (Some(into), Some(from)) => into.merge(from),
            (None, Some(from)) => self.snapshot = Some(*from),
            _ => {}
        }
    }
}

fn sum_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
    }
}

/// Renders the `--metrics` output document: the aggregated telemetry plus
/// the derived rates operators actually read (`observe_block` fallback
/// rate, per-stage time split, samples per second).
///
/// The per-stage split, `derived.stage_seconds`, is in worker-seconds:
/// each stage's wall spans summed over the workers that recorded them, so
/// at more than one worker a stage can exceed `elapsed_seconds`.
#[must_use]
pub fn metrics_report(metrics: &ShardMetrics) -> JsonValue {
    let snapshot = metrics.snapshot.unwrap_or_default();
    let stage_split = JsonValue::Object(
        Stage::ALL
            .iter()
            .map(|&stage| {
                (
                    stage.name().to_owned(),
                    JsonValue::object([
                        ("seconds", JsonValue::Number(snapshot.stage_seconds(stage))),
                        ("calls", snapshot.stage_calls(stage).to_json()),
                    ]),
                )
            })
            .collect(),
    );
    let optional_rate = |rate: Option<f64>| match rate {
        None => JsonValue::Null,
        Some(rate) => JsonValue::Number(rate),
    };
    let samples = snapshot.counter(Counter::SamplesEvaluated);
    let samples_per_second = match metrics.elapsed_seconds {
        Some(seconds) if seconds > 0.0 && samples > 0 => {
            JsonValue::Number(samples as f64 / seconds)
        }
        _ => JsonValue::Null,
    };
    JsonValue::object([
        ("format", METRICS_REPORT_FORMAT.to_json()),
        ("telemetry", metrics.to_json()),
        (
            "derived",
            JsonValue::object([
                ("stage_seconds", stage_split),
                (
                    "observe_fallback_rate",
                    optional_rate(snapshot.observe_fallback_rate()),
                ),
                ("samples_per_second", samples_per_second),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_snapshot() -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (i, slot) in snapshot.counters.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 7;
        }
        for (i, slot) in snapshot.histograms[0].iter_mut().enumerate() {
            *slot = i as u64 * 3;
        }
        for (i, slot) in snapshot.stage_nanos.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 1_000_000_001;
        }
        for (i, slot) in snapshot.stage_calls.iter_mut().enumerate() {
            *slot = i as u64 + 1;
        }
        snapshot
    }

    #[test]
    fn snapshot_round_trips_exactly_through_text() {
        let snapshot = populated_snapshot();
        let text = snapshot_to_json(&snapshot).to_pretty_string();
        let round = snapshot_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, snapshot);

        // Snapshots written before the persist stage existed hold seven
        // stages, and those from before the render stage six; both still
        // load, with the missing stages read as zero.
        for missing in [&[Stage::Persist][..], &[Stage::Persist, Stage::Render]] {
            let mut older = snapshot_to_json(&snapshot);
            let JsonValue::Object(fields) = &mut older else {
                panic!("a snapshot serialises as an object");
            };
            let Some((_, JsonValue::Object(stages))) =
                fields.iter_mut().find(|(key, _)| key == "stages")
            else {
                panic!("a snapshot has a stages object");
            };
            stages.retain(|(name, _)| missing.iter().all(|stage| stage.name() != name));
            assert_eq!(stages.len(), Stage::ALL.len() - missing.len());
            let round = snapshot_from_json(&older).unwrap();
            let mut expected = snapshot;
            for &stage in missing {
                expected.stage_nanos[stage as usize] = 0;
                expected.stage_calls[stage as usize] = 0;
            }
            assert_eq!(round, expected);
        }
    }

    #[test]
    fn add_stage_call_counts_one_call_and_creates_a_snapshot() {
        let mut metrics = ShardMetrics::default();
        metrics.add_stage_call(Stage::Persist, Duration::from_millis(250));
        let snapshot = metrics.snapshot.expect("a snapshot is created");
        assert_eq!(snapshot.stage_calls(Stage::Persist), 1);
        assert_eq!(snapshot.stage_seconds(Stage::Persist), 0.25);
        // Only the persist slots moved.
        let mut expected = MetricsSnapshot::default();
        expected.stage_nanos[Stage::Persist as usize] = 250_000_000;
        expected.stage_calls[Stage::Persist as usize] = 1;
        assert_eq!(snapshot, expected);
    }

    #[test]
    fn empty_snapshot_round_trips_and_unknown_keys_are_ignored() {
        let round = snapshot_from_json(&snapshot_to_json(&MetricsSnapshot::default())).unwrap();
        assert_eq!(round, MetricsSnapshot::default());
        // A future build's extra counter does not break this build's loader,
        // and absent sections read as zero.
        let foreign =
            JsonValue::parse("{\"counters\": {\"dies_generated\": 5, \"from_the_future\": 9}}")
                .unwrap();
        let snapshot = snapshot_from_json(&foreign).unwrap();
        assert_eq!(snapshot.counter(Counter::DiesGenerated), 5);
        assert_eq!(snapshot.counter(Counter::SamplesEvaluated), 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in [
            "{\"counters\": {\"dies_generated\": \"x\"}}",
            "{\"histograms\": {\"faults_per_die\": [1, 2]}}",
            "{\"stages\": {\"plan\": {\"calls\": 1}}}",
        ] {
            assert!(
                snapshot_from_json(&JsonValue::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn shard_metrics_round_trip_and_empty_is_null() {
        let empty = ShardMetrics::default();
        assert!(empty.is_empty());
        assert_eq!(empty.to_json(), JsonValue::Null);
        assert_eq!(ShardMetrics::from_json(&JsonValue::Null).unwrap(), empty);

        let metrics = ShardMetrics {
            elapsed_seconds: Some(2.5),
            generation_seconds: Some(0.75),
            kernel: Some("bitsliced".to_owned()),
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        let text = metrics.to_json().to_pretty_string();
        let round = ShardMetrics::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, metrics);

        // The removed `--auto-threshold` override is written as null, and a
        // stored value from an older checkpoint is ignored.
        let stale = ShardMetrics {
            auto_threshold: Some(0.0625),
            ..metrics.clone()
        };
        let text = stale.to_json().to_pretty_string();
        assert!(text.contains("\"auto_threshold\": null"), "{text}");
        let old = text.replace("\"auto_threshold\": null", "\"auto_threshold\": 0.0625");
        let round = ShardMetrics::from_json(&JsonValue::parse(&old).unwrap()).unwrap();
        assert_eq!(round, metrics);
    }

    #[test]
    fn absorb_sums_clocks_and_snapshots_and_keeps_the_kernel_identity() {
        let mut a = ShardMetrics {
            elapsed_seconds: Some(1.0),
            generation_seconds: None,
            kernel: None,
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        let b = ShardMetrics {
            elapsed_seconds: Some(2.0),
            generation_seconds: Some(0.5),
            kernel: Some("sparse".to_owned()),
            auto_threshold: None,
            snapshot: Some(populated_snapshot()),
        };
        a.absorb(&b);
        assert_eq!(a.elapsed_seconds, Some(3.0));
        assert_eq!(a.generation_seconds, Some(0.5));
        assert_eq!(a.kernel.as_deref(), Some("sparse"));
        let merged = a.snapshot.unwrap();
        let single = populated_snapshot();
        for (&counter, _) in Counter::ALL.iter().zip(0..) {
            assert_eq!(merged.counter(counter), 2 * single.counter(counter));
        }
        // None + Some adopts the snapshot.
        let mut none = ShardMetrics::default();
        none.absorb(&b);
        assert_eq!(none.snapshot, Some(populated_snapshot()));
    }

    #[test]
    fn metrics_report_carries_the_derived_rates() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters[Counter::ObserveBlockRows as usize] = 90;
        snapshot.counters[Counter::ObserveFallbackRows as usize] = 10;
        snapshot.counters[Counter::SamplesEvaluated as usize] = 500;
        let report = metrics_report(&ShardMetrics {
            elapsed_seconds: Some(2.0),
            snapshot: Some(snapshot),
            ..ShardMetrics::default()
        });
        assert_eq!(
            report.get("format").and_then(JsonValue::as_str),
            Some(METRICS_REPORT_FORMAT)
        );
        let derived = report.get("derived").unwrap();
        assert_eq!(
            derived
                .get("observe_fallback_rate")
                .and_then(JsonValue::as_f64),
            Some(0.1)
        );
        assert_eq!(
            derived
                .get("samples_per_second")
                .and_then(JsonValue::as_f64),
            Some(250.0)
        );
        // No block rows → no fallback-rate claim.
        let empty = metrics_report(&ShardMetrics::default());
        assert!(matches!(
            empty.get("derived").unwrap().get("observe_fallback_rate"),
            Some(JsonValue::Null)
        ));
    }
}
