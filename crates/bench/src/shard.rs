//! Serializable shard state for distributed campaigns, covering every
//! accumulator shape the figure registry produces.
//!
//! A `campaign_shard` process evaluates one [`ShardSpec`] slice of a
//! registered figure campaign and writes its per-panel
//! [`PanelState`]s to disk as a [`ShardState`] JSON document;
//! `campaign_merge` (or the `campaign_run` driver) reads the shard files
//! back, folds their panels **in shard order** and renders the figure.
//! Because
//!
//! 1. chunk boundaries and per-sample RNG streams derive from the global
//!    plan (see [`faultmit_sim::Campaign::run_shard`]),
//! 2. catalogue state stores each [`CdfSketch`]'s observation values in
//!    insertion order next to their run-length encoded weights and
//!    re-accumulates them on read ([`CdfSketch::from_observations`]), and
//!    deterministic table state is validated for equality across shards
//!    (there is no raw record stream: every Monte-Carlo figure, the
//!    shift-policy ablation included, stores catalogue state), and
//! 3. catalogue values are stored as their raw bits (`f64::to_bits`, 16
//!    lowercase hex digits each), so they round-trip exactly by
//!    construction, `-0.0` included; the only other numbers of the
//!    state, the always-positive weights, go through the in-tree JSON
//!    emitter, which prints every finite `f64` in its shortest
//!    round-trippable form (its `-0.0` → `+0.0` normalisation, see the
//!    `json` module docs, therefore never applies to shard state),
//!
//! the merged state — and therefore the rendered figure JSON — is
//! **byte-identical** to the monolithic single-process run for every
//! registered figure, backend and worker count.
//!
//! A completed shard file doubles as a checkpoint: `campaign_shard` skips
//! work when its output file already holds a state whose
//! [`ShardState::matches`] its request, so re-running a partially finished
//! K-shard campaign recomputes only the missing shards. A checkpoint in any
//! other format — including the older `faultmit-shard-state` versions — does
//! not parse, so it is recomputed.

use crate::figures::{FigureSpec, PanelState};
use crate::json::{JsonValue, ToJson};
use crate::metrics::ShardMetrics;
use faultmit_analysis::{CatalogueAccumulator, CdfSketch, EmpiricalCdf};
use faultmit_sim::ShardSpec;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Format tag of shard-state documents (bump on incompatible changes).
///
/// `v2` replaced the fig5/fig7-only `v1` layout with the registry's
/// panel-state union (catalogue / records / table); `v3` folded the
/// top-level telemetry fields into one `metrics` section; `v4` stores each
/// catalogue stratum as `{"n", "weights", "values"}` — run-length encoded
/// weights next to a value column — instead of one `[value, weight]` pair
/// per observation; `v5` writes that value column as one string of
/// 16-digit lowercase hex words (`f64::to_bits`) instead of an array of
/// decimal numbers. Since the shift-policy ablation stores catalogue
/// state, a v5 file with a `records` panel is refused as an unknown kind
/// (catalogue and table layouts are unchanged). The loader reads only this
/// version.
pub const SHARD_STATE_FORMAT: &str = "faultmit-shard-state/v5";

/// Error reading or merging shard state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStateError {
    /// What went wrong.
    pub reason: String,
}

impl ShardStateError {
    fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ShardStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard state error: {}", self.reason)
    }
}

impl std::error::Error for ShardStateError {}

/// One labelled campaign panel inside a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPanelState {
    /// Panel label (`"fig5"`, a benchmark name, an operating-point cell,
    /// an ablation sweep point, …).
    pub label: String,
    /// The shard's accumulated state for this panel.
    pub state: PanelState,
}

/// One shard's complete serialisable state: the campaign identity, the
/// shard coordinates, and one panel state per campaign panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Identity of the figure campaign the shard belongs to.
    pub spec: FigureSpec,
    /// Which slice of the campaign this state covers.
    pub shard: ShardSpec,
    /// Per-panel state, in panel order.
    pub panels: Vec<ShardPanelState>,
    /// The shard's telemetry section — wall/generation clocks, kernel
    /// identity and the observability snapshot (see [`ShardMetrics`]).
    /// Never part of the campaign identity: panel states (and the rendered
    /// figure JSON) are byte-identical whatever this records.
    /// [`ShardState::merge`] validates the kernel identity across a shard
    /// set and **aggregates** the rest (clocks and snapshots sum).
    pub metrics: ShardMetrics,
}

impl ShardState {
    /// `true` when this state is the checkpoint for exactly the given
    /// campaign slice — same figure spec and same shard coordinates.
    #[must_use]
    pub fn matches(&self, spec: &FigureSpec, shard: ShardSpec) -> bool {
        self.spec == *spec && self.shard == shard
    }

    /// Wall-clock seconds the producing process spent evaluating this
    /// shard (the `metrics` section's clock; summed across shards in a
    /// merged state).
    #[must_use]
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.metrics.elapsed_seconds
    }

    /// Worker-seconds spent generating fault maps, summed across workers.
    #[must_use]
    pub fn generation_seconds(&self) -> Option<f64> {
        self.metrics.generation_seconds
    }

    /// Name of the evaluation kernel that produced this state.
    #[must_use]
    pub fn kernel(&self) -> Option<&str> {
        self.metrics.kernel.as_deref()
    }

    /// Serialises the state to the shard-file document.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format", SHARD_STATE_FORMAT.to_json()),
            ("spec", self.spec.to_json()),
            ("shard_index", self.shard.shard_index().to_json()),
            ("shard_count", self.shard.shard_count().to_json()),
            ("metrics", self.metrics.to_json()),
            (
                "panels",
                JsonValue::Array(
                    self.panels
                        .iter()
                        .map(|panel| {
                            JsonValue::object([
                                ("label", panel.label.to_json()),
                                ("kind", panel.state.kind_name().to_json()),
                                ("state", panel_state_to_json(&panel.state)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a shard-file document.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] for malformed JSON, a foreign format tag,
    /// an unregistered figure or missing fields.
    pub fn parse(text: &str) -> Result<Self, ShardStateError> {
        let document = JsonValue::parse(text).map_err(|e| ShardStateError::new(format!("{e}")))?;
        Self::from_json(&document)
    }

    /// Reads the state from a parsed shard-file document.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] for a foreign format tag, an
    /// unregistered figure or missing fields.
    pub fn from_json(document: &JsonValue) -> Result<Self, ShardStateError> {
        let format = document
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ShardStateError::new("missing 'format' tag"))?;
        if format != SHARD_STATE_FORMAT {
            return Err(ShardStateError::new(format!(
                "unsupported shard-state format '{format}', expected '{SHARD_STATE_FORMAT}'; \
                 campaign_shard and campaign_run recompute such a checkpoint"
            )));
        }
        let spec = document
            .get("spec")
            .ok_or_else(|| ShardStateError::new("missing 'spec'"))
            .and_then(|spec| FigureSpec::from_json(spec).map_err(ShardStateError::new))?;
        let shard_index = document
            .get("shard_index")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ShardStateError::new("missing 'shard_index'"))?;
        let shard_count = document
            .get("shard_count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ShardStateError::new("missing 'shard_count'"))?;
        let shard = ShardSpec::new(shard_index as usize, shard_count as usize)
            .map_err(|e| ShardStateError::new(e.to_string()))?;
        // The telemetry section is optional: a document without one reads
        // as empty metrics.
        let metrics = match document.get("metrics") {
            None => ShardMetrics::default(),
            Some(section) => ShardMetrics::from_json(section).map_err(ShardStateError::new)?,
        };
        let panels = document
            .get("panels")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ShardStateError::new("missing 'panels'"))?
            .iter()
            .map(|panel| {
                let label = panel
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ShardStateError::new("panel is missing 'label'"))?
                    .to_owned();
                let kind = panel
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ShardStateError::new("panel is missing 'kind'"))?;
                let state = panel
                    .get("state")
                    .ok_or_else(|| ShardStateError::new("panel is missing 'state'"))
                    .and_then(|state| panel_state_from_json(kind, state))?;
                Ok(ShardPanelState { label, state })
            })
            .collect::<Result<Vec<_>, ShardStateError>>()?;
        Ok(Self {
            spec,
            shard,
            panels,
            metrics,
        })
    }

    /// Merges a complete set of shard states into the monolithic state.
    ///
    /// The input may arrive in any order; shards are sorted by index and
    /// merged ascending, which reproduces the monolithic chunk-order
    /// reduction bit for bit. Validation requires one shard for every index
    /// `0..shard_count`, a common figure spec, identical panel
    /// labels/catalogues and an agreeing [`ShardState::kernel`] wherever
    /// recorded — and reports **every** missing, duplicated or mismatched
    /// shard index of the K-set in one error instead of failing on the
    /// first bad file.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] enumerating all problems of an
    /// incomplete, duplicated or mismatched shard set.
    pub fn merge(mut shards: Vec<ShardState>) -> Result<ShardState, ShardStateError> {
        let first = shards
            .first()
            .ok_or_else(|| ShardStateError::new("no shard files to merge"))?;
        let spec = first.spec.clone();
        let shard_count = first.shard.shard_count();

        // Shard files can claim any K, so refuse an absurd count before
        // allocating the per-index bookkeeping it would size.
        const MAX_ENUMERATED_SHARDS: usize = 100_000;
        if shard_count > MAX_ENUMERATED_SHARDS {
            return Err(ShardStateError::new(format!(
                "cannot merge shard set: shard {} claims a {shard_count}-shard campaign \
                 (more than the {MAX_ENUMERATED_SHARDS} supported)",
                first.shard
            )));
        }

        // Collect every defect of the set before failing, so one error
        // message names exactly which indices are missing or mismatched.
        let mut spec_mismatches: Vec<String> = Vec::new();
        let mut panel_mismatches: Vec<String> = Vec::new();
        // Checkpoints are outside input: every shard of a set must record
        // the same kernel, since a disagreement means the shards were
        // produced by runs with different `--kernel` flags and their
        // throughput telemetry is not comparable. Checkpoints without the
        // field merge with anything.
        let mut kernels: Vec<String> = shards
            .iter()
            .filter_map(|shard| shard.metrics.kernel.clone())
            .collect();
        kernels.sort();
        kernels.dedup();
        let labels: Vec<(String, &'static str)> = first
            .panels
            .iter()
            .map(|p| (p.label.clone(), p.state.kind_name()))
            .collect();
        for shard in &shards {
            if shard.spec != spec || shard.shard.shard_count() != shard_count {
                spec_mismatches.push(shard.shard.to_string());
                continue;
            }
            let shard_labels: Vec<(String, &'static str)> = shard
                .panels
                .iter()
                .map(|p| (p.label.clone(), p.state.kind_name()))
                .collect();
            let compatible = shard_labels == labels
                && first
                    .panels
                    .iter()
                    .zip(&shard.panels)
                    .all(|(a, b)| a.state.compatible_with(&b.state));
            if !compatible {
                panel_mismatches.push(shard.shard.to_string());
            }
        }

        let mut present = vec![0usize; shard_count];
        for shard in &shards {
            if shard.shard.shard_count() == shard_count {
                present[shard.shard.shard_index()] += 1;
            }
        }
        let missing: Vec<String> = present
            .iter()
            .enumerate()
            .filter(|(_, &count)| count == 0)
            .map(|(index, _)| index.to_string())
            .collect();
        let duplicated: Vec<String> = present
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 1)
            .map(|(index, _)| index.to_string())
            .collect();

        if !(spec_mismatches.is_empty()
            && panel_mismatches.is_empty()
            && missing.is_empty()
            && duplicated.is_empty()
            && kernels.len() <= 1
            && shards.len() == shard_count)
        {
            let mut problems = Vec::new();
            if !missing.is_empty() {
                problems.push(format!(
                    "missing shard(s) [{}] of the {shard_count}-shard set",
                    missing.join(", ")
                ));
            }
            if !duplicated.is_empty() {
                problems.push(format!("duplicated shard(s) [{}]", duplicated.join(", ")));
            }
            if !spec_mismatches.is_empty() {
                problems.push(format!(
                    "shard(s) [{}] were produced by a different campaign configuration \
                     than shard {}",
                    spec_mismatches.join(", "),
                    first.shard
                ));
            }
            if !panel_mismatches.is_empty() {
                problems.push(format!(
                    "shard(s) [{}] disagree on the campaign panels or scheme catalogue",
                    panel_mismatches.join(", ")
                ));
            }
            if kernels.len() > 1 {
                problems.push(format!(
                    "shards disagree on the evaluation kernel ({})",
                    kernels
                        .iter()
                        .map(|kernel| format!("'{kernel}'"))
                        .collect::<Vec<_>>()
                        .join(" vs ")
                ));
            }
            if problems.is_empty() {
                problems.push(format!(
                    "{} file(s) provided for a {shard_count}-shard campaign",
                    shards.len()
                ));
            }
            return Err(ShardStateError::new(format!(
                "cannot merge shard set: {}",
                problems.join("; ")
            )));
        }

        shards.sort_by_key(|shard| shard.shard.shard_index());
        let mut iter = shards.into_iter();
        let mut merged = iter.next().expect("validated non-empty");
        for shard in iter {
            for (into, from) in merged.panels.iter_mut().zip(shard.panels) {
                into.state.merge(from.state).map_err(ShardStateError::new)?;
            }
            // Telemetry aggregates across the set: clocks and snapshots
            // sum (counter sums are the monolithic run's counters, since
            // every chunk's contribution lands in exactly one shard); the
            // kernel identity was validated consistent above and is kept.
            merged.metrics.absorb(&shard.metrics);
        }
        merged.shard = ShardSpec::solo();
        Ok(merged)
    }

    /// Splits the state into bare panel states, in panel order — the shape
    /// [`crate::figures::FigureDef::render`] consumes — after validating
    /// the labels against the figure's own panel list.
    ///
    /// # Errors
    ///
    /// Returns [`ShardStateError`] when the stored panels do not match the
    /// figure's panels (a malformed or foreign shard set).
    pub fn into_panels(
        self,
        expected_labels: &[String],
    ) -> Result<Vec<PanelState>, ShardStateError> {
        let found: Vec<&str> = self.panels.iter().map(|p| p.label.as_str()).collect();
        if found
            != expected_labels
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            return Err(ShardStateError::new(format!(
                "panel labels {found:?} do not match the figure's panels {expected_labels:?}"
            )));
        }
        Ok(self.panels.into_iter().map(|p| p.state).collect())
    }
}

/// Reads and parses a set of shard files, reporting **every** unreadable or
/// malformed file in one error (instead of failing on the first), plus any
/// mix of different figures across the set.
///
/// # Errors
///
/// Returns [`ShardStateError`] listing each bad path with its reason.
pub fn load_shard_files<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<ShardState>, ShardStateError> {
    let mut states = Vec::new();
    let mut problems = Vec::new();
    for path in paths {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Err(e) => problems.push(format!("'{}': cannot read ({e})", path.display())),
            Ok(text) => match ShardState::parse(&text) {
                Err(e) => problems.push(format!("'{}': {e}", path.display())),
                Ok(state) => states.push(state),
            },
        }
    }
    if let Some(first) = states.first() {
        let figure = first.spec.figure.clone();
        let mixed: Vec<String> = states
            .iter()
            .filter(|s| s.spec.figure != figure)
            .map(|s| format!("'{}' (shard {})", s.spec.figure, s.shard))
            .collect();
        if !mixed.is_empty() {
            problems.push(format!(
                "shard files mix figures: expected '{figure}', also found {}",
                mixed.join(", ")
            ));
        }
    }
    if !problems.is_empty() {
        return Err(ShardStateError::new(format!(
            "cannot load shard set: {}",
            problems.join("; ")
        )));
    }
    Ok(states)
}

/// Serialises a [`CdfSketch`] as `{"weights": [[w, count], …], "values":
/// "<hex>"}`: the observation values in insertion order, each as the 16
/// lowercase hex digits of its bits (`f64::to_bits`, most significant
/// first), and their weights run-length encoded, one `[weight, count]` run
/// per maximal stretch of bit-equal weights. Every die of a catalogue
/// stratum carries the same weight `pmf(n)/m`, so a registry campaign's
/// stratum is one run, but the encoding is exact for any sketch.
#[must_use]
pub fn sketch_to_json(sketch: &CdfSketch) -> JsonValue {
    JsonValue::object(sketch_fields(sketch))
}

/// Hex digits of one value word.
const WORD_DIGITS: usize = 16;

/// The lowercase hex digit of each nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A bit no nibble has, so OR-ing a word's [`NIBBLES`] entries shows
/// whether any of its digits was invalid.
const INVALID_DIGIT: u8 = 0x10;

/// The nibble each byte denotes as a lowercase hex digit, and
/// [`INVALID_DIGIT`] for every other byte.
const NIBBLES: [u8; 256] = {
    let mut table = [INVALID_DIGIT; 256];
    let mut nibble = 0;
    while nibble < HEX_DIGITS.len() {
        table[HEX_DIGITS[nibble] as usize] = nibble as u8;
        nibble += 1;
    }
    table
};

fn sketch_fields(sketch: &CdfSketch) -> [(&'static str, JsonValue); 2] {
    let observations = sketch.observations();
    let runs = observations
        .chunk_by(|a, b| a.1.to_bits() == b.1.to_bits())
        .map(|run| JsonValue::Array(vec![JsonValue::Number(run[0].1), run.len().to_json()]))
        .collect();
    let mut hex = vec![0u8; WORD_DIGITS * observations.len()];
    for (word, &(value, _)) in hex.chunks_exact_mut(WORD_DIGITS).zip(observations) {
        for (digits, byte) in word.chunks_exact_mut(2).zip(value.to_bits().to_be_bytes()) {
            digits[0] = HEX_DIGITS[usize::from(byte >> 4)];
            digits[1] = HEX_DIGITS[usize::from(byte & 0xf)];
        }
    }
    let values = String::from_utf8(hex).expect("hex digits are ASCII");
    [
        ("weights", JsonValue::Array(runs)),
        ("values", JsonValue::String(values)),
    ]
}

/// Decodes one 16-digit value word, refusing a byte that is not a
/// lowercase hex digit and the bits of a non-finite value.
fn value_from_word(word: &[u8]) -> Result<f64, ShardStateError> {
    let mut bits = 0u64;
    let mut invalid = 0u8;
    for &digit in word {
        let nibble = NIBBLES[usize::from(digit)];
        invalid |= nibble;
        bits = bits << 4 | u64::from(nibble);
    }
    if invalid & INVALID_DIGIT != 0 {
        return Err(ShardStateError::new(
            "sketch values must be lowercase hex digits",
        ));
    }
    let value = f64::from_bits(bits);
    if !value.is_finite() {
        return Err(ShardStateError::new(format!(
            "sketch values must be finite, found word {bits:016x}"
        )));
    }
    Ok(value)
}

/// Rebuilds a [`CdfSketch`] from the `weights`/`values` fields
/// [`sketch_to_json`] writes, re-accumulating the order-sensitive total
/// weight exactly.
///
/// # Errors
///
/// Returns [`ShardStateError`] unless `values` is a string of 16-digit
/// lowercase hex words, each the bits of a finite value, and `weights` an
/// array of `[weight, count]` runs — a positive weight, a positive integer
/// count — whose counts sum to the number of words.
pub fn sketch_from_json(value: &JsonValue) -> Result<CdfSketch, ShardStateError> {
    let hex = value
        .get("values")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ShardStateError::new("sketch is missing its 'values' hex string"))?
        .as_bytes();
    let runs = value
        .get("weights")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ShardStateError::new("sketch is missing its 'weights' array"))?;
    if hex.len() % WORD_DIGITS != 0 {
        return Err(ShardStateError::new(format!(
            "sketch values hold {} hex digits, not a multiple of {WORD_DIGITS}",
            hex.len()
        )));
    }
    let len = hex.len() / WORD_DIGITS;
    let mut words = hex.chunks_exact(WORD_DIGITS);
    let mut observations = Vec::with_capacity(len);
    for run in runs {
        let Some([weight, count]) = run.as_array() else {
            return Err(ShardStateError::new(
                "sketch weight runs must be [weight, count] pairs",
            ));
        };
        // `CdfSketch::push` would silently drop a non-positive weight, so
        // refuse it here instead.
        let weight = weight
            .as_f64()
            .filter(|&weight| weight > 0.0)
            .ok_or_else(|| ShardStateError::new("sketch weights must be positive numbers"))?;
        let count = count
            .as_u64()
            .filter(|&count| count > 0)
            .ok_or_else(|| ShardStateError::new("sketch run counts must be positive integers"))?;
        for _ in 0..count {
            let word = words.next().ok_or_else(|| run_mismatch(len))?;
            observations.push((value_from_word(word)?, weight));
        }
    }
    if words.next().is_some() {
        return Err(run_mismatch(len));
    }
    Ok(CdfSketch::from_observations(observations))
}

fn run_mismatch(values: usize) -> ShardStateError {
    ShardStateError::new(format!(
        "sketch weight run counts do not sum to its {values} values"
    ))
}

/// Serialises a [`CatalogueAccumulator`]: one entry per scheme, each a list
/// of `{n, weights, values}` per-failure-count sketches (see
/// [`sketch_to_json`]) in ascending failure count.
#[must_use]
pub fn accumulator_to_json(accumulator: &CatalogueAccumulator) -> JsonValue {
    JsonValue::Array(
        accumulator
            .per_scheme_counts()
            .iter()
            .map(|per_count| {
                JsonValue::Array(
                    per_count
                        .iter()
                        .map(|(&n_faults, cdf)| {
                            let [weights, values] = sketch_fields(cdf.sketch());
                            JsonValue::object([("n", n_faults.to_json()), weights, values])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Rebuilds a [`CatalogueAccumulator`] from its serialised form.
///
/// # Errors
///
/// Returns [`ShardStateError`] for structural mismatches.
pub fn accumulator_from_json(value: &JsonValue) -> Result<CatalogueAccumulator, ShardStateError> {
    let per_scheme = value
        .as_array()
        .ok_or_else(|| ShardStateError::new("accumulator state must be an array of schemes"))?
        .iter()
        .map(|scheme| {
            let mut per_count = BTreeMap::new();
            for entry in scheme.as_array().ok_or_else(|| {
                ShardStateError::new(
                    "per-scheme state must be an array of {n, weights, values} entries",
                )
            })? {
                let n_faults = entry
                    .get("n")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ShardStateError::new("count entry is missing 'n'"))?;
                let sketch = sketch_from_json(entry)?;
                if per_count
                    .insert(n_faults, EmpiricalCdf::from_sketch(sketch))
                    .is_some()
                {
                    return Err(ShardStateError::new(format!(
                        "duplicate failure count {n_faults} in accumulator state"
                    )));
                }
            }
            Ok(per_count)
        })
        .collect::<Result<Vec<_>, ShardStateError>>()?;
    Ok(CatalogueAccumulator::from_per_scheme_counts(per_scheme))
}

/// Serialises one panel's [`PanelState`] payload (the shape under the
/// panel's `kind` tag).
#[must_use]
pub fn panel_state_to_json(state: &PanelState) -> JsonValue {
    match state {
        PanelState::Catalogue {
            scheme_names,
            accumulator,
        } => JsonValue::object([
            ("schemes", scheme_names.to_json()),
            ("accumulator", accumulator_to_json(accumulator)),
        ]),
        PanelState::Table { rows } => rows.clone(),
    }
}

/// Rebuilds a [`PanelState`] from its `kind` tag and serialised payload.
///
/// # Errors
///
/// Returns [`ShardStateError`] for unknown kinds or structural mismatches.
pub fn panel_state_from_json(kind: &str, value: &JsonValue) -> Result<PanelState, ShardStateError> {
    match kind {
        "catalogue" => {
            let scheme_names = value
                .get("schemes")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ShardStateError::new("catalogue state is missing 'schemes'"))?
                .iter()
                .map(|name| {
                    name.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ShardStateError::new("scheme names must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let accumulator = value
                .get("accumulator")
                .ok_or_else(|| ShardStateError::new("catalogue state is missing 'accumulator'"))
                .and_then(accumulator_from_json)?;
            if accumulator.scheme_count() != scheme_names.len() {
                return Err(ShardStateError::new(format!(
                    "catalogue state tracks {} schemes but names {}",
                    accumulator.scheme_count(),
                    scheme_names.len()
                )));
            }
            Ok(PanelState::Catalogue {
                scheme_names,
                accumulator,
            })
        }
        "table" => Ok(PanelState::Table {
            rows: value.clone(),
        }),
        other => Err(ShardStateError::new(format!(
            "unknown panel state kind '{other}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::find_figure;
    use crate::RunOptions;
    use faultmit_sim::{Accumulator, PairedSample};

    fn sample(index: u64, n_faults: u64, metrics: &[f64]) -> PairedSample {
        PairedSample {
            sample_index: index,
            n_faults,
            weight: 0.125 + index as f64 * 1e-3,
            metrics: metrics.to_vec(),
        }
    }

    fn spec() -> FigureSpec {
        find_figure("fig5").unwrap().spec(&RunOptions::default())
    }

    /// A tiny deterministic xorshift for the sweeps below.
    struct SweepRng(u64);

    impl SweepRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A value in `lo..=hi`.
        fn pick(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() as usize) % (hi - lo + 1)
        }

        /// A value in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Sketches in every weight layout — one constant run, two alternating
    /// weights, all-distinct weights, random runs — plus the empty and the
    /// single-observation sketch, round-tripped through text. Values include
    /// zeros of both signs, subnormals and 1e300; weights span twelve
    /// decades, so the order of the total-weight summation shows in its low
    /// bits. Observations and the total must come back bit for bit, -0.0
    /// included.
    #[test]
    fn sketch_round_trip_is_bit_exact_across_a_randomized_sweep() {
        let specials = [0.0, -0.0, 5e-324, f64::MIN_POSITIVE / 3.0, 1e300, 1.0 / 3.0];
        let mut sweep = SweepRng(0x5EED_5A4D | 1);
        for case in 0..64 {
            let len = match case {
                0 => 0,
                1 => 1,
                _ => sweep.pick(2, 300),
            };
            let weight_of = |sweep: &mut SweepRng| {
                (0.5 + sweep.unit()) * 10f64.powi(sweep.pick(0, 12) as i32 - 6)
            };
            let pair = [weight_of(&mut sweep), weight_of(&mut sweep)];
            let mut run_weight = pair[0];
            let mut sketch = CdfSketch::new();
            for i in 0..len {
                let weight = match case % 4 {
                    0 => pair[0],
                    1 => pair[i % 2],
                    2 => weight_of(&mut sweep),
                    _ => {
                        if sweep.pick(0, 7) == 0 {
                            run_weight = weight_of(&mut sweep);
                        }
                        run_weight
                    }
                };
                let value = if sweep.pick(0, 2) == 0 {
                    specials[sweep.pick(0, specials.len() - 1)]
                } else {
                    sweep.unit() * 10f64.powi(sweep.pick(0, 20) as i32 - 10)
                };
                sketch.push(value, weight);
            }
            assert_eq!(sketch.observations().len(), len);

            let document = sketch_to_json(&sketch);
            let distinct_runs = sketch
                .observations()
                .windows(2)
                .filter(|pair| pair[0].1.to_bits() != pair[1].1.to_bits())
                .count()
                + usize::from(len > 0);
            let runs = document.get("weights").and_then(JsonValue::as_array);
            assert_eq!(runs.map(<[_]>::len), Some(distinct_runs), "case {case}");

            let round = sketch_from_json(&JsonValue::parse(&document.to_pretty_string()).unwrap())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(round.observations().len(), len, "case {case}");
            for (i, (a, b)) in sketch
                .observations()
                .iter()
                .zip(round.observations())
                .enumerate()
            {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "case {case}, value {i}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "case {case}, weight {i}");
            }
            assert_eq!(
                round.total_weight().to_bits(),
                sketch.total_weight().to_bits(),
                "case {case}"
            );
        }
    }

    /// The value column as an independent encoder writes it: each value's
    /// bits as 16 lowercase hex digits, in order.
    fn hex_words(values: &[f64]) -> String {
        values
            .iter()
            .map(|value| format!("{:016x}", value.to_bits()))
            .collect()
    }

    #[test]
    fn value_words_are_the_raw_bits_in_lowercase_hex() {
        let known = [
            (1.0, "3ff0000000000000"),
            (-0.0, "8000000000000000"),
            (5e-324, "0000000000000001"),
            (f64::MAX, "7fefffffffffffff"),
        ];
        let mut sketch = CdfSketch::new();
        for &(value, _) in &known {
            sketch.push(value, 0.25);
        }
        let document = sketch_to_json(&sketch);
        let words: String = known.iter().map(|&(_, word)| word).collect();
        assert_eq!(
            document.get("values").and_then(JsonValue::as_str),
            Some(&*words)
        );
        assert_eq!(words, hex_words(&known.map(|(value, _)| value)));
        let round = sketch_from_json(&document).unwrap();
        for (&(value, word), (read, _)) in known.iter().zip(round.observations()) {
            assert_eq!(read.to_bits(), value.to_bits(), "{word}");
        }
    }

    #[test]
    fn sketch_loader_rejects_inconsistent_runs_weights_and_values() {
        let sketch = |weights: &str, values: &str| {
            JsonValue::parse(&format!("{{\"weights\": {weights}, \"values\": {values}}}")).unwrap()
        };
        let two = format!("\"{}\"", hex_words(&[1.0, 2.5]));
        let good = sketch("[[0.5, 2]]", &two);
        assert_eq!(
            sketch_from_json(&good).unwrap().observations(),
            [(1.0, 0.5), (2.5, 0.5)]
        );
        // The word of 1.0 followed by `word`, as a JSON string.
        let one_word = |word: &str| format!("\"{}{word}\"", hex_words(&[1.0]));
        for (weights, values, reason) in [
            // Run counts that do not sum to the number of values.
            ("[[0.5, 1]]", two.clone(), "do not sum"),
            ("[[0.5, 3]]", two.clone(), "do not sum"),
            ("[]", one_word(""), "do not sum"),
            // Counts must be positive integers.
            ("[[0.5, 0], [0.5, 2]]", two.clone(), "counts"),
            ("[[0.5, 1.5]]", two.clone(), "counts"),
            ("[[0.5, -2]]", two.clone(), "counts"),
            ("[[0.5, \"2\"]]", two.clone(), "counts"),
            // Weights must be positive numbers: `CdfSketch::push` would
            // silently drop the observation otherwise.
            ("[[0, 2]]", two.clone(), "weights"),
            ("[[-0.5, 2]]", two.clone(), "weights"),
            ("[[null, 2]]", two.clone(), "weights"),
            ("[[\"0.5\", 2]]", two.clone(), "weights"),
            // Values must be whole 16-digit words…
            ("[[0.5, 2]]", one_word("3ff000000000000"), "multiple of 16"),
            ("[[0.5, 1]]", "\"3ff\"".to_owned(), "multiple of 16"),
            // …of lowercase hex digits…
            ("[[0.5, 2]]", one_word("3FF0000000000000"), "lowercase hex"),
            ("[[0.5, 2]]", one_word("3ff000000000000g"), "lowercase hex"),
            ("[[0.5, 2]]", one_word("3ff00000000000 0"), "lowercase hex"),
            // …that hold finite values.
            ("[[0.5, 2]]", one_word("7ff8000000000000"), "finite"),
            ("[[0.5, 2]]", one_word("7ff0000000000000"), "finite"),
            ("[[0.5, 2]]", one_word("fff0000000000000"), "finite"),
            // The v4 numeric column is not a v5 one.
            ("[[0.5, 2]]", "[1, 2.5]".to_owned(), "'values'"),
            ("[[0.5, 2]]", "null".to_owned(), "'values'"),
            // Structural defects.
            ("[[0.5]]", one_word(""), "pairs"),
            ("[[0.5, 1, 1]]", one_word(""), "pairs"),
            ("[0.5]", one_word(""), "pairs"),
        ] {
            let bad = sketch(weights, &values);
            let error = sketch_from_json(&bad).expect_err(&format!("accepted {bad:?}"));
            assert!(error.reason.contains(reason), "{bad:?} gave: {error}");
        }
        for (bad, reason) in [
            (format!("{{\"values\": {two}}}"), "'weights'"),
            ("{\"weights\": [[0.5, 1]]}".to_owned(), "'values'"),
            ("[[1.0, 0.5]]".to_owned(), "'values'"),
        ] {
            let error = sketch_from_json(&JsonValue::parse(&bad).unwrap())
                .expect_err(&format!("accepted {bad}"));
            assert!(error.reason.contains(reason), "{bad} gave: {error}");
        }
    }

    #[test]
    fn empty_accumulator_round_trips() {
        for accumulator in [
            CatalogueAccumulator::default(),
            CatalogueAccumulator::new(3),
        ] {
            let round = accumulator_from_json(&accumulator_to_json(&accumulator)).unwrap();
            assert_eq!(round, accumulator);
        }
    }

    #[test]
    fn populated_accumulator_round_trips_through_text() {
        let mut accumulator = CatalogueAccumulator::new(2);
        accumulator.record(&sample(0, 1, &[10.0, 0.5]));
        accumulator.record(&sample(1, 1, &[20.0, 1.0 / 3.0]));
        accumulator.record(&sample(2, 4, &[30.0, 0.125]));
        let text = accumulator_to_json(&accumulator).to_pretty_string();
        let round = accumulator_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(round, accumulator);
    }

    #[test]
    fn malformed_state_documents_are_rejected() {
        assert!(sketch_from_json(&JsonValue::Null).is_err());
        assert!(accumulator_from_json(&JsonValue::parse("[{}]").unwrap()).is_err());
        let stratum = "{\"n\": 1, \"weights\": [], \"values\": \"\"}";
        assert!(
            accumulator_from_json(&JsonValue::parse(&format!("[[{stratum}]]")).unwrap()).is_ok()
        );
        assert!(accumulator_from_json(
            &JsonValue::parse(&format!("[[{stratum}, {stratum}]]")).unwrap()
        )
        .is_err());
        // Neither the v4 numeric column nor the v3 pair layout is a v5
        // stratum.
        for legacy in [
            "{\"n\": 1, \"weights\": [], \"values\": []}",
            "{\"n\": 1, \"weights\": [[0.5, 1]], \"values\": [1.0]}",
            "{\"n\": 1, \"cdf\": [[1.0, 0.5]]}",
        ] {
            assert!(
                accumulator_from_json(&JsonValue::parse(&format!("[[{legacy}]]")).unwrap())
                    .is_err(),
                "accepted {legacy}"
            );
        }
        assert!(panel_state_from_json("bogus", &JsonValue::Null).is_err());
        assert!(panel_state_from_json("catalogue", &JsonValue::Null).is_err());
        // The retired `records` kind is unknown, even in its well-formed
        // layout of `[index, n, weight, [metrics…]]` entries.
        let records = JsonValue::parse(
            "{\"metrics\": [\"naive\", \"optimal\"], \"records\": [[0, 1, 0.5, [2.0, 1.0]]]}",
        )
        .unwrap();
        for state in [JsonValue::Null, records] {
            let error = panel_state_from_json("records", &state).unwrap_err();
            assert!(
                error.reason.contains("unknown panel state kind 'records'"),
                "{error}"
            );
        }
        assert!(ShardState::parse("not json").is_err());
        assert!(ShardState::parse("{\"format\": \"other/v9\"}").is_err());
        // The v1 tag is a foreign format now.
        assert!(ShardState::parse("{\"format\": \"faultmit-shard-state/v1\"}").is_err());
    }

    fn one_panel_state(values: &[f64]) -> PanelState {
        let mut accumulator = CatalogueAccumulator::new(1);
        for (i, &value) in values.iter().enumerate() {
            accumulator.record(&sample(i as u64, 1, &[value]));
        }
        PanelState::Catalogue {
            scheme_names: vec!["no-correction".to_owned()],
            accumulator,
        }
    }

    fn shard_with(index: usize, count: usize, values: &[f64]) -> ShardState {
        ShardState {
            spec: spec(),
            shard: ShardSpec::new(index, count).unwrap(),
            panels: vec![ShardPanelState {
                label: "fig5".to_owned(),
                state: one_panel_state(values),
            }],
            metrics: ShardMetrics {
                elapsed_seconds: Some(0.25 + index as f64),
                kernel: Some("sparse".to_owned()),
                generation_seconds: Some(0.125 + index as f64 * 0.5),
                auto_threshold: None,
                snapshot: None,
            },
        }
    }

    #[test]
    fn shard_state_round_trips_and_matches() {
        let state = shard_with(1, 3, &[7.5]);
        let text = state.to_json().to_pretty_string();
        let round = ShardState::parse(&text).unwrap();
        assert_eq!(round, state);
        assert!(round.matches(&spec(), ShardSpec::new(1, 3).unwrap()));
        assert!(!round.matches(&spec(), ShardSpec::new(0, 3).unwrap()));
        let other_spec = FigureSpec {
            samples_per_count: 99,
            ..spec()
        };
        assert!(!round.matches(&other_spec, ShardSpec::new(1, 3).unwrap()));
    }

    #[test]
    fn every_panel_kind_round_trips_inside_a_shard_state() {
        let table = PanelState::Table {
            rows: JsonValue::parse("[{\"a\": 1.25}, {\"a\": null}]").unwrap(),
        };
        let state = ShardState {
            spec: spec(),
            shard: ShardSpec::solo(),
            metrics: ShardMetrics::default(),
            panels: vec![
                ShardPanelState {
                    label: "cat".to_owned(),
                    state: one_panel_state(&[1.0, 2.0]),
                },
                ShardPanelState {
                    label: "tab".to_owned(),
                    state: table,
                },
            ],
        };
        let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
        assert_eq!(round, state);
    }

    #[test]
    fn elapsed_telemetry_round_trips_and_is_optional() {
        // Telemetry survives the round trip…
        let state = shard_with(1, 3, &[7.5]);
        assert_eq!(state.elapsed_seconds(), Some(1.25));
        assert_eq!(state.kernel(), Some("sparse"));
        assert_eq!(state.generation_seconds(), Some(0.625));
        let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
        assert_eq!(round.elapsed_seconds(), Some(1.25));
        assert_eq!(round.kernel(), Some("sparse"));
        assert_eq!(round.generation_seconds(), Some(0.625));
        // …and files without the `metrics` section parse as empty metrics.
        let mut document = state.to_json();
        if let JsonValue::Object(fields) = &mut document {
            fields.retain(|(key, _)| key != "metrics");
        }
        let bare = ShardState::from_json(&document).unwrap();
        assert!(bare.metrics.is_empty());
        assert_eq!(bare.elapsed_seconds(), None);
        assert_eq!(bare.kernel(), None);
        assert!(bare.matches(&spec(), ShardSpec::new(1, 3).unwrap()));
    }

    #[test]
    fn legacy_format_tags_are_refused_with_a_recompute_hint() {
        let document = shard_with(1, 3, &[7.5]).to_json();
        assert!(ShardState::from_json(&document).is_ok());
        for tag in [
            "faultmit-shard-state/v1",
            "faultmit-shard-state/v2",
            "faultmit-shard-state/v3",
            "faultmit-shard-state/v4",
        ] {
            let mut legacy = document.clone();
            let JsonValue::Object(fields) = &mut legacy else {
                panic!("shard state serialises as an object");
            };
            for (key, value) in fields.iter_mut() {
                if key == "format" {
                    *value = JsonValue::String(tag.to_owned());
                }
            }
            let error = ShardState::parse(&legacy.to_pretty_string()).unwrap_err();
            assert!(error.reason.contains(&format!("'{tag}'")), "{error}");
            assert!(error.reason.contains(SHARD_STATE_FORMAT), "{error}");
            assert!(error.reason.contains("recompute"), "{error}");
        }
    }

    /// A checkpoint whose spec names a removed kernel is refused, never
    /// loaded under a remapped one; `campaign_shard` then recomputes it.
    #[test]
    fn checkpoints_naming_a_removed_kernel_are_refused() {
        let state = ShardState {
            spec: FigureSpec {
                kernel: Some(faultmit_sim::KernelKind::Bitsliced),
                ..spec()
            },
            ..shard_with(0, 2, &[1.0])
        };
        let text = state.to_json().to_pretty_string();
        assert_eq!(ShardState::parse(&text).unwrap(), state);
        let spec_kernel = "\"kernel\": \"bitsliced\"";
        assert_eq!(text.matches(spec_kernel).count(), 1, "{text}");
        for removed in ["scalar", "bitsliced256", "auto"] {
            let old = text.replace(spec_kernel, &format!("\"kernel\": \"{removed}\""));
            let error = ShardState::parse(&old).unwrap_err();
            assert!(
                error
                    .reason
                    .contains(&format!("kernel '{removed}' was removed")),
                "{error}"
            );
        }
    }

    /// A crash mid-write must never leave a loadable checkpoint: every
    /// strict prefix of a real one fails to parse.
    #[test]
    fn every_strict_prefix_of_a_real_checkpoint_fails_to_parse() {
        let figure = find_figure("fig5").unwrap();
        let spec = figure.spec(&RunOptions::parse(["--samples", "2"].map(str::to_owned)));
        let shard = ShardSpec::new(0, 2).unwrap();
        let recorder = std::sync::Arc::new(faultmit_obs::Recorder::new());
        let panels = {
            let _guard = faultmit_obs::install(&recorder);
            figure
                .run_shard(&spec, faultmit_sim::Parallelism::threads(1), shard)
                .unwrap()
                .panels
        };
        let state = ShardState {
            panels: figure
                .panel_labels(&spec)
                .into_iter()
                .zip(panels)
                .map(|(label, state)| ShardPanelState { label, state })
                .collect(),
            metrics: ShardMetrics {
                elapsed_seconds: Some(0.5),
                generation_seconds: Some(0.25),
                kernel: spec.kernel.map(|kernel| kernel.as_str().to_owned()),
                auto_threshold: None,
                snapshot: Some(recorder.snapshot()),
            },
            spec,
            shard,
        };
        let text = state.to_json().to_pretty_string();
        assert!(text.is_ascii());
        assert_eq!(ShardState::parse(&text).unwrap(), state);
        for end in 0..text.len() {
            assert!(
                ShardState::parse(&text[..end]).is_err(),
                "a {end}-byte prefix of a {}-byte checkpoint parsed",
                text.len()
            );
        }
    }

    #[test]
    fn shard_state_round_trips_a_populated_metrics_snapshot() {
        let recorder = faultmit_obs::Recorder::new();
        {
            let recorder = std::sync::Arc::new(recorder);
            let _guard = faultmit_obs::install(&recorder);
            faultmit_obs::count(faultmit_obs::Counter::SamplesEvaluated, 42);
            faultmit_obs::record(faultmit_obs::Histogram::FaultsPerDie, 3);
            faultmit_obs::add_stage(faultmit_obs::Stage::Generate, 1_000, 7);
            let mut state = shard_with(0, 1, &[7.5]);
            state.metrics.snapshot = Some(recorder.snapshot());
            let round = ShardState::parse(&state.to_json().to_pretty_string()).unwrap();
            assert_eq!(round, state);
            let snapshot = round.metrics.snapshot.expect("snapshot survives");
            assert_eq!(
                snapshot.counter(faultmit_obs::Counter::SamplesEvaluated),
                42
            );
        }
    }

    #[test]
    fn merge_folds_shards_in_index_order_regardless_of_input_order() {
        let merged = ShardState::merge(vec![
            shard_with(2, 3, &[5.0]),
            shard_with(0, 3, &[1.0, 2.0]),
            shard_with(1, 3, &[3.0]),
        ])
        .unwrap();
        assert!(merged.shard.is_solo());
        // Telemetry aggregates: clocks sum across the set, the validated
        // kernel identity is kept.
        assert_eq!(merged.elapsed_seconds(), Some(0.25 + 1.25 + 2.25));
        assert_eq!(merged.kernel(), Some("sparse"));
        assert_eq!(merged.generation_seconds(), Some(0.125 + 0.625 + 1.125));
        let PanelState::Catalogue { accumulator, .. } = &merged.panels[0].state else {
            panic!("expected catalogue state");
        };
        let values: Vec<f64> = accumulator.per_scheme_counts()[0][&1]
            .samples()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn merge_verifies_kernel_consistency_across_the_shard_set() {
        // A disagreeing kernel is a re-sharded campaign with different
        // `--kernel` flags — refuse, naming both.
        let mut block = shard_with(1, 2, &[2.0]);
        block.metrics.kernel = Some("bitsliced".to_owned());
        let sparse = shard_with(0, 2, &[1.0]);
        let error = ShardState::merge(vec![sparse, block]).unwrap_err();
        assert!(
            error.reason.contains(
                "shards disagree on the evaluation kernel \
                 ('bitsliced' vs 'sparse')"
            ),
            "{error}"
        );

        // Legacy checkpoints without the field merge with anything (the
        // shard that did record a kernel supplies the merged identity)…
        let mut legacy = shard_with(0, 2, &[1.0]);
        legacy.metrics.kernel = None;
        let merged = ShardState::merge(vec![legacy, shard_with(1, 2, &[2.0])]).unwrap();
        assert_eq!(merged.kernel(), Some("sparse"));

        // …and shards that agree merge under their kernel.
        let mut a = shard_with(0, 2, &[1.0]);
        let mut b = shard_with(1, 2, &[2.0]);
        a.metrics.kernel = Some("bitsliced".to_owned());
        b.metrics.kernel = Some("bitsliced".to_owned());
        let merged = ShardState::merge(vec![a, b]).unwrap();
        assert_eq!(merged.kernel(), Some("bitsliced"));
    }

    #[test]
    fn merge_errors_enumerate_every_missing_and_mismatched_shard() {
        assert!(ShardState::merge(vec![]).is_err());

        // Missing shards 1 and 3 of 5: both named in one message.
        let error = ShardState::merge(vec![
            shard_with(0, 5, &[1.0]),
            shard_with(2, 5, &[2.0]),
            shard_with(4, 5, &[3.0]),
        ])
        .unwrap_err();
        assert!(error.reason.contains("missing shard(s) [1, 3]"), "{error}");
        assert!(error.reason.contains("5-shard set"), "{error}");

        // Duplicate shard index.
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), shard_with(0, 2, &[2.0])])
            .unwrap_err();
        assert!(error.reason.contains("duplicated shard(s) [0]"), "{error}");
        assert!(error.reason.contains("missing shard(s) [1]"), "{error}");

        // Conflicting spec: the offending index is named.
        let mut foreign = shard_with(1, 2, &[2.0]);
        foreign.spec.samples_per_count = 7;
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), foreign]).unwrap_err();
        assert!(
            error.reason.contains("[1/2]") && error.reason.contains("different campaign"),
            "{error}"
        );

        // Conflicting catalogue.
        let mut renamed = shard_with(1, 2, &[2.0]);
        if let PanelState::Catalogue { scheme_names, .. } = &mut renamed.panels[0].state {
            scheme_names[0] = "other".to_owned();
        }
        let error = ShardState::merge(vec![shard_with(0, 2, &[1.0]), renamed]).unwrap_err();
        assert!(
            error.reason.contains("[1/2]") && error.reason.contains("disagree"),
            "{error}"
        );
    }

    #[test]
    fn merge_refuses_absurd_shard_counts_without_allocating() {
        // A corrupted/crafted file may claim any K; the merge must refuse
        // it cheaply instead of sizing bookkeeping by the claimed count.
        let mut shard = shard_with(0, 1, &[1.0]);
        shard.shard = ShardSpec::new(0, 50_000_000).unwrap();
        let error = ShardState::merge(vec![shard]).unwrap_err();
        assert!(error.reason.contains("claims a 50000000-shard"), "{error}");
    }

    #[test]
    fn into_panels_validates_labels() {
        let state = shard_with(0, 1, &[1.0]);
        assert!(state.clone().into_panels(&["fig5".to_owned()]).is_ok());
        assert!(state.into_panels(&["other".to_owned()]).is_err());
    }

    #[test]
    fn load_shard_files_reports_every_bad_path_and_mixed_figures() {
        let dir = std::env::temp_dir().join(format!("faultmit-shard-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let good = dir.join("good.json");
        std::fs::write(&good, shard_with(0, 2, &[1.0]).to_json().to_pretty_string()).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        let missing = dir.join("missing.json");

        let error = load_shard_files(&[&good, &garbage, &missing]).unwrap_err();
        assert!(error.reason.contains("garbage.json"), "{error}");
        assert!(error.reason.contains("missing.json"), "{error}");
        assert!(!error.reason.contains("good.json"), "{error}");

        // Mixed figures across one set are rejected even if each file is
        // individually valid.
        let foreign = dir.join("foreign.json");
        let mut other = shard_with(1, 2, &[2.0]);
        other.spec = find_figure("fig4").unwrap().spec(&RunOptions::default());
        other.panels = vec![ShardPanelState {
            label: "fig4".to_owned(),
            state: PanelState::Table {
                rows: JsonValue::Array(vec![]),
            },
        }];
        std::fs::write(&foreign, other.to_json().to_pretty_string()).unwrap();
        let error = load_shard_files(&[&good, &foreign]).unwrap_err();
        assert!(error.reason.contains("mix figures"), "{error}");
        assert!(error.reason.contains("fig4"), "{error}");

        let ok = load_shard_files(&[&good]).unwrap();
        assert_eq!(ok.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
