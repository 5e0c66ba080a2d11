//! Fault descriptions and per-die fault maps.
//!
//! A *fault* is a persistent defect of a single bit-cell caused by parametric
//! variation (possibly exposed by voltage scaling). Once a die has been
//! manufactured the number and location of its faults is fixed, which is why
//! the bit-shuffling scheme can record them once (via BIST) and compensate on
//! every subsequent access.

use crate::config::MemoryConfig;
use crate::error::MemError;

/// Behaviour of a faulty bit-cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The cell always reads `0` regardless of the stored value.
    StuckAtZero,
    /// The cell always reads `1` regardless of the stored value.
    StuckAtOne,
    /// The cell returns the complement of the stored value (models a cell
    /// whose read path flips the content, e.g. a destructive read upset).
    BitFlip,
}

impl FaultKind {
    /// All fault kinds, useful for exhaustive testing.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::StuckAtZero,
        FaultKind::StuckAtOne,
        FaultKind::BitFlip,
    ];

    /// Applies the fault to a single stored bit, returning the bit observed
    /// by a read.
    #[must_use]
    pub fn apply(self, stored: bool) -> bool {
        match self {
            FaultKind::StuckAtZero => false,
            FaultKind::StuckAtOne => true,
            FaultKind::BitFlip => !stored,
        }
    }

    /// Whether a read of a cell storing `stored` would observe an error.
    #[must_use]
    pub fn corrupts(self, stored: bool) -> bool {
        self.apply(stored) != stored
    }

    /// The two-bit code generators pack into sort keys and block events.
    #[inline]
    pub(crate) fn code(self) -> u64 {
        match self {
            FaultKind::StuckAtZero => 0,
            FaultKind::StuckAtOne => 1,
            FaultKind::BitFlip => 2,
        }
    }

    /// Inverse of [`FaultKind::code`], reading the low two bits.
    #[inline]
    pub(crate) fn from_code(code: u64) -> Self {
        match code & 0b11 {
            0 => FaultKind::StuckAtZero,
            1 => FaultKind::StuckAtOne,
            _ => FaultKind::BitFlip,
        }
    }
}

/// A single faulty bit-cell: its location and behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Row (word address) of the faulty cell.
    pub row: usize,
    /// Column (bit position within the word, 0 = LSB) of the faulty cell.
    pub col: usize,
    /// Behaviour of the faulty cell.
    pub kind: FaultKind,
}

impl Fault {
    /// Creates a fault at `(row, col)` with the given behaviour.
    #[must_use]
    pub fn new(row: usize, col: usize, kind: FaultKind) -> Self {
        Self { row, col, kind }
    }

    /// Convenience constructor for a stuck-at-zero fault.
    #[must_use]
    pub fn stuck_at_zero(row: usize, col: usize) -> Self {
        Self::new(row, col, FaultKind::StuckAtZero)
    }

    /// Convenience constructor for a stuck-at-one fault.
    #[must_use]
    pub fn stuck_at_one(row: usize, col: usize) -> Self {
        Self::new(row, col, FaultKind::StuckAtOne)
    }

    /// Convenience constructor for a bit-flip fault.
    #[must_use]
    pub fn bit_flip(row: usize, col: usize) -> Self {
        Self::new(row, col, FaultKind::BitFlip)
    }
}

/// The set of faulty bit-cells of one manufactured die.
///
/// At most one fault is recorded per cell; inserting a second fault at the
/// same `(row, col)` replaces the previous one (the physical cell has exactly
/// one behaviour).
///
/// # Flat storage layout
///
/// Faults live in one flat `Vec<Fault>` kept sorted by `(row, col)` — a
/// CSR-style layout without an explicit offset array, since per-die fault
/// counts are tiny (tens to hundreds). Row lookups are two binary searches
/// ([`slice::partition_point`]) yielding a contiguous
/// [`FaultMap::row_faults`] slice, and [`FaultMap::rows_with_faults`] walks
/// the groups in one pass. Compared to the previous
/// `BTreeMap<usize, BTreeMap<usize, FaultKind>>` this removes all per-node
/// heap allocation and pointer chasing from the Monte-Carlo hot loop, and
/// [`FaultMap::clear`] lets a scratch map be refilled die after die with no
/// steady-state allocation at all (see `DieScratch`).
///
/// Inserts shift the tail of the vector (`O(n)` worst case), which is far
/// cheaper at campaign fault counts than the pointer-chased alternative —
/// and backends insert in mostly ascending index order anyway.
///
/// # Example
///
/// ```
/// use faultmit_memsim::{Fault, FaultKind, FaultMap, MemoryConfig};
///
/// # fn main() -> Result<(), faultmit_memsim::MemError> {
/// let config = MemoryConfig::new(16, 32)?;
/// let mut map = FaultMap::new(config);
/// map.insert(Fault::bit_flip(3, 31))?;
/// map.insert(Fault::stuck_at_one(7, 0))?;
///
/// assert_eq!(map.fault_count(), 2);
/// assert_eq!(map.faulty_columns(3), vec![31]);
/// assert!(map.row_has_fault(7));
/// assert!(!map.row_has_fault(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    config: MemoryConfig,
    /// All faults, sorted by `(row, col)` — the flat CSR-style store.
    faults: Vec<Fault>,
}

impl FaultMap {
    /// Creates an empty fault map for the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            config,
            faults: Vec::new(),
        }
    }

    /// Geometry this fault map was built for.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Position of `(row, col)` in the sorted store: `Ok` when present,
    /// `Err` with the insertion point otherwise.
    fn position(&self, row: usize, col: usize) -> Result<usize, usize> {
        self.faults
            .binary_search_by(|f| (f.row, f.col).cmp(&(row, col)))
    }

    /// The contiguous index range holding the faults of `row`.
    fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        let start = self.faults.partition_point(|f| f.row < row);
        let end = start + self.faults[start..].partition_point(|f| f.row == row);
        start..end
    }

    /// Inserts (or replaces) a fault.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] or [`MemError::ColumnOutOfRange`]
    /// if the location is outside the array.
    pub fn insert(&mut self, fault: Fault) -> Result<(), MemError> {
        self.config.check_row(fault.row)?;
        self.config.check_col(fault.col)?;
        match self.position(fault.row, fault.col) {
            Ok(index) => self.faults[index] = fault,
            Err(index) => self.faults.insert(index, fault),
        }
        Ok(())
    }

    /// Appends a fault that sorts after every stored one — the bulk load of
    /// generators that emit faults already in `(row, col)` order, so no die
    /// is sorted. The caller guarantees the location is inside the array.
    pub(crate) fn push_in_order(&mut self, fault: Fault) {
        debug_assert!(fault.row < self.config.rows() && fault.col < self.config.word_bits());
        debug_assert!(self
            .faults
            .last()
            .is_none_or(|last| (last.row, last.col) < (fault.row, fault.col)));
        self.faults.push(fault);
    }

    /// Removes the fault at `(row, col)`, returning its kind if present.
    pub fn remove(&mut self, row: usize, col: usize) -> Option<FaultKind> {
        match self.position(row, col) {
            Ok(index) => Some(self.faults.remove(index).kind),
            Err(_) => None,
        }
    }

    /// Removes every fault while keeping the allocated capacity — the reset
    /// that lets one scratch map serve an entire campaign without
    /// steady-state allocation.
    pub fn clear(&mut self) {
        self.faults.clear();
    }

    /// Total number of faulty cells (`N_failures` in the paper).
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the die has no faulty cell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault affecting cell `(row, col)`, if any.
    #[must_use]
    pub fn fault_at(&self, row: usize, col: usize) -> Option<FaultKind> {
        self.position(row, col)
            .ok()
            .map(|index| self.faults[index].kind)
    }

    /// `true` when the given row contains at least one faulty cell.
    #[must_use]
    pub fn row_has_fault(&self, row: usize) -> bool {
        !self.row_faults(row).is_empty()
    }

    /// Number of rows that contain at least one faulty cell.
    #[must_use]
    pub fn faulty_row_count(&self) -> usize {
        self.rows_with_faults().count()
    }

    /// The faults of `row` as a contiguous slice, sorted by column — the
    /// zero-copy row view sparse evaluation kernels consume (see
    /// `MitigationScheme::observe_sparse` in `faultmit-core`).
    #[must_use]
    pub fn row_faults(&self, row: usize) -> &[Fault] {
        &self.faults[self.row_range(row)]
    }

    /// Faulty bit positions of `row`, sorted ascending (LSB first).
    ///
    /// Allocates; hot paths should prefer [`FaultMap::row_faults`].
    #[must_use]
    pub fn faulty_columns(&self, row: usize) -> Vec<usize> {
        self.row_faults(row).iter().map(|f| f.col).collect()
    }

    /// Highest faulty bit position of `row`, if any.
    ///
    /// This is the quantity that determines the worst-case error magnitude of
    /// an unprotected word (`2^b` for bit position `b`).
    #[must_use]
    pub fn highest_faulty_column(&self, row: usize) -> Option<usize> {
        self.row_faults(row).last().map(|f| f.col)
    }

    /// Iterates over all faults in deterministic (row, column) order.
    pub fn iter(&self) -> impl Iterator<Item = Fault> + '_ {
        self.faults.iter().copied()
    }

    /// Iterates over rows that contain faults, in ascending row order.
    pub fn faulty_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows_with_faults().map(|(row, _)| row)
    }

    /// Iterates over `(row, row fault slice)` groups in ascending row order
    /// — one linear pass over the flat store, the event-driven walk the
    /// sparse MSE kernels are built on.
    pub fn rows_with_faults(&self) -> impl Iterator<Item = (usize, &[Fault])> + '_ {
        RowGroups {
            faults: &self.faults,
        }
    }

    /// Number of faults per row as a dense vector of length `rows()`.
    #[must_use]
    pub fn faults_per_row(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.rows()];
        for fault in &self.faults {
            counts[fault.row] += 1;
        }
        counts
    }

    /// Maximum number of faults found in any single row.
    #[must_use]
    pub fn max_faults_per_row(&self) -> usize {
        self.rows_with_faults()
            .map(|(_, faults)| faults.len())
            .max()
            .unwrap_or(0)
    }

    /// Heap capacity (in faults) of the flat store — the quantity the
    /// zero-allocation regression tests watch across scratch reuse.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.faults.capacity()
    }

    /// Re-draws the kind of every stored fault in `(row, col)` order while
    /// keeping positions — the SRAM backend's "place with the default law,
    /// then re-kind in map order" protocol.
    pub(crate) fn rekind_in_order(&mut self, mut kind: impl FnMut() -> FaultKind) {
        for fault in &mut self.faults {
            fault.kind = kind();
        }
    }

    /// Builds a fault map from an iterator of faults.
    ///
    /// # Errors
    ///
    /// Propagates the first out-of-range location encountered.
    pub fn from_faults<I>(config: MemoryConfig, faults: I) -> Result<Self, MemError>
    where
        I: IntoIterator<Item = Fault>,
    {
        let mut map = Self::new(config);
        for fault in faults {
            map.insert(fault)?;
        }
        Ok(map)
    }
}

impl Extend<Fault> for FaultMap {
    /// Extends the map, silently skipping out-of-range faults.
    ///
    /// Use [`FaultMap::insert`] directly when out-of-range locations should be
    /// treated as errors.
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        for fault in iter {
            let _ = self.insert(fault);
        }
    }
}

/// Group-by-row iterator over the flat sorted fault store: yields one
/// `(row, slice)` pair per faulty row, in ascending row order, without
/// allocating.
struct RowGroups<'a> {
    faults: &'a [Fault],
}

impl RowGroups<'_> {
    /// Linear probes per group before switching to binary search. Groups of
    /// one or two faults (the overwhelmingly common case at campaign fault
    /// densities) never pay the search setup; fault-heavy rows — e.g. the
    /// stuck-at fig9 configs, where a single row can hold a large share of
    /// the die's faults — find their boundary in `O(log n)` instead of
    /// walking every fault of the group.
    const LINEAR_PROBES: usize = 8;

    /// Length of the leading row group, found by an exhaustive linear scan —
    /// the reference the equivalence test pins the hybrid walk against.
    #[cfg(test)]
    fn group_len_linear(faults: &[Fault], row: usize) -> usize {
        let mut len = 1;
        while len < faults.len() && faults[len].row == row {
            len += 1;
        }
        len
    }

    /// Length of the leading row group, found by [`slice::partition_point`]
    /// after `probed` elements are already known to belong to it.
    fn group_len_binary(faults: &[Fault], row: usize, probed: usize) -> usize {
        probed + faults[probed..].partition_point(|f| f.row == row)
    }
}

impl<'a> Iterator for RowGroups<'a> {
    type Item = (usize, &'a [Fault]);

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.faults.first()?;
        let row = first.row;
        // Hybrid probe: scan linearly first — groups are tiny (usually one
        // fault), so this walks each fault once across the whole iteration —
        // and fall back to a partition_point binary search for the rare
        // fault-heavy rows whose group outruns the probe window.
        let mut len = 1;
        let probe_limit = Self::LINEAR_PROBES.min(self.faults.len());
        while len < probe_limit && self.faults[len].row == row {
            len += 1;
        }
        if len == Self::LINEAR_PROBES && len < self.faults.len() && self.faults[len].row == row {
            len = Self::group_len_binary(self.faults, row, len);
        }
        let (group, rest) = self.faults.split_at(len);
        self.faults = rest;
        Some((row, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemoryConfig {
        MemoryConfig::new(8, 32).unwrap()
    }

    #[test]
    fn fault_kind_apply_matches_semantics() {
        assert!(!FaultKind::StuckAtZero.apply(true));
        assert!(!FaultKind::StuckAtZero.apply(false));
        assert!(FaultKind::StuckAtOne.apply(true));
        assert!(FaultKind::StuckAtOne.apply(false));
        assert!(!FaultKind::BitFlip.apply(true));
        assert!(FaultKind::BitFlip.apply(false));
    }

    #[test]
    fn fault_kind_corrupts_only_when_observable() {
        // A stuck-at-zero cell storing 0 is not observably corrupt.
        assert!(!FaultKind::StuckAtZero.corrupts(false));
        assert!(FaultKind::StuckAtZero.corrupts(true));
        assert!(FaultKind::StuckAtOne.corrupts(false));
        assert!(!FaultKind::StuckAtOne.corrupts(true));
        // A flipping cell always corrupts.
        assert!(FaultKind::BitFlip.corrupts(false));
        assert!(FaultKind::BitFlip.corrupts(true));
    }

    #[test]
    fn insert_and_query() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::stuck_at_one(2, 5)).unwrap();
        map.insert(Fault::bit_flip(2, 31)).unwrap();
        map.insert(Fault::stuck_at_zero(7, 0)).unwrap();

        assert_eq!(map.fault_count(), 3);
        assert_eq!(map.faulty_row_count(), 2);
        assert_eq!(map.fault_at(2, 5), Some(FaultKind::StuckAtOne));
        assert_eq!(map.fault_at(2, 6), None);
        assert_eq!(map.faulty_columns(2), vec![5, 31]);
        assert_eq!(map.highest_faulty_column(2), Some(31));
        assert_eq!(map.highest_faulty_column(0), None);
    }

    #[test]
    fn inserting_same_cell_twice_replaces() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::stuck_at_one(1, 1)).unwrap();
        map.insert(Fault::stuck_at_zero(1, 1)).unwrap();
        assert_eq!(map.fault_count(), 1);
        assert_eq!(map.fault_at(1, 1), Some(FaultKind::StuckAtZero));
    }

    #[test]
    fn remove_clears_empty_rows() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::bit_flip(3, 4)).unwrap();
        assert_eq!(map.remove(3, 4), Some(FaultKind::BitFlip));
        assert_eq!(map.remove(3, 4), None);
        assert!(map.is_empty());
        assert!(!map.row_has_fault(3));
    }

    #[test]
    fn out_of_range_insert_is_rejected() {
        let mut map = FaultMap::new(config());
        assert!(map.insert(Fault::bit_flip(8, 0)).is_err());
        assert!(map.insert(Fault::bit_flip(0, 32)).is_err());
        assert!(map.is_empty());
    }

    #[test]
    fn iteration_is_deterministic_and_sorted() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::bit_flip(5, 1)).unwrap();
        map.insert(Fault::bit_flip(1, 30)).unwrap();
        map.insert(Fault::bit_flip(1, 2)).unwrap();

        let collected: Vec<(usize, usize)> = map.iter().map(|f| (f.row, f.col)).collect();
        assert_eq!(collected, vec![(1, 2), (1, 30), (5, 1)]);
    }

    #[test]
    fn faults_per_row_is_dense() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::bit_flip(1, 2)).unwrap();
        map.insert(Fault::bit_flip(1, 3)).unwrap();
        map.insert(Fault::bit_flip(6, 0)).unwrap();
        let per_row = map.faults_per_row();
        assert_eq!(per_row.len(), 8);
        assert_eq!(per_row[1], 2);
        assert_eq!(per_row[6], 1);
        assert_eq!(per_row.iter().sum::<usize>(), 3);
        assert_eq!(map.max_faults_per_row(), 2);
    }

    #[test]
    fn row_faults_returns_sorted_contiguous_slices() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::bit_flip(5, 1)).unwrap();
        map.insert(Fault::stuck_at_one(1, 30)).unwrap();
        map.insert(Fault::stuck_at_zero(1, 2)).unwrap();

        assert_eq!(
            map.row_faults(1),
            &[Fault::stuck_at_zero(1, 2), Fault::stuck_at_one(1, 30)]
        );
        assert_eq!(map.row_faults(5), &[Fault::bit_flip(5, 1)]);
        assert!(map.row_faults(0).is_empty());
        assert!(map.row_faults(7).is_empty());
    }

    #[test]
    fn rows_with_faults_walks_groups_in_ascending_order() {
        let mut map = FaultMap::new(config());
        map.insert(Fault::bit_flip(6, 0)).unwrap();
        map.insert(Fault::bit_flip(2, 9)).unwrap();
        map.insert(Fault::bit_flip(2, 3)).unwrap();
        map.insert(Fault::bit_flip(0, 31)).unwrap();

        let groups: Vec<(usize, usize)> = map
            .rows_with_faults()
            .map(|(row, faults)| (row, faults.len()))
            .collect();
        assert_eq!(groups, vec![(0, 1), (2, 2), (6, 1)]);
        let rows: Vec<usize> = map.faulty_rows().collect();
        assert_eq!(rows, vec![0, 2, 6]);
    }

    #[test]
    fn row_group_cursor_and_binary_search_agree_on_fault_heavy_dies() {
        // Pin the hybrid iterator's two boundary finders against each other
        // across group shapes from singletons to full fault-heavy rows (the
        // stuck-at fig9 regime that motivates the partition_point path).
        let wide = MemoryConfig::new(64, 32).unwrap();
        let mut state = 0x9E37_79B9u64;
        let mut next_state = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for density in [1usize, 2, 7, 8, 9, 20, 32] {
            let mut map = FaultMap::new(wide);
            for _ in 0..200 {
                let row = (next_state() as usize) % 64;
                for _ in 0..density {
                    let col = (next_state() as usize) % 32;
                    map.insert(Fault::bit_flip(row, col)).unwrap();
                }
            }
            // Walk the flat store group by group; at every cursor position
            // both finders must report the same boundary, and the iterator
            // itself must match the exhaustive linear reference.
            let mut rest: &[Fault] = &map.faults;
            let mut reference = Vec::new();
            while let Some(first) = rest.first() {
                let linear = RowGroups::group_len_linear(rest, first.row);
                for probed in 1..=linear.min(RowGroups::LINEAR_PROBES) {
                    assert_eq!(
                        RowGroups::group_len_binary(rest, first.row, probed),
                        linear,
                        "density {density}: cursor scan and partition_point disagree"
                    );
                }
                reference.push((first.row, linear));
                rest = &rest[linear..];
            }
            let hybrid: Vec<(usize, usize)> = map
                .rows_with_faults()
                .map(|(row, faults)| (row, faults.len()))
                .collect();
            assert_eq!(hybrid, reference, "density {density}");
        }
    }

    #[test]
    fn clear_keeps_capacity_for_arena_reuse() {
        let mut map = FaultMap::new(config());
        for col in 0..16 {
            map.insert(Fault::bit_flip(3, col)).unwrap();
        }
        let capacity = map.capacity();
        assert!(capacity >= 16);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), capacity);
        // Refilling up to the old watermark must not reallocate.
        for col in 0..16 {
            map.insert(Fault::stuck_at_one(2, col)).unwrap();
        }
        assert_eq!(map.capacity(), capacity);
    }

    #[test]
    fn from_faults_builds_equivalent_map() {
        let faults = vec![Fault::bit_flip(0, 0), Fault::stuck_at_one(4, 9)];
        let map = FaultMap::from_faults(config(), faults.clone()).unwrap();
        assert_eq!(map.fault_count(), 2);
        let rebuilt: Vec<Fault> = map.iter().collect();
        assert_eq!(rebuilt.len(), 2);
        assert!(rebuilt.contains(&faults[0]));
        assert!(rebuilt.contains(&faults[1]));
    }
}
