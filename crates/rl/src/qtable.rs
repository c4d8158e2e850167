//! The Q-table: a dense `states × actions` lookup table of action values.
//!
//! The paper sizes this concretely: about 3,072 states × ~66 actions,
//! for a memory footprint of roughly 0.4 MB (Section VI-C) — "only 0.01%
//! of the 3 GB DRAM capacity of a typical mid-end mobile device".
//!
//! ## The argmax cache
//!
//! A greedy decision is an argmax over one state's row, and the paper's
//! pitch is that this costs microseconds. Scanning ~66 actions per
//! decision is already cheap, but the serving hot path asks for the same
//! row maximum on *every* decision and *every* learning update (the
//! bootstrap term), so the table keeps a per-state cache of the
//! lowest-index maximizer. The cache is maintained incrementally on
//! [`QTable::set`]/[`QTable::add`]: a write that raises the maximum or
//! ties it at a lower index updates the cache in O(1); only a write that
//! lowers the current maximum triggers an O(actions) row rescan. With a
//! feasibility mask, the cached entry answers in O(1) whenever the cached
//! action is allowed (always true for fully feasible workloads); otherwise
//! the lookup falls back to the masked scan. `tests/properties.rs` proves
//! cache == brute-force rescan under arbitrary write interleavings.
//!
//! ## Storage layout
//!
//! Values live in cache-line-aligned lanes of eight `f64`s
//! ([`QLane`], `#[repr(align(64))]`): each row is padded to a multiple of
//! eight actions, so a row always starts on a 64-byte cache-line boundary
//! and a lane never straddles two lines. The padding slots hold `0.0` and
//! are never read through the logical API.
//!
//! Rows are grouped into chunks of [`CHUNK_ROWS`] = 64, each a
//! `OnceLock` holding the chunk's lanes and argmax cache entries. A
//! [`QTable::new_random`] table fills a chunk the first time any of its
//! rows is read or written: it jumps a generator seeded with the table's
//! seed to the chunk's first draw (`StdRng::advance`) and runs the same
//! state-major fill the table always had, so the values are bit-identical
//! to an eager fill. Serving sessions read one network's 64-state block
//! (the paper state space's runtime features span exactly 64 states), so
//! a cold session fills one chunk instead of 48. Every other constructor
//! (`new_zeroed`, deserialization, [`crate::QStore::to_table`]) fills
//! all chunks up front, and a table
//! that is shared — a copy-on-write base, a fleet's warm start — is
//! filled in full before it is shared, so it never changes behind a
//! shared reference.
//!
//! [`QTable::memory_bytes`] counts the chunks filled so far (lanes plus
//! argmax cache). [`QTable::full_bytes`] is the footprint with every
//! chunk filled: for the paper-scale table (3,072 × 66 → stride 72) that
//! is 1.73 MB — 9% lane padding over the 1.55 MB of raw values, plus
//! 48 KB of argmax cache — still the same order of magnitude as
//! Section VI-C. One chunk is 37 KB.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Logical `f64` slots per cache-line-aligned storage lane.
pub(crate) const LANES: usize = 8;

/// One cache line of Q values: eight `f64`s, 64-byte aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub(crate) struct QLane(pub(crate) [f64; LANES]);

/// The cached lowest-index maximizer of one state's row.
///
/// Shared with the copy-on-write overlay backend ([`crate::qstore`]),
/// which keeps one `RowMax` per materialized overlay row so its argmax
/// semantics are the dense table's by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowMax {
    pub(crate) action: u32,
    pub(crate) value: f64,
}

/// The logical values of one row's lane slice, in action order (padding
/// excluded). Works on any `stride`-lane row slice — dense storage or an
/// overlay arena row.
pub(crate) fn lane_values(lanes: &[QLane], actions: usize) -> impl Iterator<Item = f64> + '_ {
    lanes
        .iter()
        .flat_map(|line| line.0.iter().copied())
        .take(actions)
}

/// Brute-force lowest-index maximizer of one row's lane slice.
pub(crate) fn scan_lanes(lanes: &[QLane], actions: usize) -> RowMax {
    let mut best = RowMax {
        action: 0,
        value: lanes[0].0[0],
    };
    for (a, v) in lane_values(lanes, actions).enumerate().skip(1) {
        if v > best.value {
            best = RowMax {
                action: a as u32,
                value: v,
            };
        }
    }
    best
}

/// Restores a row's cache invariant after `row[action] = value`.
///
/// O(1) unless the write lowered the current row maximum, which forces
/// an O(actions) rescan of the row. The dense table and the overlay
/// backend both route every write through this function, so their
/// incremental argmax maintenance cannot drift apart.
pub(crate) fn note_row_write(
    cached: &mut RowMax,
    lanes: &[QLane],
    actions: usize,
    action: usize,
    value: f64,
) {
    let a = action as u32;
    if a == cached.action {
        if value >= cached.value {
            // The maximum grew in place: no other entry can now tie it
            // (ties would have had to exceed the previous maximum).
            cached.value = value;
        } else {
            *cached = scan_lanes(lanes, actions);
        }
    } else if value > cached.value || (value == cached.value && a < cached.action) {
        *cached = RowMax { action: a, value };
    }
}

/// The lowest-index allowed maximizer of one row's lane slice: the
/// cached entry in O(1) when the mask allows it, otherwise a masked
/// O(actions) scan. Returns `None` when the mask allows nothing.
pub(crate) fn best_allowed(
    lanes: &[QLane],
    actions: usize,
    cached: RowMax,
    mask: &[bool],
) -> Option<(usize, f64)> {
    if mask[cached.action as usize] {
        // The cached entry is the lowest-index maximizer over *all*
        // actions; when the mask allows it, no allowed action can beat
        // it, and a lower-index allowed tie would itself be a
        // lower-index global maximizer — contradiction.
        return Some((cached.action as usize, cached.value));
    }
    let mut best: Option<(usize, f64)> = None;
    for (a, (&allowed, v)) in mask.iter().zip(lane_values(lanes, actions)).enumerate() {
        if !allowed {
            continue;
        }
        if best.is_none_or(|(_, bv)| v > bv) {
            best = Some((a, v));
        }
    }
    best
}

/// Rows per storage chunk, the unit a table fills lazily: one
/// network's runtime state block in the paper's state space.
pub const CHUNK_ROWS: usize = 64;

/// One filled storage chunk: up to [`CHUNK_ROWS`] consecutive rows and
/// their argmax cache entries.
#[derive(Debug, Clone)]
struct Chunk {
    /// Row-major lanes, `rows * stride` long.
    lines: Vec<QLane>,
    /// Per-row lowest-index argmax, kept consistent with `lines` by
    /// every write.
    row_max: Vec<RowMax>,
}

/// A dense table of Q(S, A) values.
#[derive(Debug, Clone)]
pub struct QTable {
    states: usize,
    actions: usize,
    /// Lanes per row: `actions` rounded up to a multiple of [`LANES`].
    stride: usize,
    /// The seed a [`QTable::new_random`] table fills its chunks from on
    /// first touch. Other constructors fill every chunk up front, so
    /// nothing ever draws from theirs.
    seed: u64,
    /// `states.div_ceil(CHUNK_ROWS)` chunks, each filled at most once.
    // lint:allow(shared-mutable-hot-state): a chunk is filled once, from the table's own seed, to the same values whichever call fills it; a table is owned by one session, and tables shared across shards are filled in full before sharing
    chunks: Vec<OnceLock<Chunk>>,
}

impl PartialEq for QTable {
    fn eq(&self, other: &Self) -> bool {
        // The argmax caches are derived from the values; comparing them
        // would only re-compare the same information. Padding lanes are
        // `0.0` on both sides, so comparing lines compares the logical
        // values.
        self.states == other.states
            && self.actions == other.actions
            && (0..self.chunks.len()).all(|c| self.chunk(c).lines == other.chunk(c).lines)
    }
}

impl QTable {
    /// Creates a table initialized with small random values, as Algorithm 1
    /// of the paper prescribes ("Initialize Q(S,A) as random values").
    ///
    /// The values are drawn lazily: each chunk of [`CHUNK_ROWS`] rows is
    /// filled the first time any of its rows is read or written, with
    /// exactly the draws an eager state-major fill would have given it.
    /// Construction itself costs no draws.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `actions` is zero.
    pub fn new_random(states: usize, actions: usize, seed: u64) -> Self {
        assert!(
            states > 0 && actions > 0,
            "Q-table dimensions must be non-zero"
        );
        QTable {
            states,
            actions,
            stride: actions.div_ceil(LANES),
            seed,
            // lint:allow(shared-mutable-hot-state): empty per-table chunk cells, see the `chunks` field
            chunks: (0..states.div_ceil(CHUNK_ROWS))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Creates a zero-initialized table (useful for deterministic tests).
    pub fn new_zeroed(states: usize, actions: usize) -> Self {
        assert!(
            states > 0 && actions > 0,
            "Q-table dimensions must be non-zero"
        );
        QTable::from_values(states, actions, &vec![0.0; states * actions])
    }

    /// Builds a table around existing row-major logical values, packing
    /// them into aligned lanes and computing the argmax cache. Every
    /// chunk is filled up front.
    pub(crate) fn from_values(states: usize, actions: usize, values: &[f64]) -> Self {
        debug_assert_eq!(values.len(), states * actions);
        let stride = actions.div_ceil(LANES);
        let chunks = values
            .chunks(CHUNK_ROWS * actions)
            .map(|block| {
                let rows = block.len() / actions;
                let mut lines = vec![QLane([0.0; LANES]); rows * stride];
                for (i, &v) in block.iter().enumerate() {
                    let (r, a) = (i / actions, i % actions);
                    lines[r * stride + a / LANES].0[a % LANES] = v;
                }
                let row_max = lines
                    .chunks(stride)
                    .map(|row| scan_lanes(row, actions))
                    .collect();
                // lint:allow(shared-mutable-hot-state): a chunk filled at construction, never re-filled
                OnceLock::from(Chunk { lines, row_max })
            })
            .collect();
        QTable {
            states,
            actions,
            stride,
            seed: 0,
            chunks,
        }
    }

    /// Draws chunk `c` of a random table: the generator jumps to the
    /// chunk's first draw, then fills its rows in the same order
    /// (state-major, action-minor, one `gen_range` per cell) as every
    /// prior release's eager fill — the streams feeding sessions are a
    /// compatibility surface.
    fn draw_chunk(&self, c: usize) -> Chunk {
        let first = c * CHUNK_ROWS;
        let rows = CHUNK_ROWS.min(self.states - first);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // lint:hot-exempt(jump-ahead in the vendored generator: allocation-free once the process-wide matrix powers are built)
        rng.advance((first * self.actions) as u64);
        // lint:hot-exempt(lazy fill: each chunk is allocated at most once per table)
        let mut lines = vec![QLane([0.0; LANES]); rows * self.stride];
        // lint:hot-exempt(lazy fill: each chunk is allocated at most once per table)
        let mut row_max = Vec::with_capacity(rows);
        for r in 0..rows {
            let base = r * self.stride;
            let mut best = RowMax {
                action: 0,
                value: 0.0,
            };
            for a in 0..self.actions {
                let v = rng.gen_range(-0.01..0.01);
                lines[base + a / LANES].0[a % LANES] = v;
                if a == 0 || v > best.value {
                    best = RowMax {
                        action: a as u32,
                        value: v,
                    };
                }
            }
            // lint:hot-exempt(lazy fill: pushes into the capacity reserved above)
            row_max.push(best);
        }
        Chunk { lines, row_max }
    }

    /// Chunk `c`, filled on first touch.
    fn chunk(&self, c: usize) -> &Chunk {
        // lint:hot-exempt(std OnceLock: one load once filled; the fill allocates once per chunk)
        self.chunks[c].get_or_init(|| self.draw_chunk(c))
    }

    /// Chunk `c` for writing, filled on first touch.
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        self.chunk(c);
        // lint:allow(panic-in-lib): `chunk` just filled the cell, and `&mut self` rules out anyone emptying it since
        self.chunks[c].get_mut().expect("filled just above")
    }

    /// Fills every chunk not yet filled. Afterwards the table never
    /// changes behind a shared reference, so it can be shared across
    /// threads with a memory footprint independent of their timing.
    pub fn materialize(&self) {
        for c in 0..self.chunks.len() {
            self.chunk(c);
        }
    }

    /// The logical values of one row, in action order (padding excluded).
    fn row_values(&self, state: usize) -> impl Iterator<Item = f64> + '_ {
        lane_values(self.row_lines(state), self.actions)
    }

    /// The aligned storage lanes of one row, padding included. The slots
    /// past `actions` in the final lane are always `0.0`.
    pub(crate) fn row_lines(&self, state: usize) -> &[QLane] {
        let r = state % CHUNK_ROWS;
        &self.chunk(state / CHUNK_ROWS).lines[r * self.stride..(r + 1) * self.stride]
    }

    /// Lanes per row: `actions` rounded up to a multiple of [`LANES`].
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The cached lowest-index maximizer of one row.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub(crate) fn row_max_entry(&self, state: usize) -> RowMax {
        assert!(state < self.states, "state out of range");
        self.chunk(state / CHUNK_ROWS).row_max[state % CHUNK_ROWS]
    }

    /// Stores `values[state, action] = value` and restores the row's
    /// cache invariant — O(1) unless the write lowered the current row
    /// maximum, which forces an O(actions) rescan of that row.
    fn write(&mut self, state: usize, action: usize, value: f64) {
        let (stride, actions) = (self.stride, self.actions);
        let r = state % CHUNK_ROWS;
        let chunk = self.chunk_mut(state / CHUNK_ROWS);
        let lanes = &mut chunk.lines[r * stride..(r + 1) * stride];
        lanes[action / LANES].0[action % LANES] = value;
        note_row_write(&mut chunk.row_max[r], lanes, actions, action, value);
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Q(S, A).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.check_index(state, action);
        self.row_lines(state)[action / LANES].0[action % LANES]
    }

    /// Sets Q(S, A).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        self.check_index(state, action);
        self.write(state, action, value);
    }

    /// Adds `delta` to Q(S, A) — the Algorithm 1 update's in-place form.
    pub fn add(&mut self, state: usize, action: usize, delta: f64) {
        let value = self.get(state, action) + delta;
        self.write(state, action, value);
    }

    /// The action with the largest Q value among those `mask` allows, and
    /// its value. Ties break toward the lower index, deterministically.
    ///
    /// Masking exists because not every action is feasible for every
    /// inference: e.g. a DSP cannot execute a recurrent model, so its
    /// actions are masked out while MobileBERT is being scheduled.
    ///
    /// O(1) whenever the cached row maximizer is allowed by `mask` (the
    /// global maximizer over a superset is the maximizer of any allowed
    /// subset containing it); otherwise a masked O(actions) scan.
    ///
    /// Returns `None` if the mask allows no action.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != actions` or `state` is out of range.
    pub fn best_action(&self, state: usize, mask: &[bool]) -> Option<(usize, f64)> {
        assert_eq!(
            mask.len(),
            self.actions,
            "mask length must equal action count"
        );
        assert!(state < self.states, "state out of range");
        let r = state % CHUNK_ROWS;
        let chunk = self.chunk(state / CHUNK_ROWS);
        best_allowed(
            &chunk.lines[r * self.stride..(r + 1) * self.stride],
            self.actions,
            chunk.row_max[r],
            mask,
        )
    }

    /// The largest Q value in a state over allowed actions (`max_a'
    /// Q(S', A')` in the bootstrap term), or 0.0 when nothing is allowed.
    pub fn max_value(&self, state: usize, mask: &[bool]) -> f64 {
        self.best_action(state, mask).map_or(0.0, |(_, v)| v)
    }

    /// Bytes of the chunks filled so far: lanes (padding included) plus
    /// argmax cache entries. A random table that has served one network
    /// holds one chunk; see [`QTable::full_bytes`] for the whole table.
    pub fn memory_bytes(&self) -> usize {
        self.chunks
            .iter()
            // lint:allow(shared-mutable-hot-state): reads which per-table chunk cells are filled, see the `chunks` field
            .filter_map(OnceLock::get)
            .map(|c| {
                c.lines.len() * std::mem::size_of::<QLane>()
                    + c.row_max.len() * std::mem::size_of::<RowMax>()
            })
            .sum()
    }

    /// Bytes of the table with every chunk filled — the Section VI-C
    /// overhead statistic, whatever has been touched so far.
    pub fn full_bytes(&self) -> usize {
        self.states * (self.stride * std::mem::size_of::<QLane>() + std::mem::size_of::<RowMax>())
    }

    /// FNV-1a digest over the logical values' IEEE 754 bits, state-major
    /// and action-minor (padding excluded). Overlay snapshots record this
    /// to bind their sparse deltas to the exact base table they were
    /// taken over; two tables with equal logical values digest equally
    /// regardless of storage backend.
    pub fn value_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for state in 0..self.states {
            for v in self.row_values(state) {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= byte as u64;
                    hash = hash.wrapping_mul(FNV_PRIME);
                }
            }
        }
        hash
    }

    /// Copies every value from `source` — the paper's learning transfer
    /// ("transferring a model trained on one device to other devices in
    /// order to expedite the convergence", Section IV).
    ///
    /// Transfer requires identical table shapes: the donor and recipient
    /// share the state encoding, and action spaces are aligned by the core
    /// crate before transfer.
    ///
    /// # Errors
    ///
    /// Returns an error describing the shape mismatch if the dimensions
    /// differ.
    pub fn transfer_from(&mut self, source: &QTable) -> Result<(), ShapeMismatchError> {
        if self.states != source.states || self.actions != source.actions {
            return Err(ShapeMismatchError {
                expected: (self.states, self.actions),
                found: (source.states, source.actions),
            });
        }
        // Unfilled chunks of a random source carry over unfilled, with
        // the seed that fills them.
        self.seed = source.seed;
        self.chunks.clone_from(&source.chunks);
        Ok(())
    }

    fn check_index(&self, state: usize, action: usize) {
        assert!(
            state < self.states,
            "state {state} out of range ({})",
            self.states
        );
        assert!(
            action < self.actions,
            "action {action} out of range ({})",
            self.actions
        );
    }
}

// Serde is hand-written rather than derived so persisted snapshots carry
// only the truth (`states`, `actions` and the logical row-major values) —
// the lane packing and argmax cache are rebuilt on load — and so a
// tampered or truncated snapshot is rejected at parse time instead of
// panicking on first use.
impl Serialize for QTable {
    fn to_value(&self) -> serde::Value {
        let values: Vec<f64> = (0..self.states).flat_map(|s| self.row_values(s)).collect();
        serde::Value::Object(vec![
            ("states".to_string(), self.states.to_value()),
            ("actions".to_string(), self.actions.to_value()),
            ("values".to_string(), values.to_value()),
        ])
    }
}

impl Deserialize for QTable {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("an object", value))?;
        let states: usize = serde::__field(obj, "states", "QTable")?;
        let actions: usize = serde::__field(obj, "actions", "QTable")?;
        let values: Vec<f64> = serde::__field(obj, "values", "QTable")?;
        if states == 0 || actions == 0 {
            return Err(serde::Error::custom(format!(
                "q-table dimensions must be non-zero, found {states}x{actions}"
            )));
        }
        if values.len() != states * actions {
            return Err(serde::Error::custom(format!(
                "q-table dimension mismatch: {states}x{actions} needs {} values, found {}",
                states * actions,
                values.len()
            )));
        }
        Ok(QTable::from_values(states, actions, &values))
    }
}

/// Error returned when transferring between Q-tables of different shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMismatchError {
    /// The recipient's (states, actions).
    pub expected: (usize, usize),
    /// The donor's (states, actions).
    pub found: (usize, usize),
}

impl std::fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-table shape mismatch: expected {}x{}, found {}x{}",
            self.expected.0, self.expected.1, self.found.0, self.found.1
        )
    }
}

impl std::error::Error for ShapeMismatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_is_small_and_seeded() {
        let a = QTable::new_random(10, 5, 42);
        let b = QTable::new_random(10, 5, 42);
        let c = QTable::new_random(10, 5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for s in 0..10 {
            for act in 0..5 {
                assert!(a.get(s, act).abs() < 0.01);
            }
        }
    }

    #[test]
    fn random_init_draw_order_is_stable() {
        // The fill order (state-major, action-minor, one `gen_range` per
        // cell) is a compatibility surface: engine seeds reproduce the
        // same initial tables forever. Pin it against a raw re-draw.
        use rand::{Rng, SeedableRng};
        let q = QTable::new_random(3, 5, 77);
        let mut rng = StdRng::seed_from_u64(77);
        for s in 0..3 {
            for a in 0..5 {
                assert_eq!(q.get(s, a), rng.gen_range(-0.01..0.01));
            }
        }
    }

    #[test]
    fn rows_are_lane_aligned_and_padded_with_zeros() {
        let mut q = QTable::new_random(4, 11, 5);
        q.set(3, 10, 42.0);
        for s in 0..4 {
            let lanes = q.row_lines(s);
            assert_eq!(lanes.len(), 2);
            assert_eq!(std::mem::align_of_val(&lanes[0]), 64);
            // Slots 11..16 of the final lane are padding.
            for pad in 11..16 {
                assert_eq!(lanes[pad / LANES].0[pad % LANES], 0.0);
            }
        }
    }

    #[test]
    fn set_get_round_trip() {
        let mut q = QTable::new_zeroed(3, 2);
        q.set(2, 1, 7.5);
        assert_eq!(q.get(2, 1), 7.5);
        q.add(2, 1, 0.5);
        assert_eq!(q.get(2, 1), 8.0);
    }

    #[test]
    fn best_action_respects_mask() {
        let mut q = QTable::new_zeroed(1, 3);
        q.set(0, 0, 1.0);
        q.set(0, 1, 5.0);
        q.set(0, 2, 3.0);
        assert_eq!(q.best_action(0, &[true, true, true]), Some((1, 5.0)));
        assert_eq!(q.best_action(0, &[true, false, true]), Some((2, 3.0)));
        assert_eq!(q.best_action(0, &[false, false, false]), None);
    }

    #[test]
    fn max_value_defaults_to_zero_when_fully_masked() {
        let q = QTable::new_zeroed(1, 2);
        assert_eq!(q.max_value(0, &[false, false]), 0.0);
    }

    #[test]
    fn cache_survives_a_lowered_maximum() {
        // Raising, tying and then lowering the maximum exercises every
        // branch of the incremental maintenance, including the rescan.
        let mut q = QTable::new_zeroed(1, 4);
        q.set(0, 2, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 9.0)));
        // A tie at a lower index must steal the argmax...
        q.set(0, 1, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((1, 9.0)));
        // ...and a tie at a higher index must not.
        q.set(0, 3, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((1, 9.0)));
        // Lowering the cached maximum forces the rescan path.
        q.set(0, 1, -1.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 9.0)));
        q.set(0, 2, -2.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((3, 9.0)));
        q.set(0, 3, -3.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((0, 0.0)));
        // `add` maintains the cache too.
        q.add(0, 2, 10.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 8.0)));
    }

    #[test]
    fn masked_cached_action_falls_back_to_scan() {
        let mut q = QTable::new_zeroed(1, 3);
        q.set(0, 0, 5.0);
        q.set(0, 1, 4.0);
        // The cached argmax (action 0) is masked out: the scan must find
        // the best allowed action instead.
        assert_eq!(q.best_action(0, &[false, true, true]), Some((1, 4.0)));
    }

    #[test]
    fn paper_scale_table_fits_the_memory_budget() {
        // ~3,072 states × 66 actions: Section VI-C reports 0.4 MB. An f64
        // table padded to lane stride 72, with its argmax cache, lands at
        // 1.73 MB; the paper presumably stores narrower values, so we
        // assert the same order of magnitude.
        let q = QTable::new_zeroed(3_072, 66);
        let mb = q.memory_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 2.0, "table too large: {mb} MB");
    }

    #[test]
    fn transfer_copies_values() {
        let mut donor = QTable::new_zeroed(2, 2);
        donor.set(1, 1, 9.0);
        let mut recipient = QTable::new_random(2, 2, 1);
        recipient.transfer_from(&donor).unwrap();
        assert_eq!(recipient.get(1, 1), 9.0);
        // The cache must follow the transferred values.
        assert_eq!(recipient.best_action(1, &[true, true]), Some((1, 9.0)));
    }

    #[test]
    fn transfer_rejects_shape_mismatch() {
        let donor = QTable::new_zeroed(2, 3);
        let mut recipient = QTable::new_zeroed(2, 2);
        let err = recipient.transfer_from(&donor).unwrap_err();
        assert_eq!(err.expected, (2, 2));
        assert_eq!(err.found, (2, 3));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn serde_round_trip() {
        let q = QTable::new_random(4, 3, 9);
        let json = serde_json::to_string(&q).unwrap();
        let back: QTable = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
        // The rebuilt cache must answer like the original.
        for s in 0..4 {
            assert_eq!(
                q.best_action(s, &[true; 3]),
                back.best_action(s, &[true; 3])
            );
        }
    }

    #[test]
    fn serialized_values_exclude_padding() {
        // The wire format carries exactly states × actions values — the
        // lane padding is a storage detail, not part of the snapshot.
        let q = QTable::new_random(2, 3, 4);
        let json = serde_json::to_string(&q).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let obj = value.as_object().unwrap();
        let values: Vec<f64> = serde::__field(obj, "values", "test").unwrap();
        assert_eq!(values.len(), 6);
        assert_eq!(values[4], q.get(1, 1));
    }

    #[test]
    fn deserialize_rejects_dimension_mismatch() {
        // 2x2 header over 3 values: a truncated or tampered snapshot.
        let json = r#"{"states":2,"actions":2,"values":[0.0,1.0,2.0]}"#;
        let err = serde_json::from_str::<QTable>(json).unwrap_err();
        assert!(
            err.to_string().contains("dimension mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn deserialize_rejects_zero_dimensions() {
        let json = r#"{"states":0,"actions":5,"values":[]}"#;
        let err = serde_json::from_str::<QTable>(json).unwrap_err();
        assert!(
            err.to_string().contains("non-zero"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn deserialize_rejects_missing_fields() {
        let json = r#"{"states":2,"actions":2}"#;
        assert!(serde_json::from_str::<QTable>(json).is_err());
    }

    #[test]
    fn value_digest_tracks_logical_values_only() {
        let a = QTable::new_random(4, 11, 9);
        let mut b = a.clone();
        assert_eq!(a.value_digest(), b.value_digest());
        b.set(2, 3, 42.0);
        assert_ne!(a.value_digest(), b.value_digest());
        // Serde rebuilds the lane packing from logical values: the digest
        // must survive the round trip bit for bit.
        let back: QTable = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(a.value_digest(), back.value_digest());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let q = QTable::new_zeroed(2, 2);
        let _ = q.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = QTable::new_zeroed(0, 5);
    }
}
