//! Batched decision kernels: interchangeable argmax engines for the
//! serving hot path.
//!
//! A serving decision is an epsilon-greedy draw over one Q-table row
//! under a feasibility mask. [`DecisionKernel`] factors that draw into a
//! fixed RNG protocol (shared by every kernel, so streams never diverge)
//! plus a swappable masked-argmax routine — the part worth racing.
//! Kernels read through [`QStore`], so the dense table and the
//! copy-on-write overlay serve through identical code:
//!
//! * [`ScalarKernel`] — the reference. Delegates to
//!   [`QStore::best_action`], i.e. the incremental argmax cache with a
//!   masked linear scan as fallback. Every other kernel is defined as
//!   "bit-identical to this one".
//! * [`PackedKernel`] — walks the table's cache-line-aligned lanes
//!   directly, consuming the mask as packed `u64` words: whole words and
//!   bytes of masked-out actions are skipped with one integer compare,
//!   and the per-lane core is branchless select arithmetic.
//! * [`FrozenKernel`] — the post-convergence serving specialization.
//!   With epsilon frozen to zero the exploration branch is dead; the
//!   kernel compares order-preserving `u64` keys (a sign-flip remap of
//!   the IEEE 754 bits) instead of `f64`s, so the scan is pure integer
//!   arithmetic. The remap is exact — zero quantization error — and
//!   total on every non-NaN value; learned Q-values are finite by
//!   construction (finite rewards, finite init), which is the kernel's
//!   documented precondition.
//!
//! ## The cached fast path
//!
//! The first kernel race exposed a regression: at the paper's 66-action
//! rows (9 lanes), `packed` and `frozen` sustained ~2.0M decisions/s
//! against `scalar`'s ~3.2M. The loss was not in the lane walk — it was
//! that scalar answers most decisions from the table's O(1) per-row
//! argmax cache (the global maximizer is usually feasible), while the
//! lane kernels re-scanned all 72 slots every decision. Both lane
//! kernels therefore now take the same cache shortcut the scalar
//! reference takes: if the cached lowest-index global maximizer is
//! allowed by the mask, it *is* the masked argmax (no allowed action can
//! beat the global maximum, and no lower-index tie can exist below the
//! cached index by construction), so it is returned without touching the
//! lanes. Only decisions whose mask excludes the cached maximizer pay
//! for the walk. The shortcut is exactly the branch
//! [`QStore::best_action`] already takes, so bit-identity is preserved
//! by construction — and for `frozen`, `sort_key` ordering coincides
//! with `f64` ordering on the finite values the precondition guarantees.
//!
//! ## The determinism contract
//!
//! Every kernel must be decision-for-decision identical to
//! [`ScalarKernel`] — same selected action *and* same number of RNG
//! draws — for any Q-table, mask, and epsilon. Tie-breaking is toward
//! the lowest action index everywhere. `crates/rl/tests/properties.rs`
//! pins the contract with property tests over arbitrary tables, masks
//! (including all-masked rows and exact ties), and epsilon values.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::qstore::QStore;
use crate::qtable::LANES;

/// Mask words are `u64`s: 64 action bits, or eight 8-bit lane groups.
const WORD_BITS: usize = 64;
/// Lane groups (bytes) per mask word.
const LANES_PER_WORD: usize = WORD_BITS / LANES;

/// A feasibility mask in the three shapes the kernels consume.
///
/// Built once per workload at engine construction and reused for every
/// decision, so the hot path never re-derives a representation:
///
/// * `bools` — the classic `&[bool]` view for the scalar path and the
///   public mask API;
/// * `words` — the same bits packed little-endian into `u64`s (bit `i %
///   64` of word `i / 64` is action `i`), with the padding bits past the
///   action count zero so packed kernels can skip whole words;
/// * `allowed` — the allowed action indices in ascending order, making
///   "the k-th allowed action" (the exploration draw) O(1) instead of a
///   linear `nth` walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSet {
    bools: Vec<bool>,
    words: Vec<u64>,
    allowed: Vec<u32>,
}

impl MaskSet {
    /// Packs a `&[bool]` feasibility mask into all three views.
    pub fn from_bools(mask: &[bool]) -> Self {
        let mut words = vec![0u64; mask.len().div_ceil(WORD_BITS)];
        let mut allowed = Vec::with_capacity(mask.len());
        for (i, &allow) in mask.iter().enumerate() {
            if allow {
                words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                allowed.push(i as u32);
            }
        }
        MaskSet {
            bools: mask.to_vec(),
            words,
            allowed,
        }
    }

    /// Number of actions the mask covers (allowed or not).
    pub fn len(&self) -> usize {
        self.bools.len()
    }

    /// Whether the mask covers zero actions.
    pub fn is_empty(&self) -> bool {
        self.bools.is_empty()
    }

    /// Number of allowed actions.
    pub fn allowed_count(&self) -> usize {
        self.allowed.len()
    }

    /// Whether `action` is allowed.
    pub fn allows(&self, action: usize) -> bool {
        self.bools[action]
    }

    /// The `&[bool]` view, for the scalar path and existing APIs.
    pub fn bools(&self) -> &[bool] {
        &self.bools
    }

    /// The packed `u64` view; padding bits are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `k`-th allowed action in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= allowed_count()`.
    pub fn nth_allowed(&self, k: usize) -> usize {
        self.allowed[k] as usize
    }
}

/// Which decision kernel serves a fleet. Carried by serving configs and
/// benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// [`ScalarKernel`]: the argmax-cache reference path.
    Scalar,
    /// [`PackedKernel`]: lane-walking branchless masked argmax.
    Packed,
    /// [`FrozenKernel`]: greedy serving on integer sort keys.
    Frozen,
}

impl KernelKind {
    /// Every kernel, reference first.
    pub const ALL: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Packed, KernelKind::Frozen];

    /// The kernel's lowercase name, as used on CLIs and in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Packed => "packed",
            KernelKind::Frozen => "frozen",
        }
    }

    /// Resolves a kernel from its lowercase name.
    pub fn parse(name: &str) -> Option<KernelKind> {
        KernelKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The epsilon-greedy RNG protocol, shared verbatim by every kernel so
/// the streams feeding a session can never diverge between kernels:
/// one uniform `f64` per decision, plus one bounded integer draw on the
/// exploration branch. This is the same draw order as
/// [`crate::EpsilonGreedy::choose`], which serving used before kernels
/// existed — replayed seeds keep reproducing the same fleets.
fn select_epsilon_greedy<K: DecisionKernel + ?Sized>(
    kernel: &K,
    q: &QStore,
    state: usize,
    mask: &MaskSet,
    epsilon: f64,
    rng: &mut StdRng,
) -> Option<usize> {
    let allowed = mask.allowed_count();
    if allowed == 0 {
        return None;
    }
    // lint:draws-exempt(the pinned epsilon-greedy protocol: one uniform draw per decision, one bounded draw on the exploration arm only; digest tests freeze it)
    if rng.gen::<f64>() < epsilon {
        let k = rng.gen_range(0..allowed);
        Some(mask.nth_allowed(k))
    } else {
        kernel.argmax(q, state, mask)
    }
}

/// A masked argmax engine over Q-table rows.
///
/// Implementations must satisfy the determinism contract in the module
/// docs: [`DecisionKernel::argmax`] returns exactly what
/// [`QStore::best_action`] would (the lowest-index maximizer among
/// allowed actions), and [`DecisionKernel::select`] consumes exactly the
/// RNG draws the shared protocol prescribes.
pub trait DecisionKernel {
    /// Which kernel this is, for dispatch tables and reports.
    fn kind(&self) -> KernelKind;

    /// The lowest-index allowed maximizer of one row, or `None` when the
    /// mask allows nothing.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `mask.len()` differs from
    /// the store's action count.
    fn argmax(&self, q: &QStore, state: usize, mask: &MaskSet) -> Option<usize>;

    /// One epsilon-greedy decision: `None` when the mask allows nothing,
    /// otherwise a uniformly random allowed action with probability
    /// `epsilon` and `argmax` otherwise.
    fn select(
        &self,
        q: &QStore,
        state: usize,
        mask: &MaskSet,
        epsilon: f64,
        rng: &mut StdRng,
    ) -> Option<usize> {
        select_epsilon_greedy(self, q, state, mask, epsilon, rng)
    }
}

/// The reference kernel: the Q-table's own argmax cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarKernel;

impl DecisionKernel for ScalarKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }

    fn argmax(&self, q: &QStore, state: usize, mask: &MaskSet) -> Option<usize> {
        q.best_action(state, mask.bools()).map(|(a, _)| a)
    }
}

/// Lane-walking kernel: packed mask words over cache-aligned Q-lanes.
///
/// The row is scanned one 64-bit mask word (eight lanes) at a time.
/// All-zero words and all-zero lane bytes — entire stretches of
/// infeasible actions — cost one integer compare each. Within a live
/// lane the eight slots run through branchless select arithmetic: the
/// "current best" is replaced exactly when the scalar scan would have
/// replaced it (`allowed && (first allowed so far || value strictly
/// greater)`), so tie-breaking and degenerate rows (all `-inf`, NaN
/// basis) agree with the reference bit for bit. Like the reference, the
/// walk is only the slow path: the cached per-row maximizer answers
/// first whenever the mask allows it (see "The cached fast path" above).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedKernel;

impl DecisionKernel for PackedKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Packed
    }

    fn argmax(&self, q: &QStore, state: usize, mask: &MaskSet) -> Option<usize> {
        assert_eq!(
            mask.len(),
            q.actions(),
            "mask length must equal action count"
        );
        let cached = q.row_max_entry(state);
        if mask.allows(cached.action as usize) {
            return Some(cached.action as usize);
        }
        let lanes = q.row_lines(state);
        let mut best_value = 0.0f64;
        let mut best_index = usize::MAX;
        let mut found = false;
        for (w, &word) in mask.words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            for c in 0..LANES_PER_WORD {
                let bits = (word >> (c * LANES)) & 0xff;
                if bits == 0 {
                    // Skipping before indexing also keeps the final,
                    // partial word in bounds: its padding bits are zero.
                    continue;
                }
                let lane = &lanes[w * LANES_PER_WORD + c].0;
                let base = w * WORD_BITS + c * LANES;
                // Manually unrolled by the constant bound; each slot is
                // two conditional moves, no data-dependent branches.
                for (i, &v) in lane.iter().enumerate() {
                    let allow = (bits >> i) & 1 == 1;
                    let take = allow && (!found || v > best_value);
                    best_value = if take { v } else { best_value };
                    best_index = if take { base + i } else { best_index };
                    found |= allow;
                }
            }
        }
        found.then_some(best_index)
    }
}

/// Maps an `f64` to a `u64` that sorts in the same order.
///
/// The usual sign-flip trick: non-negative values get their sign bit
/// set (placing them above all negatives), negative values are
/// bitwise-complemented (reversing their two's-complement-style
/// ordering). Adding `0.0` first collapses `-0.0` onto `+0.0` so the
/// two zeros compare equal, exactly as `f64` comparison treats them.
/// The map is a bijection on non-NaN values — order is preserved
/// *exactly*, so the frozen kernel's quantization error is zero.
fn sort_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Greedy serving kernel for frozen (post-convergence) policies.
///
/// Serving a converged policy pins epsilon to zero, which makes the
/// exploration branch statically dead: `select` consumes the protocol's
/// uniform draw (stream compatibility) and jumps straight to the
/// argmax. The argmax itself compares [`sort_key`]-mapped `u64`s, an
/// exact order-preserving integer recoding of the row.
///
/// Precondition: the table holds no NaN. Learned Q-values are finite by
/// construction; `sort_key` would order NaN above `+inf`, diverging
/// from the reference's "NaN never wins a strict comparison" behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrozenKernel;

impl DecisionKernel for FrozenKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Frozen
    }

    fn argmax(&self, q: &QStore, state: usize, mask: &MaskSet) -> Option<usize> {
        assert_eq!(
            mask.len(),
            q.actions(),
            "mask length must equal action count"
        );
        let cached = q.row_max_entry(state);
        if mask.allows(cached.action as usize) {
            return Some(cached.action as usize);
        }
        let lanes = q.row_lines(state);
        let mut best_key = 0u64;
        let mut best_index = usize::MAX;
        let mut found = false;
        for (w, &word) in mask.words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            for c in 0..LANES_PER_WORD {
                let bits = (word >> (c * LANES)) & 0xff;
                if bits == 0 {
                    continue;
                }
                let lane = &lanes[w * LANES_PER_WORD + c].0;
                let base = w * WORD_BITS + c * LANES;
                for (i, &v) in lane.iter().enumerate() {
                    let allow = (bits >> i) & 1 == 1;
                    let key = sort_key(v);
                    let take = allow && (!found || key > best_key);
                    best_key = if take { key } else { best_key };
                    best_index = if take { base + i } else { best_index };
                    found |= allow;
                }
            }
        }
        found.then_some(best_index)
    }

    fn select(
        &self,
        q: &QStore,
        state: usize,
        mask: &MaskSet,
        epsilon: f64,
        rng: &mut StdRng,
    ) -> Option<usize> {
        // lint:draws-exempt(frozen serving burns the protocol's one uniform draw below, so both arms leave the stream aligned; digest tests freeze it)
        if epsilon != 0.0 {
            // Pre-freeze traffic (exploration still on) takes the shared
            // protocol; the specialization below is for serving only.
            return select_epsilon_greedy(self, q, state, mask, epsilon, rng);
        }
        if mask.allowed_count() == 0 {
            return None;
        }
        // The protocol's exploration draw is consumed so the stream stays
        // aligned with every other kernel, but its comparison against a
        // zero epsilon can never explore — skip straight to the argmax.
        let _ = rng.gen::<f64>();
        self.argmax(q, state, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;
    use rand::SeedableRng;

    fn mask_of(bools: &[bool]) -> MaskSet {
        MaskSet::from_bools(bools)
    }

    #[test]
    fn mask_set_views_agree() {
        let bools = [true, false, true, true, false];
        let m = mask_of(&bools);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.allowed_count(), 3);
        assert_eq!(m.bools(), &bools);
        assert_eq!(m.words(), &[0b01101]);
        assert_eq!(m.nth_allowed(0), 0);
        assert_eq!(m.nth_allowed(1), 2);
        assert_eq!(m.nth_allowed(2), 3);
        assert!(m.allows(0) && !m.allows(1));
    }

    #[test]
    fn mask_set_spans_multiple_words() {
        let mut bools = vec![false; 130];
        bools[0] = true;
        bools[64] = true;
        bools[129] = true;
        let m = mask_of(&bools);
        assert_eq!(m.words().len(), 3);
        assert_eq!(m.words()[0], 1);
        assert_eq!(m.words()[1], 1);
        assert_eq!(m.words()[2], 1 << 1);
        assert_eq!(m.allowed_count(), 3);
        assert_eq!(m.nth_allowed(2), 129);
    }

    #[test]
    fn kernel_kind_names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(KernelKind::parse("simd"), None);
    }

    #[test]
    fn sort_key_preserves_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for (i, &a) in values.iter().enumerate() {
            for &b in &values[i..] {
                assert_eq!(sort_key(a) > sort_key(b), a > b, "order of {a} vs {b}");
                assert_eq!(sort_key(a) == sort_key(b), a == b, "equality of {a} vs {b}");
            }
        }
    }

    fn kernels() -> [Box<dyn DecisionKernel>; 3] {
        [
            Box::new(ScalarKernel),
            Box::new(PackedKernel),
            Box::new(FrozenKernel),
        ]
    }

    #[test]
    fn all_kernels_agree_on_a_masked_row() {
        let mut q = QTable::new_random(4, 66, 11);
        q.set(2, 40, 3.0);
        q.set(2, 13, 3.0); // lower-index tie must win
        let q = QStore::Dense(q);
        let mut bools = vec![true; 66];
        bools[0] = false;
        let m = mask_of(&bools);
        for kernel in kernels() {
            assert_eq!(kernel.argmax(&q, 2, &m), Some(13), "{}", kernel.kind());
        }
    }

    #[test]
    fn all_kernels_bypass_the_cache_when_its_winner_is_masked() {
        // The cached fast path answers when the global maximizer is
        // allowed; masking it out must fall back to the full lane walk
        // and still match the reference, tie-broken at the lowest index.
        let mut q = QTable::new_zeroed(1, 66);
        q.set(0, 30, 9.0); // the cached maximizer
        q.set(0, 12, 4.0);
        q.set(0, 50, 4.0);
        let q = QStore::Dense(q);
        let mut bools = vec![true; 66];
        bools[30] = false;
        let m = mask_of(&bools);
        for kernel in kernels() {
            assert_eq!(kernel.argmax(&q, 0, &m), Some(12), "{}", kernel.kind());
        }
    }

    #[test]
    fn kernels_agree_across_storage_backends() {
        use crate::qstore::CowQTable;
        use std::sync::Arc;

        let base = Arc::new(QTable::new_random(4, 66, 31));
        let mut dense = (*base).clone();
        let mut cow = CowQTable::new(base);
        for (s, a, v) in [(0, 3, 2.0), (2, 64, 5.0), (2, 1, 5.0), (3, 0, -9.0)] {
            dense.set(s, a, v);
            cow.set(s, a, v);
        }
        let dense = QStore::Dense(dense);
        let cow = QStore::Cow(cow);
        let mut bools = vec![true; 66];
        bools[1] = false;
        for mask in [mask_of(&[true; 66]), mask_of(&bools)] {
            for state in 0..4 {
                for kernel in kernels() {
                    assert_eq!(
                        kernel.argmax(&dense, state, &mask),
                        kernel.argmax(&cow, state, &mask),
                        "{} state {state}",
                        kernel.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn all_kernels_return_none_on_an_all_masked_row() {
        let q = QStore::Dense(QTable::new_random(2, 10, 3));
        let m = mask_of(&[false; 10]);
        for kernel in kernels() {
            assert_eq!(kernel.argmax(&q, 1, &m), None, "{}", kernel.kind());
            let mut rng = StdRng::seed_from_u64(5);
            assert_eq!(
                kernel.select(&q, 1, &m, 0.5, &mut rng),
                None,
                "{}",
                kernel.kind()
            );
            // An empty mask consumes no draws.
            assert_eq!(rng, StdRng::seed_from_u64(5));
        }
    }

    #[test]
    fn packed_kernel_handles_sparse_masks() {
        // Only the last action of a 66-wide row is allowed: the scan
        // must skip the zero words/bytes and still land on it.
        let mut q = QTable::new_zeroed(1, 66);
        q.set(0, 65, -5.0);
        let q = QStore::Dense(q);
        let mut bools = vec![false; 66];
        bools[65] = true;
        let m = mask_of(&bools);
        assert_eq!(PackedKernel.argmax(&q, 0, &m), Some(65));
        assert_eq!(FrozenKernel.argmax(&q, 0, &m), Some(65));
    }

    #[test]
    fn select_consumes_identical_draws_across_kernels() {
        // Same seed, same decisions, same post-call RNG state: the
        // kernels are stream-interchangeable mid-session.
        let q = QStore::Dense(QTable::new_random(8, 66, 21));
        let mut bools = vec![true; 66];
        bools[7] = false;
        let m = mask_of(&bools);
        for epsilon in [0.0, 0.1, 1.0] {
            let mut reference = StdRng::seed_from_u64(99);
            let mut picks = Vec::new();
            for state in 0..8 {
                picks.push(ScalarKernel.select(&q, state, &m, epsilon, &mut reference));
            }
            for kernel in kernels() {
                let mut rng = StdRng::seed_from_u64(99);
                for (state, &expected) in picks.iter().enumerate() {
                    let got = kernel.select(&q, state, &m, epsilon, &mut rng);
                    assert_eq!(got, expected, "{} eps={epsilon}", kernel.kind());
                }
                assert_eq!(rng, reference, "{} stream drift", kernel.kind());
            }
        }
    }

    #[test]
    fn frozen_kernel_orders_negative_rows_correctly() {
        // All-negative rows are the common case mid-training (energy
        // costs dominate rewards); the sign-flip key must order them.
        let mut q = QTable::new_zeroed(1, 5);
        for (a, v) in [(0, -900.0), (1, -3.5), (2, -3.25), (3, -700.0), (4, -3.25)] {
            q.set(0, a, v);
        }
        let q = QStore::Dense(q);
        let m = mask_of(&[true; 5]);
        assert_eq!(FrozenKernel.argmax(&q, 0, &m), Some(2));
        // Mask out the winner: next best, lowest-index tie.
        let m = mask_of(&[true, true, false, true, true]);
        assert_eq!(FrozenKernel.argmax(&q, 0, &m), Some(4));
        assert_eq!(PackedKernel.argmax(&q, 0, &m), Some(4));
        assert_eq!(ScalarKernel.argmax(&q, 0, &m), Some(4));
    }
}
