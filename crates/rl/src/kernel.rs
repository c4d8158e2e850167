//! The serving decision kernel: one epsilon-greedy draw over one
//! Q-table row under a feasibility mask.
//!
//! [`ScalarKernel`] is the one implementation. It reads through
//! [`QStore`], so the dense table and the copy-on-write overlay serve
//! through identical code.
//!
//! ## The draw protocol
//!
//! [`ScalarKernel::select`] consumes one uniform `f64` per decision,
//! plus one bounded integer draw on the exploration branch, and none at
//! all when the mask allows nothing. This is the same draw order as
//! [`crate::EpsilonGreedy::choose`], which serving used before the
//! kernel existed, so replayed seeds keep reproducing the same fleets.
//!
//! ## The cached fast path
//!
//! [`ScalarKernel::argmax`] delegates to [`QStore::best_action`]: if the
//! row's cached lowest-index global maximizer is allowed by the mask, it
//! *is* the masked argmax (no allowed action can beat the global
//! maximum, and no lower-index tie exists below the cached index by
//! construction), so it is returned in O(1). Only decisions whose mask
//! excludes the cached maximizer pay for a masked scan of the row.
//!
//! ## The determinism contract
//!
//! [`ScalarKernel::select`] is decision-for-decision identical to
//! [`crate::EpsilonGreedy::choose`] on the same `&[bool]` mask — same
//! selected action *and* same RNG state afterwards — for any Q-table,
//! mask, and epsilon. Tie-breaking is toward the lowest action index
//! everywhere. The workspace property tests pin the contract over
//! arbitrary tables, masks (including all-masked rows and exact ties),
//! and epsilon values.

use rand::rngs::StdRng;
use rand::Rng;

use crate::qstore::QStore;

/// A feasibility mask in the two shapes the kernel consumes.
///
/// Built once per workload at engine construction and reused for every
/// decision, so the hot path never re-derives a representation:
///
/// * `bools` — the classic `&[bool]` view for the argmax and the public
///   mask API;
/// * `allowed` — the allowed action indices in ascending order, making
///   "the k-th allowed action" (the exploration draw) O(1) instead of a
///   linear `nth` walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSet {
    bools: Vec<bool>,
    allowed: Vec<u32>,
}

impl MaskSet {
    /// Builds both views of a `&[bool]` feasibility mask.
    pub fn from_bools(mask: &[bool]) -> Self {
        let mut allowed = Vec::with_capacity(mask.len());
        for (i, &allow) in mask.iter().enumerate() {
            if allow {
                allowed.push(i as u32);
            }
        }
        MaskSet {
            bools: mask.to_vec(),
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

    /// The `&[bool]` view, for the argmax and existing APIs.
    pub fn bools(&self) -> &[bool] {
        &self.bools
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

/// The serving decision kernel: the Q-table's own argmax cache behind
/// the pinned epsilon-greedy draw protocol (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarKernel;

impl ScalarKernel {
    /// The lowest-index allowed maximizer of one row, or `None` when the
    /// mask allows nothing.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `mask.len()` differs from
    /// the store's action count.
    pub fn argmax(&self, q: &QStore, state: usize, mask: &MaskSet) -> Option<usize> {
        q.best_action(state, mask.bools()).map(|(a, _)| a)
    }

    /// One epsilon-greedy decision: `None` when the mask allows nothing
    /// (no draws), otherwise a uniformly random allowed action with
    /// probability `epsilon` and [`Self::argmax`] otherwise.
    pub fn select(
        &self,
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
            self.argmax(q, state, mask)
        }
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
        assert_eq!(m.nth_allowed(0), 0);
        assert_eq!(m.nth_allowed(1), 2);
        assert_eq!(m.nth_allowed(2), 3);
        assert!(m.allows(0) && !m.allows(1));
    }

    #[test]
    fn argmax_breaks_ties_at_the_lowest_index_on_a_masked_row() {
        let mut q = QTable::new_random(4, 66, 11);
        q.set(2, 40, 3.0);
        q.set(2, 13, 3.0); // lower-index tie must win
        let q = QStore::Dense(q);
        let mut bools = vec![true; 66];
        bools[0] = false;
        assert_eq!(ScalarKernel.argmax(&q, 2, &mask_of(&bools)), Some(13));
    }

    #[test]
    fn argmax_bypasses_the_cache_when_its_winner_is_masked() {
        // The cached fast path answers when the global maximizer is
        // allowed; masking it out must fall back to the masked scan,
        // tie-broken at the lowest index.
        let mut q = QTable::new_zeroed(1, 66);
        q.set(0, 30, 9.0); // the cached maximizer
        q.set(0, 12, 4.0);
        q.set(0, 50, 4.0);
        let q = QStore::Dense(q);
        let mut bools = vec![true; 66];
        bools[30] = false;
        assert_eq!(ScalarKernel.argmax(&q, 0, &mask_of(&bools)), Some(12));
    }

    #[test]
    fn an_all_masked_row_returns_none_without_drawing() {
        let q = QStore::Dense(QTable::new_random(2, 10, 3));
        let m = mask_of(&[false; 10]);
        assert_eq!(ScalarKernel.argmax(&q, 1, &m), None);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(ScalarKernel.select(&q, 1, &m, 0.5, &mut rng), None);
        // An empty mask consumes no draws.
        assert_eq!(rng, StdRng::seed_from_u64(5));
    }
}
