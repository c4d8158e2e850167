//! The epsilon-greedy decision: Algorithm 1's one action-selection
//! step over one Q-table row under a feasibility mask.
//!
//! [`ScalarKernel::select`] is the only implementation of the step.
//! [`crate::QLearningAgent::select_action`] and every
//! `AutoScaleEngine::decide*` go through it, and it reads through
//! [`QStore`], so the dense table and the copy-on-write overlay decide
//! through identical code.
//!
//! ## The draw protocol
//!
//! One uniform `f64` per decision, plus one bounded integer draw on the
//! exploration arm, and none at all when the mask allows nothing. The
//! exploration arm indexes the [`MaskSet`]'s allowed list, so it is
//! O(1). The engine's draw-protocol pin test freezes the order, so
//! replayed seeds keep reproducing the same fleets.
//!
//! ## The exploit arm
//!
//! [`QStore::best_action`]: if the row's cached lowest-index global
//! maximizer is allowed by the mask, it *is* the masked argmax (no
//! allowed action can beat the global maximum, and no lower-index tie
//! exists below the cached index by construction), so it is returned in
//! O(1). Only decisions whose mask excludes the cached maximizer pay
//! for a masked scan of the row. Ties break toward the lowest action
//! index.

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

/// The epsilon-greedy decision kernel (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarKernel;

impl ScalarKernel {
    /// One epsilon-greedy decision: `None` when the mask allows nothing
    /// (no draws), otherwise a uniformly random allowed action with
    /// probability `epsilon` and the lowest-index allowed maximizer of
    /// the row otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` differs from the store's action count
    /// (checked before any draw, on both arms), or on the exploit arm if
    /// `state` is out of range.
    pub fn select(
        &self,
        q: &QStore,
        state: usize,
        mask: &MaskSet,
        epsilon: f64,
        rng: &mut StdRng,
    ) -> Option<usize> {
        assert_eq!(
            mask.len(),
            q.actions(),
            "mask length must equal action count"
        );
        let allowed = mask.allowed_count();
        if allowed == 0 {
            return None;
        }
        // lint:draws-exempt(the pinned epsilon-greedy protocol: one uniform draw per decision, one bounded draw on the exploration arm only; digest tests freeze it)
        if rng.gen::<f64>() < epsilon {
            let k = rng.gen_range(0..allowed);
            Some(mask.nth_allowed(k))
        } else {
            q.best_action(state, mask.bools()).map(|(a, _)| a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;
    use rand::SeedableRng;

    #[test]
    fn mask_set_views_agree() {
        let bools = [true, false, true, true, false];
        let m = MaskSet::from_bools(&bools);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.allowed_count(), 3);
        assert_eq!(m.bools(), &bools);
        assert_eq!(m.nth_allowed(0), 0);
        assert_eq!(m.nth_allowed(1), 2);
        assert_eq!(m.nth_allowed(2), 3);
    }

    /// The exploit arm alone: ε = 0 never takes the exploration branch.
    fn exploit(q: &QStore, state: usize, mask: &MaskSet) -> Option<usize> {
        ScalarKernel.select(q, state, mask, 0.0, &mut StdRng::seed_from_u64(0))
    }

    /// One row of four actions whose best is action 2.
    fn table() -> QStore {
        let mut q = QTable::new_zeroed(1, 4);
        q.set(0, 2, 10.0);
        QStore::Dense(q)
    }

    #[test]
    fn argmax_breaks_ties_at_the_lowest_index_on_a_masked_row() {
        let mut q = QTable::new_random(4, 66, 11);
        q.set(2, 40, 3.0);
        q.set(2, 13, 3.0); // lower-index tie must win
        let q = QStore::Dense(q);
        let mut bools = vec![true; 66];
        bools[0] = false;
        assert_eq!(exploit(&q, 2, &MaskSet::from_bools(&bools)), Some(13));
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
        assert_eq!(exploit(&q, 0, &MaskSet::from_bools(&bools)), Some(12));
    }

    #[test]
    fn an_all_masked_row_returns_none_without_drawing() {
        let q = QStore::Dense(QTable::new_random(2, 10, 3));
        let m = MaskSet::from_bools(&[false; 10]);
        for epsilon in [0.0, 0.1, 0.5, 1.0] {
            let mut rng = StdRng::seed_from_u64(5);
            assert_eq!(ScalarKernel.select(&q, 1, &m, epsilon, &mut rng), None);
            // An empty mask consumes no draws.
            assert_eq!(rng, StdRng::seed_from_u64(5), "epsilon {epsilon}");
        }
    }

    #[test]
    fn greedy_always_picks_the_best() {
        let (q, mask) = (table(), MaskSet::from_bools(&[true; 4]));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(ScalarKernel.select(&q, 0, &mask, 0.0, &mut rng), Some(2));
        }
    }

    #[test]
    fn exploration_rate_is_close_to_epsilon() {
        let q = table();
        let mask = MaskSet::from_bools(&[true; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let non_greedy = (0..n)
            .filter(|_| ScalarKernel.select(&q, 0, &mask, 0.3, &mut rng) != Some(2))
            .count();
        // Exploration picks uniformly among 4 actions, so 3/4 of explored
        // steps deviate from the greedy choice: expect 0.3 * 0.75 = 0.225.
        let rate = non_greedy as f64 / n as f64;
        assert!((rate - 0.225).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let q = table();
        let bools = [true, false, false, true];
        let mask = MaskSet::from_bools(&bools);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            // epsilon = 1: always explore.
            let a = ScalarKernel.select(&q, 0, &mask, 1.0, &mut rng).unwrap();
            assert!(bools[a]);
        }
    }

    #[test]
    #[should_panic(expected = "mask length must equal action count")]
    fn a_mask_wider_than_the_row_panics_on_the_exploration_arm() {
        // Without the up-front check, ε = 1 never reaches the exploit
        // arm's own length check and returns actions past the row.
        let q = QStore::Dense(QTable::new_zeroed(1, 66));
        let mask = MaskSet::from_bools(&[true; 70]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let _ = ScalarKernel.select(&q, 0, &mask, 1.0, &mut rng);
        }
    }
}
