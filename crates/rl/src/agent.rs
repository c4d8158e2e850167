//! The Q-learning agent — Algorithm 1 of the paper.
//!
//! ```text
//! Initialize Q(S,A) as random values
//! Repeat (whenever inference begins):
//!   Observe state and store in S
//!   if rand() < ε:  choose action A randomly
//!   else:           choose action A with the largest Q(S,A)
//!   Run inference on a target defined by A
//!   (when inference ends)
//!   Measure R_latency, estimate R_energy, obtain R_accuracy; compute R
//!   Observe new state S'; choose A' with the largest Q(S',A')
//!   Q(S,A) ← Q(S,A) + γ[R + µ·Q(S',A') − Q(S,A)]
//!   S ← S'
//! ```
//!
//! γ is the learning rate and µ the discount factor. The paper's
//! sensitivity study (Section V-C) found γ = 0.9 ("the more the reward is
//! reflected to the Q values, the better") and µ = 0.1 ("consecutive
//! states have a weak relationship due to the stochastic nature") work
//! best; those are [`Hyperparameters::paper`].

use std::sync::Arc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::kernel::{MaskSet, ScalarKernel};
use crate::policy::EpsilonGreedy;
use crate::qstore::QStore;
use crate::qtable::{QTable, ShapeMismatchError};

/// Q-learning hyperparameters (Algorithm 1's γ, µ and ε).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hyperparameters {
    /// Learning rate γ: how much new information overrides old.
    pub learning_rate: f64,
    /// Discount factor µ: weight of near-future rewards.
    pub discount: f64,
    /// Exploration probability ε.
    pub epsilon: f64,
}

impl Hyperparameters {
    /// The paper's chosen values: γ = 0.9, µ = 0.1, ε = 0.1.
    pub fn paper() -> Self {
        Hyperparameters {
            learning_rate: 0.9,
            discount: 0.1,
            epsilon: 0.1,
        }
    }

    /// Validates the hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if any value lies outside [0, 1].
    fn validate(&self) {
        for (name, v) in [
            ("learning_rate", self.learning_rate),
            ("discount", self.discount),
            ("epsilon", self.epsilon),
        ] {
            assert!(
                v.is_finite() && (0.0..=1.0).contains(&v),
                "{name} must be in [0, 1]"
            );
        }
    }
}

impl Default for Hyperparameters {
    fn default() -> Self {
        Hyperparameters::paper()
    }
}

/// A tabular Q-learning agent over opaque state/action indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QLearningAgent {
    q: QStore,
    params: Hyperparameters,
    policy: EpsilonGreedy,
    updates: u64,
}

impl QLearningAgent {
    /// Creates an agent with a randomly initialized dense Q-table.
    pub fn new(states: usize, actions: usize, params: Hyperparameters, seed: u64) -> Self {
        QLearningAgent::with_store(
            QStore::Dense(QTable::new_random(states, actions, seed)),
            params,
        )
    }

    /// Creates an agent around an existing (e.g. transferred) Q-table.
    pub fn with_table(q: QTable, params: Hyperparameters) -> Self {
        QLearningAgent::with_store(QStore::Dense(q), params)
    }

    /// Creates an agent around any Q-value store — dense, or a
    /// copy-on-write overlay over a shared base.
    pub fn with_store(q: QStore, params: Hyperparameters) -> Self {
        params.validate();
        QLearningAgent {
            policy: EpsilonGreedy::new(params.epsilon),
            q,
            params,
            updates: 0,
        }
    }

    /// The agent's Q-value store.
    pub fn store(&self) -> &QStore {
        &self.q
    }

    /// Mutable access to the store, for in-place warm-starts such as
    /// the engine's cross-device action-matched transfer. Writing through
    /// this reference keeps the argmax cache consistent (every write goes
    /// through [`QStore::set`]/[`QStore::add`]).
    pub fn store_mut(&mut self) -> &mut QStore {
        &mut self.q
    }

    /// Flattens this agent's current Q values into an immutable shared
    /// base table for copy-on-write fleet members ([`QStore::cow`]).
    pub fn shared_base(&self) -> Arc<QTable> {
        Arc::new(self.q.to_table())
    }

    /// A copy-on-write variant of this agent: same hyperparameters, same
    /// policy state (including a frozen ε), same update count, but backed
    /// by an empty overlay over `base` instead of a private dense table.
    /// When `base` holds this agent's own values (see
    /// [`QLearningAgent::shared_base`]), the variant is behaviourally
    /// indistinguishable from a dense clone.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if `base` differs in size from this
    /// agent's table.
    pub fn overlay_variant(&self, base: &Arc<QTable>) -> Result<Self, ShapeMismatchError> {
        if base.states() != self.q.states() || base.actions() != self.q.actions() {
            return Err(ShapeMismatchError {
                expected: (self.q.states(), self.q.actions()),
                found: (base.states(), base.actions()),
            });
        }
        Ok(QLearningAgent {
            q: QStore::cow(base.clone()),
            params: self.params,
            policy: self.policy,
            updates: self.updates,
        })
    }

    /// The agent's hyperparameters.
    pub fn params(&self) -> Hyperparameters {
        self.params
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The policy's current exploration probability — `params().epsilon`
    /// until [`QLearningAgent::freeze`] pins it to zero.
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon()
    }

    /// Selects an action for `state` by [`ScalarKernel::select`] at the
    /// policy's ε.
    ///
    /// Returns `None` if `mask` allows no action.
    pub fn select_action(&self, state: usize, mask: &MaskSet, rng: &mut StdRng) -> Option<usize> {
        ScalarKernel.select(&self.q, state, mask, self.policy.epsilon(), rng)
    }

    /// Selects the greedy (exploitation-only) action — what AutoScale does
    /// once "the learning is complete" (Section IV-B).
    pub fn select_greedy(&self, state: usize, mask: &[bool]) -> Option<usize> {
        self.q.best_action(state, mask).map(|(a, _)| a)
    }

    /// Applies the Algorithm 1 update for an observed transition.
    ///
    /// `next_mask` restricts which actions may back up from `next_state`
    /// (A' must be executable there).
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        next_mask: &[bool],
    ) {
        let bootstrap = self.q.max_value(next_state, next_mask);
        let current = self.q.get(state, action);
        let target = reward + self.params.discount * bootstrap;
        let updated = current + self.params.learning_rate * (target - current);
        self.q.set(state, action, updated);
        self.updates += 1;
    }

    /// Warm-starts this agent from another agent's table (learning
    /// transfer, paper Section VI-C / Fig. 14).
    ///
    /// # Errors
    ///
    /// Returns the shape-mismatch error if the tables differ in size.
    pub fn transfer_from(&mut self, donor: &QLearningAgent) -> Result<(), ShapeMismatchError> {
        self.q.transfer_from(&donor.q)
    }

    /// Switches the agent to pure exploitation (ε = 0) after convergence.
    pub fn freeze(&mut self) {
        self.policy = EpsilonGreedy::greedy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A 2-state, 2-action toy problem where action 1 is always better.
    fn train_toy(params: Hyperparameters, episodes: usize) -> QLearningAgent {
        let mut agent = QLearningAgent::new(2, 2, params, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mask = MaskSet::from_bools(&[true, true]);
        let mut state = 0;
        for _ in 0..episodes {
            let action = agent.select_action(state, &mask, &mut rng).unwrap();
            let reward = if action == 1 { 1.0 } else { -1.0 };
            let next_state = 1 - state;
            agent.update(state, action, reward, next_state, mask.bools());
            state = next_state;
        }
        agent
    }

    #[test]
    fn learns_the_better_action() {
        let agent = train_toy(Hyperparameters::paper(), 200);
        for s in 0..2 {
            assert_eq!(agent.select_greedy(s, &[true, true]), Some(1), "state {s}");
            assert!(agent.store().get(s, 1) > agent.store().get(s, 0));
        }
    }

    #[test]
    fn update_moves_toward_target() {
        let mut agent =
            QLearningAgent::with_table(QTable::new_zeroed(2, 2), Hyperparameters::paper());
        agent.update(0, 0, 10.0, 1, &[true, true]);
        // Q was 0, bootstrap 0, so new Q = 0 + 0.9 * (10 − 0) = 9.
        assert!((agent.store().get(0, 0) - 9.0).abs() < 1e-12);
        assert_eq!(agent.updates(), 1);
    }

    #[test]
    fn discount_weights_bootstrap() {
        let mut q = QTable::new_zeroed(2, 1);
        q.set(1, 0, 100.0);
        let params = Hyperparameters {
            learning_rate: 1.0,
            discount: 0.5,
            epsilon: 0.0,
        };
        let mut agent = QLearningAgent::with_table(q, params);
        agent.update(0, 0, 0.0, 1, &[true]);
        // Full learning rate: Q(0,0) = R + 0.5 * Q(1,0) = 50.
        assert!((agent.store().get(0, 0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_speeds_up_convergence() {
        // Train a donor fully; a transferred agent should act optimally
        // from its very first greedy decision.
        let donor = train_toy(Hyperparameters::paper(), 300);
        let mut fresh = QLearningAgent::new(2, 2, Hyperparameters::paper(), 99);
        fresh.transfer_from(&donor).unwrap();
        assert_eq!(fresh.select_greedy(0, &[true, true]), Some(1));
    }

    #[test]
    fn frozen_agent_is_greedy() {
        let mut agent = train_toy(Hyperparameters::paper(), 200);
        agent.freeze();
        let mut rng = StdRng::seed_from_u64(5);
        let mask = MaskSet::from_bools(&[true, true]);
        for _ in 0..50 {
            assert_eq!(agent.select_action(0, &mask, &mut rng), Some(1));
        }
    }

    #[test]
    fn masked_next_state_bootstraps_zero() {
        let mut q = QTable::new_zeroed(2, 1);
        q.set(1, 0, 100.0);
        let params = Hyperparameters {
            learning_rate: 1.0,
            discount: 0.5,
            epsilon: 0.0,
        };
        let mut agent = QLearningAgent::with_table(q, params);
        agent.update(0, 0, 2.0, 1, &[false]);
        assert!((agent.store().get(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overlay_variant_matches_a_dense_clone() {
        let mut donor = train_toy(Hyperparameters::paper(), 200);
        donor.freeze();
        let base = donor.shared_base();
        let overlay = donor.overlay_variant(&base).unwrap();
        assert_eq!(overlay.store().kind(), crate::qstore::QStoreKind::Cow);
        assert_eq!(overlay.epsilon(), 0.0, "frozen policy state is copied");
        assert_eq!(overlay.updates(), donor.updates());
        // Drive both with the same RNG stream and updates: the overlay
        // must be behaviourally indistinguishable from a dense clone.
        let mut dense = donor.clone();
        let mut cow = overlay;
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mask = MaskSet::from_bools(&[true, true]);
        let mut state = 0;
        for _ in 0..50 {
            let a = dense.select_action(state, &mask, &mut rng_a).unwrap();
            let b = cow.select_action(state, &mask, &mut rng_b).unwrap();
            assert_eq!(a, b);
            dense.update(state, a, 0.5, 1 - state, mask.bools());
            cow.update(state, b, 0.5, 1 - state, mask.bools());
            state = 1 - state;
        }
        assert_eq!(dense.store(), cow.store());
    }

    #[test]
    fn overlay_variant_rejects_a_mismatched_base() {
        let agent = QLearningAgent::new(2, 2, Hyperparameters::paper(), 0);
        let wrong = Arc::new(QTable::new_zeroed(3, 2));
        let err = agent.overlay_variant(&wrong).unwrap_err();
        assert_eq!(err.expected, (2, 2));
        assert_eq!(err.found, (3, 2));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_hyperparameters_panic() {
        let bad = Hyperparameters {
            learning_rate: 2.0,
            discount: 0.1,
            epsilon: 0.1,
        };
        let _ = QLearningAgent::new(1, 1, bad, 0);
    }
}
