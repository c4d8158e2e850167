//! The epsilon-greedy exploration policy.
//!
//! Section IV of the paper: "If an RL agent always exploits an action with
//! the temporary highest reward, it can get stuck in local optima. On the
//! other hand, if it keeps exploring all possible actions, convergence may
//! get slower. To solve this problem, we employ the epsilon-greedy
//! algorithm [...] for its effectiveness and simplicity." The paper uses
//! ε = 0.1, following prior RL work in this domain.
//!
//! [`EpsilonGreedy`] holds an agent's ε (and serializes as the agent
//! file's `"policy": {"epsilon": …}`); the draw protocol lives in
//! [`crate::kernel`].

use serde::{Deserialize, Serialize};

/// An epsilon-greedy policy's state: its exploration probability. The
/// draw itself is [`crate::ScalarKernel::select`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonGreedy {
    epsilon: f64,
}

impl EpsilonGreedy {
    /// Creates a policy with exploration probability `epsilon` ∈ [0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside [0, 1] or not finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && (0.0..=1.0).contains(&epsilon),
            "epsilon must be in [0, 1]"
        );
        EpsilonGreedy { epsilon }
    }

    /// The paper's value: ε = 0.1.
    pub fn paper() -> Self {
        EpsilonGreedy::new(0.1)
    }

    /// A purely greedy policy (ε = 0), used after training converges.
    pub fn greedy() -> Self {
        EpsilonGreedy::new(0.0)
    }

    /// The exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Default for EpsilonGreedy {
    fn default() -> Self {
        EpsilonGreedy::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_epsilon() {
        assert_eq!(EpsilonGreedy::default().epsilon(), 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn invalid_epsilon_panics() {
        let _ = EpsilonGreedy::new(1.5);
    }
}
