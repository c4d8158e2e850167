//! Reinforcement-learning primitives for the AutoScale reproduction.
//!
//! The paper chooses **tabular Q-learning** over TD-learning and deep RL
//! because a lookup table gives the lowest decision latency on an
//! energy-constrained phone (Section IV), and pairs it with an
//! **epsilon-greedy** policy to balance exploitation against exploration.
//! This crate implements those pieces generically over opaque state and
//! action indices, so the core crate can map its domain-specific state
//! (Table I) and action space (execution targets × DVFS × quantization)
//! onto them:
//!
//! * [`QTable`] — a dense `states × actions` value table with random
//!   initialization, action masking, and serde persistence (the paper's
//!   learning transfer ships a trained table between devices);
//! * [`QStore`] — tiered Q-value storage: the dense table, or a
//!   [`CowQTable`] copy-on-write overlay over a shared `Arc`'d base —
//!   bit-identical reads, ~20x+ lower per-session memory at fleet scale;
//! * [`EpsilonGreedy`] — the exploration policy's ε;
//! * [`ScalarKernel`] — Algorithm 1's one action-selection step: the
//!   epsilon-greedy draw over a precomputed [`MaskSet`], exploiting
//!   through the Q-table's argmax cache. The agent and every engine
//!   decision go through it;
//! * [`QLearningAgent`] — Algorithm 1 of the paper: observe, select, act,
//!   reward, bootstrap, update;
//! * [`Dbscan`] / [`Discretizer`] — the 1-D DBSCAN clustering the paper
//!   uses to discretize continuous state features into the Table I buckets;
//! * [`ConvergenceDetector`] — detects reward convergence (the paper's
//!   Fig. 14 reports convergence within 40–50 inference runs);
//! * [`LinearQAgent`] — a linear function-approximation alternative, kept
//!   as the measurable stand-in for the deep-RL family the paper rejects
//!   on latency grounds.
//!
//! # Example
//!
//! ```
//! use autoscale_rl::{Hyperparameters, MaskSet, QLearningAgent};
//! use rand::SeedableRng;
//!
//! let mut agent = QLearningAgent::new(4, 3, Hyperparameters::paper(), 7);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mask = MaskSet::from_bools(&[true; 3]);
//! let a = agent.select_action(0, &mask, &mut rng).expect("mask allows actions");
//! agent.update(0, a, 1.0, 1, mask.bools());
//! assert!(agent.store().get(0, a).is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod convergence;
pub mod dbscan;
pub mod kernel;
pub mod linear;
pub mod policy;
pub mod qstore;
pub mod qtable;

pub use agent::{Hyperparameters, QLearningAgent};
pub use convergence::ConvergenceDetector;
pub use dbscan::{Dbscan, Discretizer};
pub use kernel::{MaskSet, ScalarKernel};
pub use linear::LinearQAgent;
pub use policy::EpsilonGreedy;
pub use qstore::{
    CowQTable, OverlayDelta, OverlayError, OverlaySnapshot, QStore, QStoreKind, QStoreStats,
};
pub use qtable::{QTable, CHUNK_ROWS};
