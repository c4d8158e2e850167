//! The multi-session decision server: N independent device sessions
//! sharded across worker threads.
//!
//! A deployment of AutoScale is not one engine — it is a fleet: every
//! device runs its own session (its own Q-table, its own environment
//! trace, its own RNG stream), and a serving host replays many such
//! sessions at once. This module runs that fleet over the same
//! deterministic work queue the figure sweeps use
//! ([`crate::parallel::run_cells`]): sessions are the cells, shards are
//! the workers, and every session derives its private seed from
//! `(base_seed, session_index)` — so the fleet's reports are
//! **bit-identical for any shard count**.
//!
//! The per-decision hot path inside each session is allocation-free:
//! feasibility masks are precomputed per workload at engine
//! construction, state encoding is pure arithmetic, the epsilon-greedy
//! policy scans the mask in place, and the Q-table argmax is served from
//! an incrementally maintained per-state cache.
//!
//! Wall-clock decision latencies are measured (optionally) but kept
//! *outside* the deterministic [`SessionReport`]s, so determinism can be
//! asserted byte-for-byte while throughput is still benchmarked from the
//! same run.

mod mix;
pub mod openloop;
mod session;
mod timing;

pub use mix::ScenarioMix;
pub use openloop::{
    AdmissionPolicy, FleetTraffic, OpenLoopConfig, SessionTraffic, MAX_EXPECTED_ARRIVALS,
};
pub use session::{DeviceSession, SessionReport, SessionSpec};

use std::sync::Arc;

use autoscale_rl::qtable::ShapeMismatchError;
use autoscale_rl::{QLearningAgent, QStore, QStoreKind, QTable};
use autoscale_sim::{ExecutionError, FaultProfile, Simulator};
use serde::{Deserialize, Serialize};

use crate::action::ActionSpace;
use crate::engine::{EngineConfig, NoFeasibleActionError};
use crate::parallel::{cell_seed, resolve_threads, run_cells};
use crate::state::StateSpace;

/// Everything that can stop a serving run.
///
/// The fleet validates its warm start once up front, so the per-session
/// variants are unreachable on the paper's testbeds — they exist so the
/// serving hot path aborts nothing and reports which session tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration could only hang or serve nothing (see
    /// [`OpenLoopConfig::validate`]) — rejected before any session is
    /// built.
    Config(String),
    /// The warm-start agent's Q-table was trained for a different
    /// device — rejected before any session is built.
    WarmStart(ShapeMismatchError),
    /// A session's workload had an empty feasibility mask.
    NoFeasibleAction {
        /// The session that could not decide.
        session: usize,
        /// The underlying engine error.
        source: NoFeasibleActionError,
    },
    /// The simulator rejected a request the engine proposed.
    Execution {
        /// The session whose request was rejected.
        session: usize,
        /// The simulator's rejection.
        source: ExecutionError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(reason) => write!(f, "invalid serving configuration: {reason}"),
            ServeError::WarmStart(e) => write!(f, "warm-start agent rejected: {e}"),
            ServeError::NoFeasibleAction { session, source } => {
                write!(f, "session {session}: {source}")
            }
            ServeError::Execution { session, source } => {
                write!(
                    f,
                    "session {session}: simulator rejected the request: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::WarmStart(e) => Some(e),
            ServeError::NoFeasibleAction { source, .. } => Some(source),
            ServeError::Execution { source, .. } => Some(source),
        }
    }
}

impl From<ShapeMismatchError> for ServeError {
    fn from(e: ShapeMismatchError) -> Self {
        ServeError::WarmStart(e)
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Engine configuration every session starts from (each session
    /// re-derives its own `seed` field from the fleet seeding).
    pub engine: EngineConfig,
    /// Number of device sessions in the fleet.
    pub sessions: usize,
    /// Inference decisions each session serves.
    pub decisions_per_session: usize,
    /// Worker shards; `None` (or `Some(0)`) means one per hardware
    /// thread. Clamped to `available_parallelism` either way.
    pub shards: Option<usize>,
    /// Fleet base seed; session `i` runs on
    /// [`cell_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Whether to measure the wall-clock latency of every decision.
    pub record_latency: bool,
    /// Fault profile every session runs under, drawn from the session's
    /// own fault stream; [`FaultProfile::none`] (the default) skips
    /// injection entirely.
    pub faults: FaultProfile,
    /// The Q-value storage backend each session's agent learns in.
    /// [`QStoreKind::Dense`] (the default) gives every session a private
    /// dense table; [`QStoreKind::Cow`] shares one immutable base across
    /// the fleet (the warm-start agent's values, or a zero table) and
    /// gives each session a sparse copy-on-write overlay. Under a common
    /// warm start the two backends are bit-identical; without one, a
    /// dense fleet randomly initializes each session's table from its
    /// private seed (irreproducible from a single shared base), so a
    /// cold cow fleet starts from the shared zero base instead.
    pub qstore: QStoreKind,
    /// Open-loop traffic, or `None` (the default) for the classic
    /// closed-loop run. When set, `decisions_per_session` is ignored:
    /// each session serves whatever its private arrival schedule offers
    /// inside its churn window, under the configured queue bound and
    /// admission policy. Arrivals and churn have streams of their own,
    /// so `None` leaves the closed-loop output untouched.
    pub openloop: Option<OpenLoopConfig>,
}

impl ServeConfig {
    /// A small default fleet: 16 sessions × 200 decisions, paper engine,
    /// all shards, latency recording off.
    pub fn fleet() -> Self {
        ServeConfig {
            engine: EngineConfig::paper(),
            sessions: 16,
            decisions_per_session: 200,
            shards: None,
            base_seed: 0xf1ee7,
            record_latency: false,
            faults: FaultProfile::none(),
            qstore: QStoreKind::Dense,
            openloop: None,
        }
    }
}

/// Aggregated Q-store memory accounting for a fleet, reported beside the
/// deterministic per-session results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStoreStats {
    /// The backend every session ran on.
    pub qstore: QStoreKind,
    /// Sum of per-session private bytes (tables or overlays).
    pub private_bytes: u64,
    /// Bytes of the shared base table, counted once for the whole fleet
    /// (zero for a dense fleet).
    pub shared_bytes: u64,
    /// Total materialized overlay rows across the fleet (zero for a
    /// dense fleet).
    pub overlay_rows: u64,
    /// The largest single session's private bytes — the per-session
    /// worst case capacity planning needs.
    pub max_session_private_bytes: u64,
}

impl FleetStoreStats {
    /// Resident Q-storage bytes per session: the shared base amortized
    /// over the fleet plus the mean private overlay/table.
    pub fn bytes_per_session(&self, sessions: usize) -> f64 {
        if sessions == 0 {
            return 0.0;
        }
        (self.private_bytes + self.shared_bytes) as f64 / sessions as f64
    }
}

/// The outcome of a serving run: one deterministic report per session,
/// plus the (non-deterministic) decision-latency samples when
/// [`ServeConfig::record_latency`] was set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-session reports, in session order.
    pub sessions: Vec<SessionReport>,
    /// Decision latencies in nanoseconds, concatenated in session order;
    /// empty unless latency recording was on.
    pub latencies_ns: Vec<u64>,
    /// Aggregated Q-store memory accounting for the fleet. Purely
    /// observational — identical decision traces are produced whatever
    /// the backend, so this lives beside the sessions, not inside them.
    pub store: FleetStoreStats,
    /// Fleet-level open-loop traffic accounting (offered load, goodput,
    /// drops, queue-depth histogram); `None` for closed-loop runs.
    pub traffic: Option<FleetTraffic>,
}

impl ServeReport {
    /// Total decisions served across the fleet.
    pub fn total_decisions(&self) -> usize {
        self.sessions.iter().map(|s| s.decisions).sum()
    }

    /// FNV-1a digest over every session's trace digest — one number that
    /// fingerprints the whole fleet's decision history. Equal digests
    /// across shard counts is the serve determinism guarantee.
    pub fn digest(&self) -> u64 {
        self.sessions.iter().fold(session::fnv1a_start(), |h, s| {
            session::fnv1a_fold(h, s.trace_digest)
        })
    }

    /// Total requests across the fleet whose offload path suffered at
    /// least one injected fault.
    pub fn total_faulted(&self) -> usize {
        self.sessions.iter().map(|s| s.faulted_requests).sum()
    }

    /// Total backoff-then-retry cycles the fleet's resilience policies
    /// took.
    pub fn total_retries(&self) -> usize {
        self.sessions.iter().map(|s| s.retries).sum()
    }

    /// Total requests that fell back to local execution after exhausting
    /// their offload attempts.
    pub fn total_fallbacks(&self) -> usize {
        self.sessions.iter().map(|s| s.fallbacks).sum()
    }

    /// Fraction of decisions that violated their scenario's QoS.
    pub fn qos_violation_ratio(&self) -> f64 {
        let total = self.total_decisions();
        if total == 0 {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(|s| s.qos_violations)
            .sum::<usize>() as f64
            / total as f64
    }

    /// The `p`-th percentile of the recorded decision latencies, in
    /// nanoseconds (`p` in [0, 100]); `None` when none were recorded.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }
}

/// Checks that a warm-start agent's Q-table matches the state and action
/// spaces of this simulator's host device, then fills any chunk of its
/// table not yet filled: the warm start is about to be shared read-only
/// by every shard, so it must never fill behind a shared reference, and
/// every dense session's clone of it then holds the full table.
///
/// # Errors
///
/// Returns the shape mismatch when it does not.
pub fn validate_warm_start(
    sim: &Simulator,
    agent: &QLearningAgent,
) -> Result<(), ShapeMismatchError> {
    let states = StateSpace::paper().len();
    let actions = ActionSpace::for_simulator(sim).len();
    if agent.store().states() != states || agent.store().actions() != actions {
        return Err(ShapeMismatchError {
            expected: (states, actions),
            found: (agent.store().states(), agent.store().actions()),
        });
    }
    agent.store().materialize();
    Ok(())
}

/// Builds the fleet's session specs: `config.sessions` sessions assigned
/// round-robin over the mix.
pub fn session_specs(mix: &ScenarioMix, config: &ServeConfig) -> Vec<SessionSpec> {
    (0..config.sessions)
        .map(|i| {
            let (workload, environment) = mix.assign(i);
            SessionSpec {
                session: i,
                workload,
                environment,
                decisions: config.decisions_per_session,
            }
        })
        .collect()
}

/// Runs the fleet: every session in `config` over the scenario `mix`,
/// sharded across worker threads, optionally warm-started from a shared
/// pre-trained agent.
///
/// Session `i` is a pure function of `(specs[i], cell_seed(base_seed,
/// i))`, so the returned reports are bit-identical for any shard count;
/// only `latencies_ns` (wall-clock measurements) varies between runs.
///
/// # Errors
///
/// Returns [`ServeError::Config`] if `config`'s open-loop traffic fails
/// [`OpenLoopConfig::validate`] or expects more than
/// [`MAX_EXPECTED_ARRIVALS`] arrivals, and [`ServeError::WarmStart`] if
/// `warm_start` was trained for a different device — both checked once,
/// before any session is built. The per-session variants propagate
/// decision or execution failures from a session without aborting the
/// process.
pub fn serve(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm_start: Option<&QLearningAgent>,
) -> Result<ServeReport, ServeError> {
    if let Some(open) = &config.openloop {
        open.validate()?;
        open.check_event_budget(config.sessions)?;
    }
    if let Some(agent) = warm_start {
        validate_warm_start(sim, agent)?;
    }
    // A copy-on-write fleet shares one immutable base table, built once:
    // the warm-start agent's flattened values, or a zero table for a
    // cold fleet. Sessions only pay for the rows they write.
    let cow_base: Option<Arc<QTable>> = match config.qstore {
        QStoreKind::Dense => None,
        QStoreKind::Cow => Some(match warm_start {
            Some(agent) => agent.shared_base(),
            None => Arc::new(QTable::new_zeroed(
                StateSpace::paper().len(),
                ActionSpace::for_simulator(sim).len(),
            )),
        }),
    };
    let specs = session_specs(mix, config);
    let shards = resolve_threads(config.shards);
    let results = run_cells(shards, config.base_seed, &specs, |cell| {
        let agent = match (&cow_base, warm_start) {
            (None, None) => None,
            (None, Some(warm)) => Some(warm.clone()),
            // Same values, params, policy state and update count as the
            // dense clone — just overlay-backed.
            (Some(base), Some(warm)) => Some(warm.overlay_variant(base)?),
            (Some(base), None) => Some(QLearningAgent::with_store(
                QStore::cow(base.clone()),
                config.engine.hyperparameters,
            )),
        };
        DeviceSession::new(
            sim,
            *cell.spec,
            config.engine,
            agent,
            cell.seed,
            config.faults,
        )?
        .run(config.record_latency, config.openloop.as_ref())
    });
    let mut sessions = Vec::with_capacity(results.len());
    let mut latencies_ns = Vec::new();
    let mut traffics = Vec::new();
    let mut store = FleetStoreStats {
        qstore: config.qstore,
        private_bytes: 0,
        shared_bytes: 0,
        overlay_rows: 0,
        max_session_private_bytes: 0,
    };
    for result in results {
        let (report, latencies, stats, session_traffic) = result?;
        store.private_bytes += stats.private_bytes;
        store.overlay_rows += stats.overlay_rows;
        store.max_session_private_bytes = store.max_session_private_bytes.max(stats.private_bytes);
        // Every cow session shares the same base, so it is counted once
        // for the fleet rather than summed per session.
        store.shared_bytes = store.shared_bytes.max(stats.shared_bytes);
        sessions.push(report);
        latencies_ns.extend(latencies);
        traffics.extend(session_traffic);
    }
    let traffic = config
        .openloop
        .map(|open| FleetTraffic::aggregate(&traffics, open.horizon_ms));
    Ok(ServeReport {
        sessions,
        latencies_ns,
        store,
        traffic,
    })
}

/// The seed of session `index` under a fleet `base_seed` — exposed so
/// external drivers (benchmarks, CLIs) can reproduce a single session in
/// isolation.
pub fn session_seed(base_seed: u64, index: usize) -> u64 {
    cell_seed(base_seed, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AutoScaleEngine;
    use autoscale_nn::Workload;
    use autoscale_platform::DeviceId;
    use autoscale_sim::EnvironmentId;

    fn small_config(shards: Option<usize>) -> ServeConfig {
        ServeConfig {
            sessions: 6,
            decisions_per_session: 60,
            shards,
            ..ServeConfig::fleet()
        }
    }

    #[test]
    fn reports_are_bit_identical_for_any_shard_count() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let reference = serve(&sim, &mix, &small_config(Some(1)), None).unwrap();
        for shards in [Some(2), Some(4), None] {
            let sharded = serve(&sim, &mix, &small_config(shards), None).unwrap();
            assert_eq!(sharded.sessions, reference.sessions, "shards {shards:?}");
            assert_eq!(sharded.digest(), reference.digest());
        }
    }

    #[test]
    fn sessions_get_distinct_scenarios_and_seeds() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::new(vec![
            (Workload::MobileNetV1, EnvironmentId::S1),
            (Workload::InceptionV1, EnvironmentId::S4),
        ]);
        let report = serve(&sim, &mix, &small_config(Some(1)), None).unwrap();
        assert_eq!(report.sessions.len(), 6);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.session, i);
            assert_eq!((s.workload, s.environment), mix.assign(i));
        }
        // Sessions 0 and 2 share a scenario but not a seed: their traces
        // must differ (independent exploration).
        assert_ne!(
            report.sessions[0].trace_digest,
            report.sessions[2].trace_digest
        );
        assert_ne!(session_seed(1, 0), session_seed(1, 2));
    }

    #[test]
    fn latency_recording_fills_the_buffer_without_changing_reports() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::single(Workload::MobileNetV2, EnvironmentId::S2);
        let quiet = serve(&sim, &mix, &small_config(Some(1)), None).unwrap();
        let timed = serve(
            &sim,
            &mix,
            &ServeConfig {
                record_latency: true,
                ..small_config(Some(1))
            },
            None,
        )
        .unwrap();
        assert_eq!(timed.sessions, quiet.sessions);
        assert_eq!(timed.latencies_ns.len(), timed.total_decisions());
        assert!(quiet.latencies_ns.is_empty());
        assert!(timed.latency_percentile_ns(50.0).is_some());
        assert!(
            timed.latency_percentile_ns(99.0) >= timed.latency_percentile_ns(50.0),
            "p99 >= p50"
        );
        assert_eq!(quiet.latency_percentile_ns(50.0), None);
    }

    #[test]
    fn warm_start_is_validated_once_and_shapes_behavior() {
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        // Train a donor briefly, then serve a fleet warm-started from it.
        let mut donor = AutoScaleEngine::new(&mi8, EngineConfig::paper());
        let mut rng = crate::seeded_rng(9);
        let mut env = autoscale_sim::Environment::for_id(EnvironmentId::S1);
        for _ in 0..150 {
            let snapshot = env.sample(&mut rng);
            let step = donor
                .decide(Workload::MobileNetV1, &snapshot, &mut rng)
                .expect("feasible");
            let outcome = mi8
                .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
                .unwrap();
            donor.learn(&mi8, Workload::MobileNetV1, step, &outcome, &snapshot);
        }
        let mix = ScenarioMix::single(Workload::MobileNetV1, EnvironmentId::S1);
        let config = ServeConfig {
            sessions: 3,
            decisions_per_session: 40,
            ..ServeConfig::fleet()
        };
        let cold = serve(&mi8, &mix, &config, None).unwrap();
        let warm = serve(&mi8, &mix, &config, Some(donor.agent())).unwrap();
        assert_ne!(
            warm.sessions[0].trace_digest, cold.sessions[0].trace_digest,
            "a trained table changes the decision trace"
        );
        // A Moto-shaped table must be rejected before any session runs.
        let moto = Simulator::new(DeviceId::MotoXForce);
        let foreign = AutoScaleEngine::new(&moto, EngineConfig::paper());
        let err = serve(&mi8, &mix, &config, Some(foreign.agent())).unwrap_err();
        let ServeError::WarmStart(shape) = err else {
            panic!("expected a warm-start rejection, got {err}");
        };
        assert_ne!(shape.expected, shape.found);
    }

    #[test]
    fn uneven_mix_still_covers_every_session() {
        // A 3-scenario mix over 7 sessions: round-robin wraps, the first
        // scenario runs one extra session, and the fleet report still
        // carries one entry per session in index order.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::new(vec![
            (Workload::MobileNetV1, EnvironmentId::S1),
            (Workload::InceptionV1, EnvironmentId::S2),
            (Workload::MobileBert, EnvironmentId::S4),
        ]);
        let config = ServeConfig {
            sessions: 7,
            decisions_per_session: 30,
            shards: Some(2),
            ..ServeConfig::fleet()
        };
        let specs = session_specs(&mix, &config);
        assert_eq!(specs.len(), 7);
        let first = specs
            .iter()
            .filter(|s| (s.workload, s.environment) == mix.assign(0))
            .count();
        assert_eq!(first, 3, "the first scenario absorbs the remainder");
        let report = serve(&sim, &mix, &config, None).unwrap();
        assert_eq!(report.sessions.len(), 7);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.session, i);
            assert_eq!((s.workload, s.environment), mix.assign(i));
            assert_eq!(s.decisions, 30);
        }
    }

    #[test]
    fn faulted_fleets_are_shard_invariant_too() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        for faults in [FaultProfile::flaky(), FaultProfile::chaos()] {
            let faulted = |shards| ServeConfig {
                faults,
                ..small_config(shards)
            };
            let reference = serve(&sim, &mix, &faulted(Some(1)), None).unwrap();
            assert!(
                reference.total_faulted() > 0,
                "a {faults:?} fleet sees some faults"
            );
            for shards in [Some(2), Some(4), Some(8), None] {
                let sharded = serve(&sim, &mix, &faulted(shards), None).unwrap();
                assert_eq!(sharded.sessions, reference.sessions, "shards {shards:?}");
                assert_eq!(sharded.digest(), reference.digest());
            }
        }
    }

    #[test]
    fn fault_free_config_matches_the_default_exactly() {
        // The degenerate rate-0.0 policy: an explicit all-zero profile is
        // the same as never mentioning faults at all.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let plain = serve(&sim, &mix, &small_config(Some(2)), None).unwrap();
        let zeroed = serve(
            &sim,
            &mix,
            &ServeConfig {
                faults: FaultProfile::none(),
                ..small_config(Some(2))
            },
            None,
        )
        .unwrap();
        assert_eq!(plain.sessions, zeroed.sessions);
        assert_eq!(plain.total_faulted(), 0);
        assert_eq!(plain.total_retries(), 0);
        assert_eq!(plain.total_fallbacks(), 0);
    }

    #[test]
    fn fault_free_digests_match_the_pre_fault_injection_build() {
        // Pinned from the serving stack before fault injection existed
        // (autoscale-cli serve --device mi8pro --sessions 4 --decisions 60
        // --seed 7): the fault-free path must keep producing these exact
        // traces, or the zero-cost-default guarantee is broken.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let config = ServeConfig {
            sessions: 4,
            decisions_per_session: 60,
            base_seed: 7,
            ..ServeConfig::fleet()
        };
        let report = serve(&sim, &mix, &config, None).unwrap();
        let digests: Vec<u64> = report.sessions.iter().map(|s| s.trace_digest).collect();
        assert_eq!(
            digests,
            [
                17847800452639538401,
                1335274894445777040,
                979505169217834271,
                1096245207193002747,
            ]
        );
    }

    fn paper_shaped_warm_agent(sim: &Simulator) -> QLearningAgent {
        QLearningAgent::with_table(
            QTable::new_random(
                StateSpace::paper().len(),
                ActionSpace::for_simulator(sim).len(),
                0xba5e,
            ),
            EngineConfig::paper().hyperparameters,
        )
    }

    #[test]
    fn cow_fleets_are_bit_identical_to_dense_under_a_common_warm_start() {
        // The fleet-memory contract: under a common warm start, the
        // copy-on-write backend reproduces the dense fleet byte for byte
        // across every shard count and fault profile.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let warm = paper_shaped_warm_agent(&sim);
        for faults in [FaultProfile::none(), FaultProfile::chaos()] {
            let dense = serve(
                &sim,
                &mix,
                &ServeConfig {
                    faults,
                    ..small_config(Some(1))
                },
                Some(&warm),
            )
            .unwrap();
            for shards in [Some(1), Some(4), Some(8)] {
                let cow = serve(
                    &sim,
                    &mix,
                    &ServeConfig {
                        qstore: QStoreKind::Cow,
                        faults,
                        ..small_config(shards)
                    },
                    Some(&warm),
                )
                .unwrap();
                assert_eq!(
                    cow.sessions, dense.sessions,
                    "{shards:?} shards × {faults:?}"
                );
                assert_eq!(cow.digest(), dense.digest());
                assert_eq!(cow.store.qstore, QStoreKind::Cow);
            }
        }
    }

    #[test]
    fn cow_fleet_stats_account_for_the_shared_base() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let warm = paper_shaped_warm_agent(&sim);
        let dense = serve(&sim, &mix, &small_config(Some(2)), Some(&warm)).unwrap();
        let cow = serve(
            &sim,
            &mix,
            &ServeConfig {
                qstore: QStoreKind::Cow,
                ..small_config(Some(2))
            },
            Some(&warm),
        )
        .unwrap();
        assert_eq!(dense.store.qstore, QStoreKind::Dense);
        assert_eq!(dense.store.shared_bytes, 0);
        assert_eq!(dense.store.overlay_rows, 0);
        // `serve` fills the warm start in full before sharing it, so every
        // dense session clones the whole table, and the cow base is that
        // same full footprint.
        let full = warm.store().full_bytes() as u64;
        assert_eq!(dense.store.private_bytes, full * 6);
        assert_eq!(dense.store.max_session_private_bytes, full);
        assert_eq!(cow.store.shared_bytes, full);
        // Each session wrote rows, and the overlays stay tiny next to the
        // full table every dense session carries privately.
        assert!(cow.store.overlay_rows > 0, "sessions wrote overlay rows");
        assert!(
            cow.store.private_bytes * 10 < dense.store.private_bytes,
            "cow private {} vs dense private {}",
            cow.store.private_bytes,
            dense.store.private_bytes
        );
        assert!(
            cow.store.bytes_per_session(cow.sessions.len())
                < dense.store.bytes_per_session(dense.sessions.len()),
            "sharing the base must already pay off at 6 sessions"
        );
    }

    #[test]
    fn configs_that_can_only_hang_or_serve_nothing_are_rejected() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let with = |rate_hz: f64, horizon_ms: f64| ServeConfig {
            openloop: Some(OpenLoopConfig::poisson(rate_hz, horizon_ms)),
            ..small_config(Some(1))
        };
        for (rate, horizon) in [
            (f64::NAN, 100.0),
            (f64::INFINITY, 100.0),
            (f64::NEG_INFINITY, 100.0),
            (-3.0, 100.0),
            (10.0, f64::NAN),
            (10.0, f64::INFINITY),
            (10.0, 0.0),
            (10.0, -5.0),
            // Finite, but beyond the event budget: either would run
            // for hours or forever.
            (1e300, 100.0),
            (1e9, 2_000.0),
        ] {
            let err = serve(&sim, &mix, &with(rate, horizon), None).unwrap_err();
            assert!(
                matches!(err, ServeError::Config(_)),
                "rate {rate}, horizon {horizon}: {err}"
            );
        }
        // Rate zero is the documented silent process, not an error.
        assert!(serve(&sim, &mix, &with(0.0, 100.0), None).is_ok());
    }

    #[test]
    fn the_event_budget_bounds_the_mean_rate() {
        // The largest open-loop benchmark fleet (900 sessions at a 40 Hz
        // diurnal mean over 30 s) stays far inside the budget.
        let diurnal = OpenLoopConfig {
            arrivals: autoscale_sim::ArrivalProcess::diurnal(40.0),
            ..OpenLoopConfig::poisson(40.0, 30_000.0)
        };
        assert!(diurnal.check_event_budget(900).is_ok());
        // Bursts raise the mean rate: a rate whose plain Poisson fleet
        // fits is rejected once bursts can multiply it.
        let rate = MAX_EXPECTED_ARRIVALS / 2.0;
        assert!(OpenLoopConfig::poisson(rate, 1_000.0)
            .check_event_budget(1)
            .is_ok());
        let bursty = OpenLoopConfig {
            arrivals: autoscale_sim::ArrivalProcess::bursty(rate),
            ..OpenLoopConfig::poisson(rate, 1_000.0)
        };
        assert!(matches!(
            bursty.check_event_budget(1),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn cold_dense_sessions_hold_only_the_chunk_they_read() {
        // A cold session draws its random table lazily and reads only its
        // network's 64-row state block: each holds exactly one chunk.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let report = serve(&sim, &mix, &small_config(Some(2)), None).unwrap();
        let one_chunk = QTable::new_zeroed(
            autoscale_rl::CHUNK_ROWS,
            ActionSpace::for_simulator(&sim).len(),
        )
        .memory_bytes() as u64;
        assert_eq!(report.store.private_bytes, one_chunk * 6);
        assert_eq!(report.store.max_session_private_bytes, one_chunk);
        assert_eq!(report.store.shared_bytes, 0);
    }

    #[test]
    fn cold_cow_fleet_runs_from_a_zero_base() {
        // Without a warm start there is no single table a dense fleet's
        // random per-session init could be rebuilt from, so a cold cow
        // fleet starts every overlay from the same zero base instead.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let config = ServeConfig {
            qstore: QStoreKind::Cow,
            ..small_config(Some(1))
        };
        let report = serve(&sim, &mix, &config, None).unwrap();
        assert_eq!(report.sessions.len(), 6);
        assert!(report.sessions.iter().all(|s| s.decisions == 60));
        assert_eq!(report.store.qstore, QStoreKind::Cow);
        assert!(report.store.overlay_rows > 0);
        // Shard invariance holds on the cold path too.
        let sharded = serve(
            &sim,
            &mix,
            &ServeConfig {
                shards: Some(4),
                ..config
            },
            None,
        )
        .unwrap();
        assert_eq!(sharded.sessions, report.sessions);
    }

    fn open_config(shards: Option<usize>, open: OpenLoopConfig) -> ServeConfig {
        ServeConfig {
            openloop: Some(open),
            ..small_config(shards)
        }
    }

    #[test]
    fn open_loop_fleets_are_bit_identical_for_any_shard_count() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let open = OpenLoopConfig {
            queue_capacity: 8,
            ..OpenLoopConfig::poisson(300.0, 1_000.0)
        };
        let reference = serve(&sim, &mix, &open_config(Some(1), open), None).unwrap();
        let traffic = reference.traffic.as_ref().expect("open-loop sets traffic");
        assert!(traffic.offered > 0);
        for shards in [Some(4), Some(8), None] {
            let sharded = serve(&sim, &mix, &open_config(shards, open), None).unwrap();
            assert_eq!(sharded.sessions, reference.sessions, "shards {shards:?}");
            assert_eq!(sharded.traffic, reference.traffic, "shards {shards:?}");
            assert_eq!(sharded.digest(), reference.digest());
        }
    }

    #[test]
    fn open_loop_off_leaves_traffic_unset_and_reports_unchanged() {
        // The zero-cost default: `openloop: None` must be byte-identical
        // to a build that has no open-loop support at all — the pinned
        // `fault_free_digests_match_the_pre_fault_injection_build` test
        // pins the digests; this pins the new fields and the traffic
        // aggregate.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let report = serve(&sim, &mix, &small_config(Some(2)), None).unwrap();
        assert_eq!(report.traffic, None);
        for s in &report.sessions {
            assert_eq!(s.offered_requests, 0);
            assert_eq!(s.dropped_requests, 0);
            assert_eq!(s.degraded_requests, 0);
            assert_eq!(s.deadline_violations, 0);
            assert_eq!(s.peak_queue_depth, 0);
            assert_eq!(s.arrival_digest, 0);
        }
    }

    #[test]
    fn open_loop_fleets_churn_and_stay_conservative() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let open = OpenLoopConfig {
            arrivals: autoscale_sim::ArrivalProcess::bursty(400.0),
            churn: autoscale_sim::ChurnConfig::heavy(1_500.0),
            horizon_ms: 1_500.0,
            queue_capacity: 8,
            admission: openloop::AdmissionPolicy::Degrade,
        };
        let report = serve(&sim, &mix, &open_config(Some(2), open), None).unwrap();
        let traffic = report.traffic.as_ref().expect("open-loop sets traffic");
        assert_eq!(traffic.offered, traffic.served + traffic.dropped);
        let per_session: usize = report.sessions.iter().map(|s| s.offered_requests).sum();
        assert_eq!(per_session, traffic.offered, "fleet view sums the sessions");
        assert!(traffic.peak_queue_depth <= 8);
    }

    /// A fleet, the Q-stores it runs on, its digest and its reports.
    type PinnedFleet<'a> = (
        &'a str,
        &'a ScenarioMix,
        ServeConfig,
        Option<&'a QLearningAgent>,
        &'a [QStoreKind],
        u64,
        &'a [&'a str],
    );

    /// Every [`SessionReport`] field on one line, floats as their bits.
    fn pinned(r: &SessionReport) -> String {
        format!(
            "{} {:?}/{:?} n={} trace={} reward={:#x} qos={} energy={:#x} \
             faults={}/{}/{} open={}/{}/{}/{}/{} arrivals={} converged={:?}",
            r.session,
            r.workload,
            r.environment,
            r.decisions,
            r.trace_digest,
            r.mean_reward.to_bits(),
            r.qos_violations,
            r.total_energy_mj.to_bits(),
            r.faulted_requests,
            r.retries,
            r.fallbacks,
            r.offered_requests,
            r.dropped_requests,
            r.degraded_requests,
            r.deadline_violations,
            r.peak_queue_depth,
            r.arrival_digest,
            r.converged_at,
        )
    }

    #[test]
    fn full_session_reports_are_pinned_closed_and_open_loop() {
        // Trace digests see neither fault accounting nor open-loop
        // traffic, so these pin every report field of three fleets on
        // Mi8Pro, seed 7: closed loop under chaos (A), a warm open loop
        // on both Q-stores (B), and a cold open loop that converges and
        // faults (C). Each is checked on 1 and 2 shards.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let chaos = ServeConfig {
            base_seed: 7,
            faults: FaultProfile::chaos(),
            ..ServeConfig::fleet()
        };
        let open = |rate_hz: f64, churn: autoscale_sim::ChurnConfig| OpenLoopConfig {
            arrivals: autoscale_sim::ArrivalProcess::diurnal(rate_hz),
            churn,
            horizon_ms: 20_000.0,
            queue_capacity: 8,
            admission: AdmissionPolicy::Degrade,
        };
        let warm = paper_shaped_warm_agent(&sim);
        let closed = ServeConfig {
            sessions: 4,
            decisions_per_session: 200,
            ..chaos
        };
        let warm_open = ServeConfig {
            sessions: 6,
            openloop: Some(open(8.0, autoscale_sim::ChurnConfig::heavy(20_000.0))),
            ..chaos
        };
        let cold_open = ServeConfig {
            sessions: 4,
            openloop: Some(open(20.0, autoscale_sim::ChurnConfig::gentle(20_000.0))),
            ..chaos
        };
        let static_envs = ScenarioMix::static_envs();
        let mobilenet = ScenarioMix::single(Workload::MobileNetV1, EnvironmentId::S1);
        let fleets: [PinnedFleet; 3] = [
            ("A", &static_envs, closed, None, &[QStoreKind::Dense], 10314070725831531071, &[
                "0 InceptionV1/S1 n=200 trace=17765133542655901982 reward=0xc055084d847fc83c qos=44 energy=0x40d104664079a6fd faults=0/0/0 open=0/0/0/0/0 arrivals=0 converged=Some(109)",
                "1 InceptionV1/S2 n=200 trace=937437641621155670 reward=0xc064245fc9e9b298 qos=54 energy=0x40e077104663f864 faults=1/1/0 open=0/0/0/0/0 arrivals=0 converged=Some(109)",
                "2 InceptionV1/S3 n=200 trace=5406007342937308471 reward=0xc0600da8906f0ff1 qos=53 energy=0x40d98d3de83c70d4 faults=1/2/1 open=0/0/0/0/0 arrivals=0 converged=Some(109)",
                "3 InceptionV1/S4 n=200 trace=418655579431246886 reward=0xc057c3b69408ecd2 qos=47 energy=0x40d3fb68d2ab1baa faults=1/1/0 open=0/0/0/0/0 arrivals=0 converged=Some(109)",
            ]),
            ("B", &static_envs, warm_open, Some(&warm), &[QStoreKind::Cow, QStoreKind::Dense], 9559975433472803165, &[
                "0 InceptionV1/S1 n=28 trace=15694773326233425340 reward=0xc064c4c71d636c48 qos=16 energy=0x40b2c656fce21d82 faults=0/0/0 open=29/1/27/24/6 arrivals=14343244675071361978 converged=None",
                "1 InceptionV1/S2 n=56 trace=15083811339774781600 reward=0xc077de5529f3c4d0 qos=41 energy=0x40d571ef65214177 faults=0/0/0 open=98/42/54/55/8 arrivals=7218648487592289233 converged=None",
                "2 InceptionV1/S3 n=8 trace=16065163889494401275 reward=0xc067ccab20f166d3 qos=6 energy=0x4098eef75a093abf faults=0/0/0 open=11/3/7/8/4 arrivals=18331088805481002333 converged=None",
                "3 InceptionV1/S4 n=12 trace=3342623082192906093 reward=0xc064a314568c19a5 qos=6 energy=0x409fe127a4e5474b faults=0/0/0 open=17/5/11/11/5 arrivals=16407247372483645964 converged=None",
                "4 InceptionV1/S5 n=25 trace=5838806107575973365 reward=0xc06b0a072d3a7131 qos=14 energy=0x40b610ce851bcd6c faults=0/0/0 open=31/6/24/24/8 arrivals=15905142613757927157 converged=None",
                "5 InceptionV3/S1 n=9 trace=7772137233283508362 reward=0xc080183b380eefe2 qos=9 energy=0x40b2a1807e24afd3 faults=0/0/0 open=25/16/8/9/8 arrivals=1806622583615174531 converged=None",
            ]),
            ("C", &mobilenet, cold_open, None, &[QStoreKind::Dense], 11307551844162683777, &[
                "0 MobileNetV1/S1 n=359 trace=5290050203073313989 reward=0xc033e72755399860 qos=18 energy=0x40c2e19c4a37340e faults=0/0/0 open=359/0/49/44/4 arrivals=13728129352739436040 converged=Some(109)",
                "1 MobileNetV1/S1 n=403 trace=11470826856736761493 reward=0xc032d4bd286b2ae9 qos=15 energy=0x40c4c5154e9e5e7d faults=0/0/0 open=412/9/66/54/8 arrivals=9478572968201916171 converged=Some(129)",
                "2 MobileNetV1/S1 n=80 trace=16660011841833651904 reward=0xc04e47a9bbafe12b qos=16 energy=0x40b46f906758b222 faults=0/0/0 open=89/9/48/52/8 arrivals=16593003977827910201 converged=None",
                "3 MobileNetV1/S1 n=190 trace=3648117244363286301 reward=0xc03ed52ff0e55796 qos=16 energy=0x40bcc00fcb7d2c9e faults=1/1/0 open=194/4/60/52/8 arrivals=11132299525375045219 converged=Some(109)",
            ]),
        ];
        for (name, mix, config, warm_start, qstores, digest, expected) in fleets {
            for &qstore in qstores {
                for shards in [1, 2] {
                    let config = ServeConfig {
                        qstore,
                        shards: Some(shards),
                        ..config
                    };
                    let report = serve(&sim, mix, &config, warm_start).unwrap();
                    let lines: Vec<String> = report.sessions.iter().map(pinned).collect();
                    let at = format!("fleet {name}, {qstore:?}, {shards} shards");
                    assert_eq!(lines, expected, "{at}");
                    assert_eq!(report.digest(), digest, "{at}");
                }
            }
        }
    }

    #[test]
    fn qos_ratio_and_totals_add_up() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let report = serve(&sim, &mix, &small_config(None), None).unwrap();
        assert_eq!(report.total_decisions(), 6 * 60);
        let ratio = report.qos_violation_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        assert!(report.sessions.iter().all(|s| s.total_energy_mj > 0.0));
    }
}
