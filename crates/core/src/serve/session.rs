//! One device session: an independent AutoScale lifetime — its own
//! engine, environment trace and RNG streams — driven closed loop for a
//! fixed number of decisions or open loop from an arrival schedule.
//!
//! A session is the unit of work the serving shards pull from the queue.
//! Everything a session computes is a pure function of its
//! [`SessionSpec`] and seed, so its [`SessionReport`] is bit-identical
//! no matter which shard runs it or what else runs beside it. Wall-clock
//! decision latencies are the one exception — they are measured, not
//! simulated — so they are returned *next to* the report, never inside
//! it.
//!
//! # One body, two loops
//!
//! Every request, whatever traffic offered it, runs through one
//! decide → execute → learn body ([`DeviceSession::run`] holds the
//! closed loop; [`super::openloop`] adds only arrivals, admission and
//! the queue). The closed loop is not an open loop fed by a saturated
//! arrival source: that would make the shared body branch on its caller
//! and put queue bookkeeping in the steady-state loop, for nothing.
//!
//! # RNG stream layout
//!
//! The session keeps its seed (one per session, `cell_seed(base_seed,
//! i)`) and splits it into five disjoint streams, so no stream perturbs
//! another and none can be fed a different seed:
//!
//! | stream | derivation          | consumer                        |
//! |--------|---------------------|---------------------------------|
//! | 0      | `cell_seed(seed,0)` | engine Q-table initialization   |
//! | 1      | `cell_seed(seed,1)` | environment + exploration draws |
//! | 2      | `cell_seed(seed,2)` | fault injector                  |
//! | 3      | `cell_seed(seed,3)` | arrival schedule (open loop)    |
//! | 4      | `cell_seed(seed,4)` | churn window (open loop)        |

use autoscale_nn::Workload;
use autoscale_rl::qtable::ShapeMismatchError;
use autoscale_rl::{QLearningAgent, QStoreStats, ScalarKernel};
use autoscale_sim::{
    Environment, EnvironmentId, FaultInjector, FaultProfile, PreparedExecutor, ResiliencePolicy,
    Simulator,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use super::openloop::{drive, OpenLoopConfig, SessionTraffic};
use super::timing::DecisionTimer;
use super::ServeError;
use crate::engine::{AutoScaleEngine, EngineConfig};
use crate::parallel::cell_seed;
use crate::seeded_rng;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a digest, byte by byte.
pub(crate) fn fnv1a_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Starts an FNV-1a digest.
pub(crate) fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// What one session runs: its index in the fleet, its scenario, and how
/// many inferences it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Position of the session in the fleet (also its grid index in the
    /// shard queue).
    pub session: usize,
    /// The model this session serves.
    pub workload: Workload,
    /// The Table IV environment its runtime variance is drawn from.
    pub environment: EnvironmentId,
    /// Number of inference decisions to serve.
    pub decisions: usize,
}

/// The deterministic outcome of one session.
///
/// Contains **no wall-clock measurements**: two runs of the same spec
/// and seed produce byte-identical reports regardless of shard count,
/// which is what the shard-invariance tests compare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session index this report belongs to.
    pub session: usize,
    /// The workload served.
    pub workload: Workload,
    /// The environment the session ran in.
    pub environment: EnvironmentId,
    /// Decisions actually served.
    pub decisions: usize,
    /// FNV-1a digest over the full (state, action) decision trace — a
    /// compact fingerprint two traces can be compared by.
    pub trace_digest: u64,
    /// Mean eq. (5) reward over the session.
    pub mean_reward: f64,
    /// Decisions whose measured latency exceeded the scenario QoS.
    pub qos_violations: usize,
    /// Total measured energy over the session, in mJ.
    pub total_energy_mj: f64,
    /// Requests whose offload path suffered at least one injected fault
    /// (dropout or timeout). Always zero when fault injection is off.
    pub faulted_requests: usize,
    /// Backoff-then-retry cycles the resilience policy took across the
    /// session.
    pub retries: usize,
    /// Requests that exhausted their offload attempts and fell back to
    /// local execution.
    pub fallbacks: usize,
    /// Requests the session's arrival process offered, whether or not
    /// they were served. Zero in closed-loop runs, where nothing is
    /// "offered" — the session just executes its fixed decision count.
    pub offered_requests: usize,
    /// Offered requests dropped at admission (queue full, predicted
    /// deadline miss) or abandoned when the session churned out. Always
    /// zero in closed-loop runs.
    pub dropped_requests: usize,
    /// Requests admitted past their predicted deadline and served
    /// greedily (exploration off) under the degrade admission policy.
    /// Always zero in closed-loop runs.
    pub degraded_requests: usize,
    /// Served requests whose *sojourn* (queue wait plus service)
    /// exceeded the scenario QoS — the open-loop counterpart of
    /// `qos_violations`, which only measures service latency. Always
    /// zero in closed-loop runs.
    pub deadline_violations: usize,
    /// The deepest the session's request queue ever got. Always zero in
    /// closed-loop runs.
    pub peak_queue_depth: usize,
    /// FNV-1a digest over the arrival schedule the session actually saw
    /// (arrival index and time bits) — fingerprint of the open-loop
    /// traffic, independent of what the scheduler decided. Zero in
    /// closed-loop runs.
    pub arrival_digest: u64,
    /// The decision index at which the reward converged, if it did.
    pub converged_at: Option<usize>,
}

/// One live device session: engine, environment and RNG bundled over a
/// shared simulator.
///
/// The per-decision loop is allocation-free: the engine's feasibility
/// masks are precomputed per workload, the epsilon-greedy policy scans
/// the mask in place, and the latency buffer is sized once up front.
pub struct DeviceSession<'a> {
    sim: &'a Simulator,
    pub(super) spec: SessionSpec,
    /// The session's private seed; every RNG stream is split from it
    /// (see the module docs).
    pub(super) seed: u64,
    engine: AutoScaleEngine,
    env: Environment,
    rng: StdRng,
    pub(super) qos_ms: f64,
    /// Seeded fault source, present only when the session runs under a
    /// non-empty fault profile. `None` keeps the fault-free hot path
    /// untouched — and its reports byte-identical to builds without
    /// fault injection.
    injector: Option<FaultInjector>,
    resilience: ResiliencePolicy,
}

/// What one run accumulates, whichever loop feeds it: the counters the
/// [`SessionReport`] is built from, plus the wall-clock latencies kept
/// beside it.
#[derive(Debug)]
pub(super) struct Tally {
    /// Requests served so far — also the index of the next one.
    pub(super) served: usize,
    digest: u64,
    reward_sum: f64,
    qos_violations: usize,
    total_energy_mj: f64,
    faulted_requests: usize,
    retries: usize,
    fallbacks: usize,
    converged_at: Option<usize>,
    record_latency: bool,
    latencies_ns: Vec<u64>,
}

impl<'a> DeviceSession<'a> {
    /// Builds a session over a shared simulator.
    ///
    /// `seed` is the session's private seed (one per session, derived by
    /// the caller — see [`crate::parallel::cell_seed`]). `agent` is the
    /// session's private learner, taken by value: a clone of a fleet's
    /// warm start, a copy-on-write overlay over a shared base table, or
    /// `None` for a cold table drawn from stream 0. Each session keeps
    /// learning independently. Under an empty fault profile no injector
    /// is built, so the fault-free path draws nothing extra.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if `agent` has a Q-table shaped for a
    /// different device. [`super::serve`] validates the fleet's warm
    /// start once via [`super::validate_warm_start`], so this only trips
    /// for callers that build sessions by hand.
    pub fn new(
        sim: &'a Simulator,
        spec: SessionSpec,
        config: EngineConfig,
        agent: Option<QLearningAgent>,
        seed: u64,
        faults: FaultProfile,
    ) -> Result<Self, ShapeMismatchError> {
        let engine_config = EngineConfig {
            seed: cell_seed(seed, 0),
            ..config
        };
        let engine = match agent {
            Some(agent) => AutoScaleEngine::with_agent(sim, engine_config, agent)?,
            None => AutoScaleEngine::new(sim, engine_config),
        };
        let qos_ms = config.scenario_for(spec.workload).qos_ms();
        let injector = (!faults.is_none()).then(|| FaultInjector::new(faults, cell_seed(seed, 2)));
        Ok(DeviceSession {
            sim,
            spec,
            seed,
            engine,
            env: Environment::for_id(spec.environment),
            rng: seeded_rng(cell_seed(seed, 1)),
            qos_ms,
            injector,
            resilience: ResiliencePolicy::for_qos(qos_ms),
        })
    }

    /// Runs the session to completion. Closed loop (`openloop: None`)
    /// serves `spec.decisions` requests back to back; open loop serves
    /// whatever the session's arrival schedule offers inside its churn
    /// window, through the bounded queue and admission policy of
    /// [`super::openloop`]. Either way every request goes through the
    /// same decide → execute → learn body, which freezes the policy to
    /// pure exploitation once the reward converges (the paper's
    /// serving-mode switch). Requests execute through one
    /// [`autoscale_sim::PreparedExecutor`] (placement dispatch,
    /// cost-cache lookup and noise distributions resolved once per
    /// session instead of once per request).
    ///
    /// With `record_latency` the wall-clock time of each *decision* (the
    /// Q-table lookup, not the simulated inference) is captured in
    /// nanoseconds. Returned beside the deterministic report: those
    /// latencies, the final [`QStoreStats`] of the session's Q-value
    /// store, and the open-loop traffic accounting (`None` closed loop)
    /// — kept outside the report, whose serialized field set is pinned.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoFeasibleAction`] or
    /// [`ServeError::Execution`] when a decision cannot be made or the
    /// simulator rejects the chosen request — unreachable on the paper's
    /// testbeds (the engine only proposes mask-feasible requests), but
    /// surfaced as typed errors so the serving hot path never aborts.
    pub fn run(
        mut self,
        record_latency: bool,
        openloop: Option<&OpenLoopConfig>,
    ) -> Result<(SessionReport, Vec<u64>, QStoreStats, Option<SessionTraffic>), ServeError> {
        let prepared = self.sim.prepare(self.spec.workload);
        let mut tally = Tally {
            served: 0,
            digest: fnv1a_start(),
            reward_sum: 0.0,
            qos_violations: 0,
            total_energy_mj: 0.0,
            faulted_requests: 0,
            retries: 0,
            fallbacks: 0,
            converged_at: None,
            record_latency,
            // lint:hot-exempt(the one-time preallocation the hot-path contract asks for: the whole closed-loop session, nothing open loop, where the count is schedule-dependent)
            latencies_ns: Vec::with_capacity(match openloop {
                None if record_latency => self.spec.decisions,
                _ => 0,
            }),
        };
        let (traffic, arrival_digest) = match openloop {
            None => {
                for _ in 0..self.spec.decisions {
                    self.serve_request(&prepared, false, &mut tally)?;
                }
                (None, 0)
            }
            Some(open) => {
                let (traffic, arrival_digest) = drive(&mut self, &prepared, open, &mut tally)?;
                (Some(traffic), arrival_digest)
            }
        };
        let open = traffic.as_ref();
        let report = SessionReport {
            session: self.spec.session,
            workload: self.spec.workload,
            environment: self.spec.environment,
            decisions: tally.served,
            trace_digest: tally.digest,
            mean_reward: if tally.served == 0 {
                0.0
            } else {
                tally.reward_sum / tally.served as f64
            },
            qos_violations: tally.qos_violations,
            total_energy_mj: tally.total_energy_mj,
            faulted_requests: tally.faulted_requests,
            retries: tally.retries,
            fallbacks: tally.fallbacks,
            // Closed-loop runs offer nothing, queue nothing, drop
            // nothing: the open-loop fields stay identically zero, so a
            // pre-open-loop report is this report minus six zeros.
            offered_requests: open.map_or(0, |t| t.offered),
            dropped_requests: open.map_or(0, SessionTraffic::dropped),
            degraded_requests: open.map_or(0, |t| t.degraded),
            deadline_violations: open.map_or(0, |t| t.deadline_violations),
            peak_queue_depth: open.map_or(0, |t| t.peak_queue_depth),
            arrival_digest,
            converged_at: tally.converged_at,
        };
        let store_stats = self.engine.agent().store().stats();
        Ok((report, tally.latencies_ns, store_stats, traffic))
    }

    /// Serves one request: environment sample → decide → execute →
    /// learn → convergence check, the body both the closed and the open
    /// loop run. `degraded` decides greedily (exploration off) with the
    /// same draw count. Returns the simulated service latency.
    pub(super) fn serve_request(
        &mut self,
        prepared: &PreparedExecutor<'_>,
        degraded: bool,
        tally: &mut Tally,
    ) -> Result<f64, ServeError> {
        let workload = self.spec.workload;
        let snapshot = self.env.sample(&mut self.rng);
        // The draw sequence stays a pure function of the session's
        // history: freezing sets ε = 0 inside the policy rather than
        // switching to a differently-drawing greedy call site, and a
        // degraded request's frozen decide draws the same count by
        // construction. The timer lives in
        // statements of its own, never in the expression that produces
        // the step — the taint pass tracks statement spans, so this
        // shape keeps the measured wall clock visibly beside, not
        // inside, the decision data.
        let timer = if tally.record_latency {
            Some(DecisionTimer::start())
        } else {
            None
        };
        let decided = if degraded {
            self.engine
                .decide_kernel_frozen(&ScalarKernel, workload, &snapshot, &mut self.rng)
        } else {
            self.engine
                .decide_kernel(&ScalarKernel, workload, &snapshot, &mut self.rng)
        };
        if let Some(timer) = &timer {
            // lint:hot-exempt(quarantined wall-clock read; closed loop pushes into the buffer preallocated at session start, open loop grows it amortized)
            tally.latencies_ns.push(timer.elapsed_ns());
        }
        let step = decided.map_err(|source| ServeError::NoFeasibleAction {
            session: self.spec.session,
            source,
        })?;
        tally.digest = fnv1a_fold(tally.digest, step.state_index as u64);
        tally.digest = fnv1a_fold(tally.digest, step.action_index as u64);
        // The fault-free path calls the prepared execute_measured — the
        // same math as Simulator::execute_measured with the per-request
        // dispatch amortized — so an absent injector costs nothing and
        // changes nothing. Under faults, the resilient path draws the
        // same two noise values per request from the session stream; all
        // fault draws come from the injector's private stream.
        let outcome = match &mut self.injector {
            None => prepared.execute_measured(&step.request, &snapshot, &mut self.rng),
            Some(injector) => {
                let plan = injector.next_faults();
                prepared
                    .execute_resilient(
                        &step.request,
                        &snapshot,
                        &plan,
                        &self.resilience,
                        &mut self.rng,
                    )
                    .map(|resilient| {
                        if resilient.offload_faults > 0 {
                            tally.faulted_requests += 1;
                        }
                        tally.retries += resilient.retries;
                        if resilient.fell_back {
                            tally.fallbacks += 1;
                        }
                        resilient.outcome
                    })
            }
        }
        .map_err(|source| ServeError::Execution {
            session: self.spec.session,
            source,
        })?;
        if outcome.latency_ms > self.qos_ms {
            tally.qos_violations += 1;
        }
        tally.total_energy_mj += outcome.energy_mj;
        tally.reward_sum += self
            .engine
            .learn(self.sim, workload, step, &outcome, &snapshot);
        if tally.converged_at.is_none() && self.engine.is_converged() {
            self.engine.freeze();
            tally.converged_at = Some(tally.served);
        }
        tally.served += 1;
        Ok(outcome.latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_platform::DeviceId;

    fn spec(decisions: usize) -> SessionSpec {
        SessionSpec {
            session: 0,
            workload: Workload::MobileNetV1,
            environment: EnvironmentId::S1,
            decisions,
        }
    }

    fn session_with(
        sim: &Simulator,
        decisions: usize,
        seed: u64,
        agent: Option<QLearningAgent>,
        faults: FaultProfile,
    ) -> DeviceSession<'_> {
        DeviceSession::new(
            sim,
            spec(decisions),
            EngineConfig::paper(),
            agent,
            seed,
            faults,
        )
        .expect("the agent is shaped for this device")
    }

    fn session(sim: &Simulator, decisions: usize, seed: u64) -> DeviceSession<'_> {
        session_with(sim, decisions, seed, None, FaultProfile::none())
    }

    #[test]
    fn same_seed_reproduces_the_report_bit_for_bit() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let run = |seed| {
            session(&sim, 120, seed)
                .run(false, None)
                .expect("session runs")
                .0
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).trace_digest, run(8).trace_digest);
    }

    #[test]
    fn latency_recording_does_not_perturb_the_trace() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let timed = session(&sim, 80, 3).run(true, None).expect("session runs");
        let untimed = session(&sim, 80, 3).run(false, None).expect("session runs");
        assert_eq!(timed.0, untimed.0);
        assert_eq!(timed.1.len(), 80);
        assert!(untimed.1.is_empty());
    }

    #[test]
    fn long_sessions_converge_and_freeze() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let (report, _, _, _) = session(&sim, 200, 11)
            .run(false, None)
            .expect("session runs");
        assert!(report.converged_at.is_some(), "200 calm runs converge");
        assert_eq!(report.decisions, 200);
        assert!(report.mean_reward.is_finite());
    }

    #[test]
    fn session_report_serializes_no_wall_clock_fields() {
        // The structural guarantee behind the timing quarantine: latency
        // samples live *beside* the report (the second tuple element of
        // `run`), so the serialized report — the thing digests and
        // shard-invariance comparisons are built from — must not carry
        // any wall-clock field.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let (report, latencies, _, _) = session(&sim, 30, 5).run(true, None).expect("session runs");
        assert_eq!(
            latencies.len(),
            30,
            "latencies are returned beside the report"
        );
        let value = serde::Serialize::to_value(&report);
        let fields = value.as_object().expect("a struct serializes to an object");
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for name in &names {
            let lower = name.to_lowercase();
            let banned = ["latency", "latencies", "wall", "instant", "elapsed"]
                .iter()
                .any(|b| lower.contains(b))
                || lower.ends_with("_ns");
            assert!(
                !banned,
                "field `{name}` smells like a wall-clock measurement"
            );
        }
        // Pin the exact deterministic field set: adding a field here is a
        // deliberate, reviewed act.
        assert_eq!(
            names,
            [
                "session",
                "workload",
                "environment",
                "decisions",
                "trace_digest",
                "mean_reward",
                "qos_violations",
                "total_energy_mj",
                "faulted_requests",
                "retries",
                "fallbacks",
                "offered_requests",
                "dropped_requests",
                "degraded_requests",
                "deadline_violations",
                "peak_queue_depth",
                "arrival_digest",
                "converged_at",
            ]
        );
    }

    #[test]
    fn an_empty_fault_profile_builds_no_injector_and_counts_no_faults() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let plain = session(&sim, 100, 21);
        assert!(plain.injector.is_none(), "nothing to inject, no injector");
        let plain = plain.run(false, None).expect("session runs").0;
        // A chaos session with its injector removed is injector-free by
        // construction: the empty profile must add nothing beyond that.
        let mut stripped = session_with(&sim, 100, 21, None, FaultProfile::chaos());
        stripped.injector = None;
        let stripped = stripped.run(false, None).expect("session runs").0;
        assert_eq!(plain, stripped);
        assert_eq!(plain.faulted_requests, 0);
        assert_eq!(plain.retries, 0);
        assert_eq!(plain.fallbacks, 0);
    }

    #[test]
    fn faulted_sessions_reproduce_and_count_consistently() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let run = |seed: u64| {
            session_with(&sim, 150, seed, None, FaultProfile::chaos())
                .run(false, None)
                .expect("session survives chaos")
                .0
        };
        let a = run(33);
        assert_eq!(a, run(33), "same seed, same faults, same report");
        assert!(
            a.fallbacks <= a.faulted_requests,
            "a fallback implies at least one fault on that request"
        );
        assert!(a.faulted_requests <= a.decisions);
    }

    #[test]
    fn cow_store_session_matches_a_dense_warm_start() {
        use autoscale_rl::{Hyperparameters, QStoreKind, QTable};
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let states = crate::state::StateSpace::paper().len();
        let actions = crate::action::ActionSpace::for_simulator(&sim).len();
        // One shared warm agent: the dense path clones it per session,
        // the cow path overlays its flattened base — same logical values,
        // so the sessions must be bit-identical.
        let warm = QLearningAgent::with_table(
            QTable::new_random(states, actions, 0xba5e),
            Hyperparameters::paper(),
        );
        let dense = session_with(&sim, 100, 21, Some(warm.clone()), FaultProfile::none())
            .run(false, None)
            .expect("session runs");
        let base = warm.shared_base();
        let overlay_agent = warm.overlay_variant(&base).expect("same shape");
        let cow = session_with(&sim, 100, 21, Some(overlay_agent), FaultProfile::none())
            .run(false, None)
            .expect("session runs");
        assert_eq!(cow.0, dense.0, "reports are backend-independent");
        let (dense_stats, cow_stats) = (dense.2, cow.2);
        assert_eq!(dense_stats.kind, QStoreKind::Dense);
        assert_eq!(cow_stats.kind, QStoreKind::Cow);
        assert!(cow_stats.overlay_rows > 0, "learning materialized rows");
        assert_eq!(
            cow_stats.shared_bytes as usize,
            base.full_bytes(),
            "the shared base costs exactly one fully filled table"
        );
        // The warm table was never touched before the session cloned it,
        // so the dense session filled only its network's chunk.
        assert_eq!(
            dense_stats.private_bytes as usize * (states / autoscale_rl::CHUNK_ROWS),
            base.full_bytes(),
            "a dense session holds exactly the one chunk it read"
        );
        assert!(
            cow_stats.private_bytes < dense_stats.private_bytes,
            "overlay ({} B) must undercut the dense chunk ({} B)",
            cow_stats.private_bytes,
            dense_stats.private_bytes
        );
    }

    #[test]
    fn a_cold_session_fills_one_chunk_of_its_table() {
        use autoscale_rl::{QStoreKind, QTable, CHUNK_ROWS};
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let actions = crate::action::ActionSpace::for_simulator(&sim).len();
        let (_, _, stats, _) = session(&sim, 40, 3).run(false, None).expect("session runs");
        assert_eq!(stats.kind, QStoreKind::Dense);
        assert_eq!(
            stats.private_bytes as usize,
            QTable::new_zeroed(CHUNK_ROWS, actions).memory_bytes(),
            "40 decisions on one network fill exactly one 64-row chunk"
        );
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a_fold(fnv1a_fold(fnv1a_start(), 1), 2);
        let b = fnv1a_fold(fnv1a_fold(fnv1a_start(), 2), 1);
        assert_ne!(a, b);
    }
}
