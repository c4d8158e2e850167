//! The replay: `serve()`'s sessions rebuilt from outside the program,
//! calling only its public functions, with a [`Tracer`] mark at every
//! stage boundary.
//!
//! A session here performs the same calls in the same order, with the
//! same seed streams, as `DeviceSession` does inside `serve()`, so it
//! must end with the same [`SessionReport`] — digests, floats and
//! counters bit for bit. [`crate::run::compare`] holds the comparison.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use autoscale::engine::{AutoScaleEngine, EngineConfig};
use autoscale::parallel::{cell_seed, run_cells};
use autoscale::serve::{
    session_specs, validate_warm_start, AdmissionPolicy, FleetStoreStats, OpenLoopConfig,
    ScenarioMix, ServeConfig, ServeError, SessionReport, SessionSpec, SessionTraffic,
};
use autoscale::{seeded_rng, ActionSpace, StateSpace};
use autoscale_rl::{QLearningAgent, QStore, QStoreKind, QStoreStats, QTable, ScalarKernel};
use autoscale_sim::{
    ArrivalSampler, ChurnWindow, Environment, FaultInjector, PreparedExecutor, ResiliencePolicy,
    Simulator, Snapshot,
};
use rand::rngs::StdRng;

use crate::spans::{Event, Stage, Tracer, Untraced};

/// FNV-1a 64-bit offset basis, as the session digests use it.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One replayed session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReplay {
    /// The report `serve()` must have produced for this session.
    pub report: SessionReport,
    /// Open-loop traffic accounting; `None` for closed-loop fleets.
    pub traffic: Option<SessionTraffic>,
    /// The session's Q-store accounting after learning.
    pub store: QStoreStats,
    /// Simulated milliseconds spent serving (the sum of service
    /// latencies).
    pub busy_ms: f64,
}

/// A fleet replayed session by session.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReplay {
    /// Replayed sessions, in session order.
    pub sessions: Vec<SessionReplay>,
    /// Q-store accounting aggregated as `serve()` aggregates it.
    pub store: FleetStoreStats,
}

/// Shard busy time of a sharded replay, for the `parallel` layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// Shards the cells ran on.
    pub shards: usize,
    /// Wall time of the whole pass, in seconds.
    pub wall_s: f64,
    /// Busy time of the busiest shard over the mean, ≥ 1.
    pub imbalance: f64,
    /// Share of `shards × wall` no shard spent in a session.
    pub idle_share: f64,
}

/// What every session of a fleet shares: the simulator, the
/// configuration, the warm start and its copy-on-write base.
pub struct Fleet<'a> {
    sim: &'a Simulator,
    config: &'a ServeConfig,
    warm: Option<&'a QLearningAgent>,
    cow_base: Option<Arc<QTable>>,
    specs: Vec<SessionSpec>,
    states: usize,
    actions: usize,
}

impl<'a> Fleet<'a> {
    /// Prepares a fleet exactly as `serve()` does before its first
    /// session: warm-start validation, then the shared cow base.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WarmStart`] on a warm start shaped for
    /// another device.
    pub fn new(
        sim: &'a Simulator,
        mix: &ScenarioMix,
        config: &'a ServeConfig,
        warm: Option<&'a QLearningAgent>,
    ) -> Result<Self, ServeError> {
        if let Some(agent) = warm {
            validate_warm_start(sim, agent)?;
        }
        let states = StateSpace::paper().len();
        let actions = ActionSpace::for_simulator(sim).len();
        let cow_base = match config.qstore {
            QStoreKind::Dense => None,
            QStoreKind::Cow => Some(match warm {
                Some(agent) => agent.shared_base(),
                None => Arc::new(QTable::new_zeroed(states, actions)),
            }),
        };
        Ok(Fleet {
            sim,
            config,
            warm,
            cow_base,
            specs: session_specs(mix, config),
            states,
            actions,
        })
    }

    /// Replays every session in order on the calling thread, through
    /// `run_cells`' one-shard path, recording into `tracer`.
    ///
    /// # Errors
    ///
    /// The first session error, as `serve()` would return it.
    pub fn replay_serial<T: Tracer + Send>(
        &self,
        tracer: &mut T,
    ) -> Result<FleetReplay, ServeError> {
        let tracer = Mutex::new(tracer);
        let results = run_cells(1, self.config.base_seed, &self.specs, |cell| {
            let mut guard = tracer
                .lock()
                .expect("the serial replay never panics holding the tracer");
            let tracer = &mut **guard;
            let start = tracer.mark();
            let result = self.session(cell.spec, cell.seed, tracer);
            let end = tracer.mark();
            tracer.span(Stage::Session, start, end);
            result
        });
        self.collect(results)
    }

    /// Replays the fleet untraced over `shards` worker shards and
    /// measures each shard's busy time.
    ///
    /// # Errors
    ///
    /// The first session error.
    pub fn replay_sharded(&self, shards: usize) -> Result<(FleetReplay, ShardLoad), ServeError> {
        let start = Instant::now();
        let results = run_cells(shards, self.config.base_seed, &self.specs, |cell| {
            let began = Instant::now();
            let result = self.session(cell.spec, cell.seed, &mut Untraced);
            (
                std::thread::current().id(),
                began.elapsed().as_secs_f64(),
                result,
            )
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut busy: Vec<(std::thread::ThreadId, f64)> = Vec::new();
        let mut sessions = Vec::with_capacity(results.len());
        for (thread, seconds, result) in results {
            match busy.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, total)) => *total += seconds,
                None => busy.push((thread, seconds)),
            }
            sessions.push(result);
        }
        let used = shards.min(self.specs.len()).max(1);
        let total: f64 = busy.iter().map(|(_, s)| s).sum();
        let max = busy.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        let load = ShardLoad {
            shards: used,
            wall_s,
            imbalance: max / (total / used as f64),
            idle_share: 1.0 - total / (used as f64 * wall_s),
        };
        Ok((self.collect(sessions)?, load))
    }

    fn collect(
        &self,
        results: Vec<Result<SessionReplay, ServeError>>,
    ) -> Result<FleetReplay, ServeError> {
        let mut store = FleetStoreStats {
            qstore: self.config.qstore,
            private_bytes: 0,
            shared_bytes: 0,
            overlay_rows: 0,
            max_session_private_bytes: 0,
        };
        let mut sessions = Vec::with_capacity(results.len());
        for result in results {
            let session = result?;
            store.private_bytes += session.store.private_bytes;
            store.overlay_rows += session.store.overlay_rows;
            store.max_session_private_bytes = store
                .max_session_private_bytes
                .max(session.store.private_bytes);
            store.shared_bytes = store.shared_bytes.max(session.store.shared_bytes);
            sessions.push(session);
        }
        Ok(FleetReplay { sessions, store })
    }

    /// Replays one session: set-up, then the closed- or open-loop body.
    /// Decisions go through [`ScalarKernel`], the kernel
    /// `ServeConfig::fleet()` selects; every kernel decides bit for bit
    /// alike, so the replay matches `serve()` whichever one it ran.
    fn session<T: Tracer>(
        &self,
        spec: &SessionSpec,
        seed: u64,
        tracer: &mut T,
    ) -> Result<SessionReplay, ServeError> {
        let config = self.config;
        let start = tracer.mark();
        let engine_config = EngineConfig {
            seed: cell_seed(seed, 0),
            ..config.engine
        };
        let agent = match (&self.cow_base, self.warm) {
            (None, None) => QLearningAgent::new(
                self.states,
                self.actions,
                engine_config.hyperparameters,
                engine_config.seed,
            ),
            (None, Some(warm)) => warm.clone(),
            (Some(base), Some(warm)) => warm.overlay_variant(base)?,
            (Some(base), None) => {
                QLearningAgent::with_store(QStore::cow(base.clone()), config.engine.hyperparameters)
            }
        };
        let agent_done = tracer.mark();
        tracer.span(Stage::AgentInit, start, agent_done);
        let engine = AutoScaleEngine::with_agent(self.sim, engine_config, agent)?;
        let engine_done = tracer.mark();
        tracer.span(Stage::EngineContexts, agent_done, engine_done);
        tracer.span(Stage::EngineBuild, start, engine_done);
        let qos_ms = config.engine.scenario_for(spec.workload).qos_ms();
        let mut live = Live {
            sim: self.sim,
            spec: *spec,
            engine,
            env: Environment::for_id(spec.environment),
            rng: seeded_rng(cell_seed(seed, 1)),
            qos_ms,
            injector: (!config.faults.is_none())
                .then(|| FaultInjector::new(config.faults, cell_seed(seed, 2))),
            resilience: ResiliencePolicy::for_qos(qos_ms),
            tally: Tally {
                digest: FNV_OFFSET,
                reward_sum: 0.0,
                qos_violations: 0,
                total_energy_mj: 0.0,
                faulted_requests: 0,
                retries: 0,
                fallbacks: 0,
                frozen_at: None,
                busy_ms: 0.0,
            },
        };
        let prepare_start = tracer.mark();
        let prepared = self.sim.prepare(spec.workload);
        let setup_done = tracer.mark();
        tracer.span(Stage::Prepare, prepare_start, setup_done);
        tracer.span(Stage::SessionSetup, start, setup_done);
        let replay = match &config.openloop {
            None => {
                for i in 0..spec.decisions {
                    live.decision(&prepared, false, i, tracer)?;
                }
                live.finish(spec.decisions, None)
            }
            Some(open) => live.run_openloop(&prepared, open, seed, tracer)?,
        };
        let served = tracer.mark();
        tracer.span(Stage::SessionServe, setup_done, served);
        Ok(replay)
    }
}

/// Per-session counters, as the session loops keep them.
#[derive(Debug)]
struct Tally {
    digest: u64,
    reward_sum: f64,
    qos_violations: usize,
    total_energy_mj: f64,
    faulted_requests: usize,
    retries: usize,
    fallbacks: usize,
    frozen_at: Option<usize>,
    busy_ms: f64,
}

/// A session being replayed.
struct Live<'a> {
    sim: &'a Simulator,
    spec: SessionSpec,
    engine: AutoScaleEngine,
    env: Environment,
    rng: StdRng,
    qos_ms: f64,
    injector: Option<FaultInjector>,
    resilience: ResiliencePolicy,
    tally: Tally,
}

impl Live<'_> {
    /// One decision, traced when the tracer samples it: sample → decide
    /// → execute → learn → convergence check. `index` is what the
    /// convergence point is recorded as. Returns the simulated service
    /// latency.
    fn decision<T: Tracer>(
        &mut self,
        prepared: &PreparedExecutor<'_>,
        degraded: bool,
        index: usize,
        tracer: &mut T,
    ) -> Result<f64, ServeError> {
        if T::ENABLED && tracer.sample(Event::Decision) {
            self.step(prepared, degraded, index, tracer)
        } else {
            self.step(prepared, degraded, index, &mut Untraced)
        }
    }

    fn step<T: Tracer>(
        &mut self,
        prepared: &PreparedExecutor<'_>,
        degraded: bool,
        index: usize,
        tracer: &mut T,
    ) -> Result<f64, ServeError> {
        let workload = self.spec.workload;
        let session = self.spec.session;
        let t0 = tracer.mark();
        let snapshot: Snapshot = self.env.sample(&mut self.rng);
        let t1 = tracer.mark();
        tracer.span(Stage::EnvSample, t0, t1);
        let decided = if degraded {
            self.engine
                .decide_kernel_frozen(&ScalarKernel, workload, &snapshot, &mut self.rng)
        } else {
            self.engine
                .decide_kernel(&ScalarKernel, workload, &snapshot, &mut self.rng)
        };
        let t2 = tracer.mark();
        tracer.span(Stage::Decide, t1, t2);
        let step = decided.map_err(|source| ServeError::NoFeasibleAction { session, source })?;
        self.tally.digest = fnv1a_fold(self.tally.digest, step.state_index as u64);
        self.tally.digest = fnv1a_fold(self.tally.digest, step.action_index as u64);
        if T::ENABLED {
            let greedy = self
                .engine
                .agent()
                .store()
                .best_action(step.state_index, self.engine.mask_for(workload));
            if greedy.map(|(action, _)| action) != Some(step.action_index) {
                tracer.explored();
            }
        }
        let t3 = tracer.mark();
        let (outcome, execute_start) = match &mut self.injector {
            None => (
                prepared.execute_measured(&step.request, &snapshot, &mut self.rng),
                t3,
            ),
            Some(injector) => {
                let plan = injector.next_faults();
                let planned = tracer.mark();
                tracer.span(Stage::Faults, t3, planned);
                let tally = &mut self.tally;
                let outcome = prepared
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
                    });
                (outcome, planned)
            }
        };
        let t4 = tracer.mark();
        tracer.span(Stage::Execute, execute_start, t4);
        let outcome = outcome.map_err(|source| ServeError::Execution { session, source })?;
        if outcome.latency_ms > self.qos_ms {
            self.tally.qos_violations += 1;
        }
        self.tally.total_energy_mj += outcome.energy_mj;
        self.tally.busy_ms += outcome.latency_ms;
        self.tally.reward_sum += self
            .engine
            .learn(self.sim, workload, step, &outcome, &snapshot);
        let t5 = tracer.mark();
        tracer.span(Stage::Learn, t4, t5);
        if self.tally.frozen_at.is_none() && self.engine.is_converged() {
            self.engine.freeze();
            self.tally.frozen_at = Some(index);
        }
        let t6 = tracer.mark();
        tracer.span(Stage::Converge, t5, t6);
        // The step leaves out the digest fold and the greedy check
        // between decide and execute: bookkeeping of the replay's own.
        tracer.record(Stage::Step, t0.to(t2) + t3.to(t6));
        Ok(outcome.latency_ms)
    }

    /// The open-loop discrete-event body, event for event as `serve()`
    /// runs it.
    fn run_openloop<T: Tracer>(
        mut self,
        prepared: &PreparedExecutor<'_>,
        open: &OpenLoopConfig,
        seed: u64,
        tracer: &mut T,
    ) -> Result<SessionReplay, ServeError> {
        struct Queued {
            at_ms: f64,
            degraded: bool,
        }
        let capacity = open.capacity();
        let window = ChurnWindow::draw(open.churn, cell_seed(seed, 4));
        let mut sampler = ArrivalSampler::new(open.arrivals, cell_seed(seed, 3));
        let join_ms = window.join_ms;
        let end_ms = window.end_ms(open.horizon_ms);
        let mut queue: VecDeque<Queued> = VecDeque::with_capacity(capacity);
        let mut traffic = SessionTraffic {
            session: self.spec.session,
            offered: 0,
            served: 0,
            dropped_full: 0,
            dropped_deadline: 0,
            dropped_churn: 0,
            degraded: 0,
            deadline_violations: 0,
            peak_queue_depth: 0,
            queue_histogram: vec![0; capacity + 1],
            busy_ms: 0.0,
            window_ms: (end_ms - join_ms).max(0.0),
            span_ms: 0.0,
        };
        let mut arrival_digest = FNV_OFFSET;
        let mut free_at_ms = join_ms;
        let serve = |live: &mut Self,
                     item: Queued,
                     free_at_ms: &mut f64,
                     traffic: &mut SessionTraffic,
                     tracer: &mut T|
         -> Result<(), ServeError> {
            let start_ms = free_at_ms.max(item.at_ms);
            let latency_ms = live.decision(prepared, item.degraded, traffic.served, tracer)?;
            *free_at_ms = start_ms + latency_ms;
            traffic.busy_ms += latency_ms;
            if *free_at_ms - item.at_ms > live.qos_ms {
                traffic.deadline_violations += 1;
            }
            if item.degraded {
                traffic.degraded += 1;
            }
            traffic.served += 1;
            Ok(())
        };
        loop {
            let arrival = if T::ENABLED && tracer.sample(Event::Arrival) {
                let a0 = tracer.mark();
                let arrival = sampler.next_arrival();
                let a1 = tracer.mark();
                tracer.span(Stage::Arrival, a0, a1);
                arrival
            } else {
                sampler.next_arrival()
            };
            let at_ms = join_ms + arrival.at_ms;
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(at_ms < end_ms) {
                break;
            }
            traffic.offered += 1;
            arrival_digest = fnv1a_fold(arrival_digest, arrival.index);
            arrival_digest = fnv1a_fold(arrival_digest, at_ms.to_bits());
            while free_at_ms <= at_ms {
                let Some(item) = queue.pop_front() else { break };
                serve(&mut self, item, &mut free_at_ms, &mut traffic, tracer)?;
            }
            let depth = queue.len();
            traffic.queue_histogram[depth] += 1;
            if depth >= capacity {
                traffic.dropped_full += 1;
                continue;
            }
            let mean_service_ms = if traffic.served == 0 {
                0.0
            } else {
                traffic.busy_ms / traffic.served as f64
            };
            let predicted_sojourn_ms =
                (free_at_ms - at_ms).max(0.0) + (depth as f64 + 1.0) * mean_service_ms;
            let late = predicted_sojourn_ms > self.qos_ms;
            let degraded = match open.admission {
                AdmissionPolicy::DropTail => false,
                AdmissionPolicy::Deadline => {
                    if late {
                        traffic.dropped_deadline += 1;
                        continue;
                    }
                    false
                }
                AdmissionPolicy::Degrade => late,
            };
            queue.push_back(Queued { at_ms, degraded });
            traffic.peak_queue_depth = traffic.peak_queue_depth.max(queue.len());
        }
        if window.churns_out(open.horizon_ms) && !open.churn.drain_on_leave {
            traffic.dropped_churn += queue.len();
            queue.clear();
        } else {
            while let Some(item) = queue.pop_front() {
                serve(&mut self, item, &mut free_at_ms, &mut traffic, tracer)?;
            }
        }
        traffic.span_ms = (free_at_ms.max(end_ms) - join_ms).max(0.0);
        let served = traffic.served;
        let mut replay = self.finish(served, Some(arrival_digest));
        replay.report.offered_requests = traffic.offered;
        replay.report.dropped_requests = traffic.dropped();
        replay.report.degraded_requests = traffic.degraded;
        replay.report.deadline_violations = traffic.deadline_violations;
        replay.report.peak_queue_depth = traffic.peak_queue_depth;
        replay.traffic = Some(traffic);
        Ok(replay)
    }

    /// The session's report after `decisions` served requests, with the
    /// open-loop fields zero (closed loop) or still to fill in.
    fn finish(self, decisions: usize, arrival_digest: Option<u64>) -> SessionReplay {
        let tally = self.tally;
        SessionReplay {
            report: SessionReport {
                session: self.spec.session,
                workload: self.spec.workload,
                environment: self.spec.environment,
                decisions,
                trace_digest: tally.digest,
                mean_reward: if decisions == 0 {
                    0.0
                } else {
                    tally.reward_sum / decisions as f64
                },
                qos_violations: tally.qos_violations,
                total_energy_mj: tally.total_energy_mj,
                faulted_requests: tally.faulted_requests,
                retries: tally.retries,
                fallbacks: tally.fallbacks,
                offered_requests: 0,
                dropped_requests: 0,
                degraded_requests: 0,
                deadline_violations: 0,
                peak_queue_depth: 0,
                arrival_digest: arrival_digest.unwrap_or(0),
                converged_at: tally.frozen_at,
            },
            traffic: None,
            store: self.engine.agent().store().stats(),
            busy_ms: tally.busy_ms,
        }
    }
}
