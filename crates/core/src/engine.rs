//! The AutoScale engine: Algorithm 1 wired to the state space, action
//! space and reward of this domain.
//!
//! The engine is deliberately thin — observe, look up, select, learn —
//! because that is the paper's point: a Q-table decision costs
//! microseconds and ~0.4 MB on a phone (Section VI-C), which deep-RL
//! alternatives cannot match.

use autoscale_nn::Workload;
use autoscale_rl::{ConvergenceDetector, Hyperparameters, MaskSet, QLearningAgent, ScalarKernel};
use autoscale_sim::{Outcome, Request, Scenario, Simulator, Snapshot};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::action::ActionSpace;
use crate::reward::{reward, RewardConfig};
use crate::state::StateSpace;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Q-learning hyperparameters (γ, µ, ε).
    pub hyperparameters: Hyperparameters,
    /// The latency weight α of eq. (5).
    pub alpha: f64,
    /// The accuracy weight β of eq. (5).
    pub beta: f64,
    /// The inference-quality (accuracy) target in percent, if any.
    pub accuracy_target: Option<f64>,
    /// Whether vision workloads run in the streaming scenario (33.3 ms
    /// QoS) instead of non-streaming (50 ms).
    pub streaming: bool,
    /// Whether `R_energy` is estimated from the measured latency via the
    /// paper's eqs. (1)–(4) (the mechanism a meterless phone must use,
    /// Section IV-A) instead of read from the measured outcome. On by
    /// default for fidelity; turn off to learn from oracle energy.
    pub estimate_energy: bool,
    /// Seed for the random Q-table initialization.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper's configuration: γ = 0.9, µ = 0.1, ε = 0.1,
    /// α = β = 0.1, 50% accuracy target, non-streaming.
    pub fn paper() -> Self {
        EngineConfig {
            hyperparameters: Hyperparameters::paper(),
            alpha: 0.1,
            beta: 0.1,
            accuracy_target: Some(50.0),
            streaming: false,
            estimate_energy: true,
            seed: 0x5ca1e,
        }
    }

    /// The scenario (and hence QoS constraint) for a workload under this
    /// configuration.
    pub fn scenario_for(&self, workload: Workload) -> Scenario {
        if self.streaming {
            Scenario::streaming_for(workload.task())
        } else {
            Scenario::default_for(workload.task())
        }
    }

    /// The eq. (5) reward configuration for a workload.
    pub fn reward_for(&self, workload: Workload) -> RewardConfig {
        RewardConfig {
            alpha: self.alpha,
            beta: self.beta,
            qos_ms: self.scenario_for(workload).qos_ms(),
            accuracy_target: self.accuracy_target,
            accuracy_penalty_scale: 100.0,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::paper()
    }
}

/// One decision made by the engine, to be passed back to
/// [`AutoScaleEngine::learn`] after the inference executes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionStep {
    /// The encoded state the decision was made in.
    pub state_index: usize,
    /// The index of the selected action.
    pub action_index: usize,
    /// The fully specified request the action denotes.
    pub request: Request,
}

/// No action in the action space can serve a workload on this device.
///
/// Cannot occur on the paper's three testbeds — their CPUs run every
/// Table III model, so the feasibility mask always has at least one
/// `true` — but an engine built for a hypothetical device without a
/// universal fallback processor would hit it, and the serving stack
/// must surface that as a typed error rather than an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFeasibleActionError {
    /// The workload no action could serve.
    pub workload: Workload,
}

impl std::fmt::Display for NoFeasibleActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no feasible action for workload {} on this device (empty feasibility mask)",
            self.workload
        )
    }
}

impl std::error::Error for NoFeasibleActionError {}

/// The AutoScale execution-scaling engine.
///
/// An engine binds to the device it was built for: the action space and
/// the per-workload feasibility masks are enumerated from the
/// construction-time [`Simulator`], so `decide`/`learn` must be driven
/// with that same testbed.
#[derive(Debug, Clone)]
pub struct AutoScaleEngine {
    states: StateSpace,
    actions: ActionSpace,
    agent: QLearningAgent,
    detector: ConvergenceDetector,
    config: EngineConfig,
    /// Per-workload decision context indexed by [`Workload::index`].
    /// Everything here depends only on (device, workload, config), so
    /// precomputing it at construction keeps the per-decision hot path
    /// allocation-free and skips the O(layers) network fold on every
    /// state encoding.
    contexts: Vec<WorkloadContext>,
}

/// The construction-time invariants of one workload on one device: its
/// feasibility mask (as both `&[bool]` and packed words), the workload
/// component of every state index it can observe, and its eq. (5)
/// reward configuration.
#[derive(Debug, Clone)]
struct WorkloadContext {
    mask: MaskSet,
    state_base: usize,
    reward: RewardConfig,
}

/// Precomputes the decision context of every Table III workload.
fn contexts_for(
    states: &StateSpace,
    actions: &ActionSpace,
    sim: &Simulator,
    config: &EngineConfig,
) -> Vec<WorkloadContext> {
    Workload::ALL
        .iter()
        .map(|&w| WorkloadContext {
            mask: MaskSet::from_bools(&actions.mask(sim, w)),
            state_base: states.network_base(sim.network(w)),
            reward: config.reward_for(w),
        })
        .collect()
}

impl AutoScaleEngine {
    /// Builds an engine for a simulator's host device.
    pub fn new(sim: &Simulator, config: EngineConfig) -> Self {
        let states = StateSpace::paper();
        let actions = ActionSpace::for_simulator(sim);
        let agent = QLearningAgent::new(
            states.len(),
            actions.len(),
            config.hyperparameters,
            config.seed,
        );
        // Convergence cannot be meaningful before the epsilon-greedy sweep
        // has visited every action once (see ConvergenceDetector docs).
        let detector = ConvergenceDetector::paper().with_min_observations(actions.len());
        let contexts = contexts_for(&states, &actions, sim, &config);
        AutoScaleEngine {
            states,
            actions,
            agent,
            detector,
            config,
            contexts,
        }
    }

    /// Builds an engine around a pre-trained agent (e.g. one restored
    /// from serde persistence by a deployment pipeline).
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if the agent's Q-table does not match
    /// this device's state and action spaces.
    pub fn with_agent(
        sim: &Simulator,
        config: EngineConfig,
        agent: QLearningAgent,
    ) -> Result<Self, autoscale_rl::qtable::ShapeMismatchError> {
        let states = StateSpace::paper();
        let actions = ActionSpace::for_simulator(sim);
        if agent.store().states() != states.len() || agent.store().actions() != actions.len() {
            return Err(autoscale_rl::qtable::ShapeMismatchError {
                expected: (states.len(), actions.len()),
                found: (agent.store().states(), agent.store().actions()),
            });
        }
        let detector = ConvergenceDetector::paper().with_min_observations(actions.len());
        let contexts = contexts_for(&states, &actions, sim, &config);
        Ok(AutoScaleEngine {
            states,
            actions,
            agent,
            detector,
            config,
            contexts,
        })
    }

    /// The precomputed feasibility mask for a workload on this engine's
    /// device — the allocation-free equivalent of
    /// [`ActionSpace::mask`].
    pub fn mask_for(&self, workload: Workload) -> &[bool] {
        self.contexts[workload.index()].mask.bools()
    }

    /// The engine's state space.
    pub fn states(&self) -> &StateSpace {
        &self.states
    }

    /// The engine's action space.
    pub fn actions(&self) -> &ActionSpace {
        &self.actions
    }

    /// The underlying Q-learning agent.
    pub fn agent(&self) -> &QLearningAgent {
        &self.agent
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The reward-convergence detector (paper Fig. 14).
    pub fn convergence(&self) -> &ConvergenceDetector {
        &self.detector
    }

    /// Selects an action for the next inference with the epsilon-greedy
    /// policy at the agent's ε (steps ① and ② of the paper's Fig. 8).
    ///
    /// # Errors
    ///
    /// Returns [`NoFeasibleActionError`] when the workload's feasibility
    /// mask is empty — impossible on the paper's devices, whose CPUs run
    /// every model.
    pub fn decide(
        &self,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        self.step_for(workload, snapshot, Some((self.agent.epsilon(), rng)))
    }

    /// [`AutoScaleEngine::decide`] with exploration forced off — the
    /// open-loop *degrade* admission path, which serves an already-late
    /// request greedily instead of spending it on exploration. The
    /// epsilon gate draw still happens (ε = 0 just never takes the
    /// exploration arm), so degrading a request never re-times the
    /// session's decision stream. Fails as [`AutoScaleEngine::decide`].
    pub fn decide_kernel_frozen(
        &self,
        _kernel: &ScalarKernel,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        self.step_for(workload, snapshot, Some((0.0, rng)))
    }

    /// Selects the greedy (exploitation-only) action without drawing —
    /// evaluation once training has converged. Fails as
    /// [`AutoScaleEngine::decide`].
    pub fn decide_greedy(
        &self,
        workload: Workload,
        snapshot: &Snapshot,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        self.step_for(workload, snapshot, None)
    }

    /// [`AutoScaleEngine::decide`] under the name serving sessions and
    /// the benchmark replay call; `ScalarKernel` is the one kernel.
    // Kept last of the `decide*` entry points: the linter attributes the
    // shared body to the last one, which its golden test expects.
    pub fn decide_kernel(
        &self,
        _kernel: &ScalarKernel,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        self.step_for(workload, snapshot, Some((self.agent.epsilon(), rng)))
    }

    /// The one decision body: encode the state, then draw by
    /// [`ScalarKernel::select`] at the given ε, or take the masked argmax
    /// without drawing. The state is encoded in factored form — the
    /// workload's precomputed network base plus the snapshot's runtime
    /// index — which equals [`StateSpace::encode_observation`] without
    /// its per-decision O(layers) fold.
    fn step_for(
        &self,
        workload: Workload,
        snapshot: &Snapshot,
        draw: Option<(f64, &mut StdRng)>,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        let ctx = &self.contexts[workload.index()];
        let state_index = ctx.state_base + self.states.runtime_index(snapshot);
        // lint:draws-exempt(the greedy arm draws nothing by design; callers pick one arm per stream and digest tests pin each protocol)
        let action_index = match draw {
            Some((epsilon, rng)) => {
                ScalarKernel.select(self.agent.store(), state_index, &ctx.mask, epsilon, rng)
            }
            None => self.agent.select_greedy(state_index, ctx.mask.bools()),
        }
        .ok_or(NoFeasibleActionError { workload })?;
        Ok(DecisionStep {
            state_index,
            action_index,
            request: self.actions.request(action_index),
        })
    }

    /// Feeds the measured result of an executed decision back into the
    /// Q-table (steps ④ and ⑤ of Fig. 8) and returns the eq. (5) reward.
    ///
    /// `next_snapshot` is the runtime variance observed after the
    /// inference (Algorithm 1's S'); passing the same snapshot is fine in
    /// slowly varying environments.
    pub fn learn(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        step: DecisionStep,
        outcome: &Outcome,
        next_snapshot: &Snapshot,
    ) -> f64 {
        // The paper's engine measures latency but *estimates* energy from
        // it (eqs. (1)–(4)) — a phone has no per-inference power meter.
        let rewarded = if self.config.estimate_energy {
            Outcome {
                energy_mj: crate::estimator::estimate_energy_mj(
                    sim,
                    workload,
                    &step.request,
                    next_snapshot,
                    outcome.latency_ms,
                ),
                ..*outcome
            }
        } else {
            *outcome
        };
        let ctx = &self.contexts[workload.index()];
        let r = reward(&ctx.reward, &rewarded);
        let next_state = ctx.state_base + self.states.runtime_index(next_snapshot);
        self.agent.update(
            step.state_index,
            step.action_index,
            r,
            next_state,
            ctx.mask.bools(),
        );
        self.detector.observe(r);
        r
    }

    /// Whether the reward has converged (after which the paper switches
    /// to pure exploitation).
    pub fn is_converged(&self) -> bool {
        self.detector.is_converged()
    }

    /// Switches to pure exploitation (ε = 0).
    pub fn freeze(&mut self) {
        self.agent.freeze();
    }

    /// Warm-starts this engine from another engine's Q-table — the
    /// paper's learning transfer across devices (Section VI-C).
    ///
    /// Requires both engines to expose identical state and action spaces;
    /// the three phones differ in action count, so cross-device transfer
    /// goes through [`AutoScaleEngine::transfer_by_action`] instead.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if the Q-tables differ in size.
    pub fn transfer_from(
        &mut self,
        donor: &AutoScaleEngine,
    ) -> Result<(), autoscale_rl::qtable::ShapeMismatchError> {
        self.agent.transfer_from(&donor.agent)
    }

    /// Cross-device learning transfer: copies Q-values for every action
    /// that exists in both devices' action spaces (matched by placement,
    /// precision and *relative* DVFS position), leaving the rest at their
    /// random initialization. This reproduces the Fig. 14 transfer from
    /// the Mi8Pro to the Galaxy S10e / Moto X Force.
    pub fn transfer_by_action(&mut self, donor: &AutoScaleEngine) {
        // Matched columns are written straight into this engine's table —
        // no clone of the (states × actions) value array. The recipient's
        // update counter and exploration policy are untouched: a transfer
        // injects knowledge, it does not reset the agent's history.
        let donor_q = donor.agent.store();
        for a in 0..self.actions.len() {
            let request = self.actions.request(a);
            let donor_a = match donor.match_action(&request, &self.actions) {
                Some(idx) => idx,
                None => continue,
            };
            for s in 0..self.states.len() {
                let v = donor_q.get(s, donor_a);
                self.agent.store_mut().set(s, a, v);
            }
        }
    }

    /// Finds the donor-side action corresponding to `request` from a
    /// recipient action space: exact placement and precision, nearest
    /// relative DVFS position.
    fn match_action(&self, request: &Request, recipient_actions: &ActionSpace) -> Option<usize> {
        // Relative DVFS position of the request on the recipient device.
        let rel = relative_freq(request, recipient_actions);
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in self.actions.actions().iter().enumerate() {
            if cand.placement != request.placement || cand.precision != request.precision {
                continue;
            }
            let cand_rel = relative_freq(cand, &self.actions);
            let dist = (cand_rel - rel).abs();
            if best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// The relative DVFS position of a request within its placement's step
/// range in an action space, in [0, 1].
fn relative_freq(request: &Request, space: &ActionSpace) -> f64 {
    let max_index = space
        .actions()
        .iter()
        .filter(|r| r.placement == request.placement && r.precision == request.precision)
        .map(|r| r.freq_index)
        .max()
        .unwrap_or(0);
    if max_index == 0 {
        1.0
    } else {
        request.freq_index as f64 / max_index as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use autoscale_platform::DeviceId;
    use autoscale_sim::{Environment, EnvironmentId};

    fn trained_engine(sim: &Simulator, workload: Workload, runs: usize) -> AutoScaleEngine {
        let mut engine = AutoScaleEngine::new(sim, EngineConfig::paper());
        let mut rng = seeded_rng(42);
        let mut env = Environment::for_id(EnvironmentId::S1);
        for _ in 0..runs {
            let snapshot = env.sample(&mut rng);
            let step = engine
                .decide(workload, &snapshot, &mut rng)
                .expect("feasible");
            let outcome = sim
                .execute_measured(workload, &step.request, &snapshot, &mut rng)
                .expect("feasible");
            engine.learn(sim, workload, step, &outcome, &snapshot);
        }
        engine
    }

    #[test]
    fn engine_learns_to_beat_the_cpu_baseline() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::InceptionV1, 150);
        let snapshot = Snapshot::calm();
        let step = engine
            .decide_greedy(Workload::InceptionV1, &snapshot)
            .expect("feasible");
        let chosen = sim
            .execute_expected(Workload::InceptionV1, &step.request, &snapshot)
            .unwrap();
        let baseline_req = autoscale_sim::Request::at_max_frequency(
            &sim,
            autoscale_sim::Placement::OnDevice(autoscale_platform::ProcessorKind::Cpu),
            autoscale_nn::Precision::Fp32,
        );
        let baseline = sim
            .execute_expected(Workload::InceptionV1, &baseline_req, &snapshot)
            .unwrap();
        assert!(
            chosen.energy_mj < baseline.energy_mj / 2.0,
            "chosen {} mJ vs baseline {} mJ",
            chosen.energy_mj,
            baseline.energy_mj
        );
    }

    #[test]
    fn decisions_respect_the_feasibility_mask() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(3);
        for _ in 0..50 {
            let step = engine
                .decide(Workload::MobileBert, &Snapshot::calm(), &mut rng)
                .expect("feasible");
            assert!(
                sim.is_feasible(Workload::MobileBert, &step.request),
                "{}",
                step.request
            );
        }
    }

    #[test]
    fn learn_returns_the_reward_and_counts_updates() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(5);
        let snapshot = Snapshot::calm();
        let step = engine
            .decide(Workload::MobileNetV1, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
            .unwrap();
        let r = engine.learn(&sim, Workload::MobileNetV1, step, &outcome, &snapshot);
        assert!(r.is_finite());
        assert_eq!(engine.agent().updates(), 1);
    }

    #[test]
    fn same_shape_transfer_copies_knowledge() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&sim, Workload::InceptionV1, 150);
        let mut fresh = AutoScaleEngine::new(&sim, EngineConfig::paper());
        fresh.transfer_from(&donor).unwrap();
        let snapshot = Snapshot::calm();
        assert_eq!(
            fresh
                .decide_greedy(Workload::InceptionV1, &snapshot)
                .expect("feasible")
                .action_index,
            donor
                .decide_greedy(Workload::InceptionV1, &snapshot)
                .expect("feasible")
                .action_index
        );
    }

    #[test]
    fn cross_device_transfer_carries_the_energy_trend() {
        // Train on the Mi8Pro, transfer to the Moto X Force: the
        // transferred engine's greedy decision should already be
        // competitive (well below the CPU FP32 baseline's energy).
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&mi8, Workload::InceptionV1, 200);
        let moto = Simulator::new(DeviceId::MotoXForce);
        let mut recipient = AutoScaleEngine::new(&moto, EngineConfig::paper());
        donor_into(&donor, &mut recipient);
        let snapshot = Snapshot::calm();
        let step = recipient
            .decide_greedy(Workload::InceptionV1, &snapshot)
            .expect("feasible");
        let chosen = moto
            .execute_expected(Workload::InceptionV1, &step.request, &snapshot)
            .unwrap();
        let baseline_req = autoscale_sim::Request::at_max_frequency(
            &moto,
            autoscale_sim::Placement::OnDevice(autoscale_platform::ProcessorKind::Cpu),
            autoscale_nn::Precision::Fp32,
        );
        let baseline = moto
            .execute_expected(Workload::InceptionV1, &baseline_req, &snapshot)
            .unwrap();
        assert!(
            chosen.energy_mj < baseline.energy_mj,
            "transfer should carry the trend"
        );
    }

    fn donor_into(donor: &AutoScaleEngine, recipient: &mut AutoScaleEngine) {
        recipient.transfer_by_action(donor);
    }

    #[test]
    fn with_agent_accepts_matching_and_rejects_foreign_tables() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&sim, Workload::MobileNetV1, 80);
        let restored =
            AutoScaleEngine::with_agent(&sim, EngineConfig::paper(), donor.agent().clone())
                .expect("same testbed, same shape");
        let snapshot = Snapshot::calm();
        assert_eq!(
            restored
                .decide_greedy(Workload::MobileNetV1, &snapshot)
                .expect("feasible")
                .action_index,
            donor
                .decide_greedy(Workload::MobileNetV1, &snapshot)
                .expect("feasible")
                .action_index
        );
        // A Moto-shaped table (47 actions) must be rejected on the Mi8Pro.
        let moto = Simulator::new(DeviceId::MotoXForce);
        let foreign = AutoScaleEngine::new(&moto, EngineConfig::paper());
        assert!(
            AutoScaleEngine::with_agent(&sim, EngineConfig::paper(), foreign.agent().clone())
                .is_err()
        );
    }

    #[test]
    fn estimated_energy_reward_stays_close_to_measured_reward() {
        // With the estimator on (default), the reward the engine learns
        // from tracks the measured-energy reward within the estimator's
        // single-digit MAPE.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut with_est = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut without = AutoScaleEngine::new(
            &sim,
            EngineConfig {
                estimate_energy: false,
                ..EngineConfig::paper()
            },
        );
        let mut rng = seeded_rng(33);
        let snapshot = Snapshot::calm();
        let step = with_est
            .decide(Workload::MobileNetV1, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
            .expect("feasible");
        let r_est = with_est.learn(&sim, Workload::MobileNetV1, step, &outcome, &snapshot);
        let r_meas = without.learn(&sim, Workload::MobileNetV1, step, &outcome, &snapshot);
        assert!(
            (r_est - r_meas).abs() / r_meas.abs() < 0.25,
            "estimated-reward {r_est} vs measured-reward {r_meas}"
        );
    }

    #[test]
    fn scenario_selection_follows_config() {
        let cfg = EngineConfig::paper();
        assert_eq!(
            cfg.scenario_for(Workload::InceptionV1),
            Scenario::NonStreaming
        );
        assert_eq!(
            cfg.scenario_for(Workload::MobileBert),
            Scenario::Translation
        );
        let streaming = EngineConfig {
            streaming: true,
            ..EngineConfig::paper()
        };
        assert_eq!(
            streaming.scenario_for(Workload::InceptionV1),
            Scenario::Streaming
        );
    }

    #[test]
    fn transfer_by_action_writes_in_place_and_matches_donor_columns() {
        // The in-place transfer (no Q-table clone) must land exactly the
        // donor's matched columns in the recipient's table.
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&mi8, Workload::InceptionV1, 120);
        let moto = Simulator::new(DeviceId::MotoXForce);
        let mut recipient = AutoScaleEngine::new(&moto, EngineConfig::paper());
        let before_updates = recipient.agent().updates();
        recipient.transfer_by_action(&donor);
        assert_eq!(
            recipient.agent().updates(),
            before_updates,
            "transfer must not reset the update history"
        );
        for a in 0..recipient.actions.len() {
            let request = recipient.actions.request(a);
            let Some(donor_a) = donor.match_action(&request, &recipient.actions) else {
                continue;
            };
            for s in (0..recipient.states.len()).step_by(97) {
                assert_eq!(
                    recipient.agent().store().get(s, a),
                    donor.agent().store().get(s, donor_a),
                    "state {s} action {a}"
                );
            }
        }
    }

    #[test]
    fn eval_path_works_on_a_shared_reference() {
        // Greedy serving is &self: many readers may evaluate the same
        // engine concurrently without cloning its Q-table.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::MobileNetV2, 120);
        let reference = engine
            .decide_greedy(Workload::MobileNetV2, &Snapshot::calm())
            .expect("feasible");
        let shared = &engine;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        shared
                            .decide_greedy(Workload::MobileNetV2, &Snapshot::calm())
                            .expect("feasible")
                            .action_index
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), reference.action_index);
            }
        });
    }

    #[test]
    fn draw_protocols_are_pinned() {
        // Decision sequences and the RNG state after them for the three
        // draw protocols — exploring (`decide`, `decide_kernel`),
        // gate-draw-only (`decide_kernel_frozen`, a frozen `decide`) and
        // draw-free (`decide_greedy`) — as measured when each public
        // method still carried its own copy of the decision body.
        fn digest(
            snapshots: &[Snapshot],
            mut decide: impl FnMut(Workload, &Snapshot) -> DecisionStep,
        ) -> u64 {
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for snapshot in snapshots {
                for w in [Workload::InceptionV1, Workload::MobileBert] {
                    let step = decide(w, snapshot);
                    for word in [step.state_index as u64, step.action_index as u64] {
                        for byte in word.to_le_bytes() {
                            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
            hash
        }
        use rand::Rng;
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut engine = trained_engine(&sim, Workload::InceptionV1, 60);
        let mut env = Environment::for_id(EnvironmentId::D2);
        let mut env_rng = seeded_rng(11);
        let snapshots: Vec<Snapshot> = (0..200).map(|_| env.sample(&mut env_rng)).collect();
        const EXPLORING: (u64, u64) = (7903358732402747176, 15033668875524203852);
        const GREEDY: u64 = 15179316994668838035;
        const FROZEN: (u64, u64) = (GREEDY, 9073817963781961820);

        let mut rng = seeded_rng(99);
        let d = digest(&snapshots, |w, s| engine.decide(w, s, &mut rng).unwrap());
        assert_eq!((d, rng.gen::<u64>()), EXPLORING, "decide");
        let mut rng = seeded_rng(99);
        let d = digest(&snapshots, |w, s| {
            engine.decide_kernel(&ScalarKernel, w, s, &mut rng).unwrap()
        });
        assert_eq!((d, rng.gen::<u64>()), EXPLORING, "decide_kernel");
        let mut rng = seeded_rng(99);
        let d = digest(&snapshots, |w, s| {
            engine
                .decide_kernel_frozen(&ScalarKernel, w, s, &mut rng)
                .unwrap()
        });
        assert_eq!((d, rng.gen::<u64>()), FROZEN, "decide_kernel_frozen");
        let d = digest(&snapshots, |w, s| engine.decide_greedy(w, s).unwrap());
        assert_eq!(d, GREEDY, "decide_greedy");
        engine.freeze();
        let mut rng = seeded_rng(99);
        let d = digest(&snapshots, |w, s| engine.decide(w, s, &mut rng).unwrap());
        assert_eq!((d, rng.gen::<u64>()), FROZEN, "frozen decide");
    }

    #[test]
    fn decision_states_match_encode_observation() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut env = Environment::for_id(EnvironmentId::S4);
        let mut rng = seeded_rng(8);
        for _ in 0..10 {
            let snapshot = env.sample(&mut rng);
            for w in Workload::ALL {
                assert_eq!(
                    engine
                        .decide_greedy(w, &snapshot)
                        .expect("feasible")
                        .state_index,
                    engine
                        .states()
                        .encode_observation(sim.network(w), &snapshot),
                    "{w}"
                );
            }
        }
    }

    #[test]
    fn precomputed_masks_match_the_action_space() {
        use autoscale_nn::{LayerKind, Network, Precision};
        use autoscale_platform::{Device, ProcessorKind};
        use autoscale_sim::{Placement, Request};

        let mut testbeds: Vec<Simulator> = DeviceId::PHONES.map(Simulator::new).into();
        testbeds.push(Simulator::with_devices(
            Device::mi8pro_npu(),
            Device::galaxy_tab_s6(),
            Device::cloud_server_tpu(),
        ));
        // Every placement at every precision, so the oracle also sees
        // processors a device lacks (the action space never lists them).
        let sites = [
            Placement::OnDevice as fn(ProcessorKind) -> Placement,
            Placement::ConnectedEdge,
            Placement::Cloud,
        ];
        let probes: Vec<Request> = sites
            .iter()
            .flat_map(|site| ProcessorKind::ALL.map(site))
            .flat_map(|placement| {
                Precision::ALL.map(|precision| Request {
                    placement,
                    precision,
                    freq_index: 0,
                })
            })
            .collect();
        for sim in &testbeds {
            let engine = AutoScaleEngine::new(sim, EngineConfig::paper());
            for w in Workload::ALL {
                // The simulator's per-workload facts sit at the right index.
                assert_eq!(sim.network(w), &Network::workload(w), "{w}");
                // Feasibility straight from the device and layer data.
                let recurrent = sim
                    .network(w)
                    .layers()
                    .iter()
                    .any(|layer| layer.kind == LayerKind::Rc);
                let oracle = |r: &Request| {
                    sim.device_for(r.placement)
                        .processor(r.placement.processor_kind())
                        .is_some_and(|p| {
                            p.supports_precision(r.precision) && (!recurrent || p.runs_recurrent())
                        })
                };
                for r in engine.actions().actions().iter().chain(&probes) {
                    assert_eq!(sim.is_feasible(w, r), oracle(r), "{w} {r:?}");
                }
                let expected: Vec<bool> = engine.actions().actions().iter().map(oracle).collect();
                assert_eq!(engine.mask_for(w), expected.as_slice(), "{w}");
                assert_eq!(engine.actions().mask(sim, w), expected, "{w}");
            }
        }
    }

    #[test]
    fn convergence_is_reported_after_training() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::MobileNetV2, 150);
        assert!(engine.is_converged(), "150 calm runs should converge");
        let at = engine.convergence().converged_at().unwrap();
        assert!(at <= 120, "converged at {at}");
    }
}
