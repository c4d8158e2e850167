//! The three workloads, each one fixed batch of work handed to
//! `serve()` in one call.

use std::time::Instant;

use autoscale::experiment::train_engine;
use autoscale::serve::{AdmissionPolicy, OpenLoopConfig, ScenarioMix, ServeConfig, ServeReport};
use autoscale::EngineConfig;
use autoscale_nn::Workload as Model;
use autoscale_platform::DeviceId;
use autoscale_rl::{QLearningAgent, QStoreKind};
use autoscale_sim::{ArrivalProcess, ChurnConfig, EnvironmentId, FaultProfile, Simulator};

/// A workload's name, as `--workload` takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Long closed-loop sessions: per-decision stages dominate.
    Steady,
    /// Many short closed-loop sessions: session setup dominates.
    Short,
    /// Open-loop traffic with churn, faults and a warm cow fleet.
    Openloop,
}

impl Name {
    /// Every workload, in report order.
    pub const ALL: [Name; 3] = [Name::Steady, Name::Short, Name::Openloop];

    /// Resolves a `--workload` value.
    pub fn parse(name: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == name)
    }

    /// The workload's name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Steady => "steady",
            Name::Short => "short",
            Name::Openloop => "openloop",
        }
    }
}

/// How big a run is: the benchmark's sizes, or a tiny fleet of the same
/// shape for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few sessions of the same shape.
    Tiny,
}

/// One workload: the scenario mix, the `serve()` configuration and the
/// warm start it needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its name.
    pub name: Name,
    /// The size it runs at.
    pub size: Size,
    /// The (model, environment) pairs sessions are assigned from.
    pub mix: ScenarioMix,
    /// The configuration handed to `serve()`.
    pub config: ServeConfig,
    /// Inferences per (model, environment) pair that warm-start training
    /// runs; `None` for a cold fleet.
    pub warm_runs_per_pair: Option<usize>,
}

/// What set-up builds: the simulator and the warm-start agent.
pub struct Setup {
    /// The Mi8Pro testbed every session shares.
    pub sim: Simulator,
    /// The trained warm-start agent, for a warm fleet.
    pub warm: Option<QLearningAgent>,
    /// Seconds the warm-start training took (zero for a cold fleet).
    pub train_s: f64,
}

/// Mean arrival rate per open-loop session, requests per second.
const OPEN_RATE_HZ: f64 = 40.0;

impl Workload {
    /// The workload `name` under workload seed `seed`.
    pub fn new(name: Name, seed: u64, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        let mix = ScenarioMix::all_envs();
        let pairs = mix.len();
        match name {
            Name::Steady => Workload {
                name,
                size,
                mix,
                config: ServeConfig {
                    sessions: if tiny { 12 } else { pairs },
                    decisions_per_session: if tiny { 1_500 } else { 20_000 },
                    base_seed: seed,
                    ..ServeConfig::fleet()
                },
                warm_runs_per_pair: None,
            },
            Name::Short => Workload {
                name,
                size,
                mix,
                config: ServeConfig {
                    sessions: if tiny { 2 * pairs } else { 40 * pairs },
                    decisions_per_session: 40,
                    base_seed: seed,
                    ..ServeConfig::fleet()
                },
                warm_runs_per_pair: None,
            },
            Name::Openloop => {
                let horizon_ms = if tiny { 5_000.0 } else { 30_000.0 };
                Workload {
                    name,
                    size,
                    mix,
                    config: ServeConfig {
                        sessions: if tiny { 12 } else { 10 * pairs },
                        base_seed: seed,
                        faults: FaultProfile::chaos(),
                        qstore: QStoreKind::Cow,
                        openloop: Some(OpenLoopConfig {
                            arrivals: ArrivalProcess::diurnal(OPEN_RATE_HZ),
                            churn: ChurnConfig::gentle(horizon_ms),
                            horizon_ms,
                            queue_capacity: 16,
                            admission: AdmissionPolicy::Degrade,
                        }),
                        ..ServeConfig::fleet()
                    },
                    warm_runs_per_pair: Some(if tiny { 10 } else { 100 }),
                }
            }
        }
    }

    /// Seconds an untraced run spends on set-ups after it measures, so
    /// that the set-up median spans more than a moment of the machine's
    /// speed.
    pub fn setup_seconds(&self) -> f64 {
        match self.size {
            Size::Full => 3.0,
            Size::Tiny => 0.0,
        }
    }

    /// Seconds the traced run spends alternating untraced `serve()` and
    /// traced replay, so the fastest of each is a floor the rest of the
    /// machine did not slow.
    pub fn trace_seconds(&self) -> f64 {
        match self.size {
            Size::Full => 20.0,
            Size::Tiny => 0.0,
        }
    }

    /// Builds the simulator and trains the warm start, under the
    /// workload seed.
    pub fn build(&self) -> Setup {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let started = Instant::now();
        let warm = self.warm_runs_per_pair.map(|runs| {
            train_engine(
                &sim,
                &Model::ALL,
                &EnvironmentId::ALL,
                runs,
                EngineConfig::paper(),
                self.config.base_seed,
            )
            .agent()
            .clone()
        });
        let train_s = if warm.is_some() {
            started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        Setup { sim, warm, train_s }
    }

    /// The same fleet at one closed-loop decision per session: the
    /// session set-up cost `serve()` pays before steady serving.
    pub fn setup_config(&self) -> ServeConfig {
        ServeConfig {
            decisions_per_session: 1,
            openloop: None,
            ..self.config
        }
    }

    /// Units of work one `serve()` call is asked for: decisions in a
    /// closed loop, offered arrivals in an open one.
    pub fn attempted(&self, report: &ServeReport) -> usize {
        match &report.traffic {
            Some(traffic) => traffic.offered,
            None => self.config.sessions * self.config.decisions_per_session,
        }
    }

    /// Checks one `serve()` result: every session present and in order,
    /// every closed-loop decision served, and the open-loop counters
    /// conserved within the queue bound.
    ///
    /// # Errors
    ///
    /// What does not hold.
    pub fn check(&self, config: &ServeConfig, report: &ServeReport) -> Result<(), String> {
        if report.sessions.len() != config.sessions {
            return Err(format!(
                "{} sessions reported, {} asked for",
                report.sessions.len(),
                config.sessions
            ));
        }
        if let Some(s) = report
            .sessions
            .iter()
            .enumerate()
            .find(|(i, s)| s.session != *i)
        {
            return Err(format!("session {} reported out of order", s.1.session));
        }
        match (&config.openloop, &report.traffic) {
            (None, None) => {
                let expected = config.sessions * config.decisions_per_session;
                if report.total_decisions() != expected {
                    return Err(format!(
                        "{} decisions served, {expected} asked for",
                        report.total_decisions()
                    ));
                }
            }
            (Some(open), Some(traffic)) => {
                if traffic.offered != traffic.served + traffic.dropped {
                    return Err(format!(
                        "offered {} != served {} + dropped {}",
                        traffic.offered, traffic.served, traffic.dropped
                    ));
                }
                if traffic.peak_queue_depth > open.capacity() {
                    return Err(format!(
                        "queue depth {} exceeds the bound {}",
                        traffic.peak_queue_depth,
                        open.capacity()
                    ));
                }
                let offered: usize = report.sessions.iter().map(|s| s.offered_requests).sum();
                if offered != traffic.offered || report.total_decisions() != traffic.served {
                    return Err("session and fleet traffic disagree".to_string());
                }
            }
            _ => return Err("traffic accounting does not match the loop kind".to_string()),
        }
        Ok(())
    }
}
