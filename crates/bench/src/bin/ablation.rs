//! Ablation studies for the design choices called out in DESIGN.md:
//! hyperparameters (the paper's Section V-C sensitivity test), the
//! state-feature ablation (Section IV-A: removing any one state degrades
//! accuracy), and the reward's accuracy guard.
//!
//! The configuration sweeps run on the deterministic parallel harness,
//! one cell per configuration, with printing deferred to the main thread
//! so output is bit-identical for any `--threads` value. The
//! tabular-vs-linear-FA comparison stays serial: the FA agent learns
//! online across its whole evaluation schedule, a single sequential
//! chain.

use autoscale::experiment;
use autoscale::parallel::{run_cells, threads_from_args};
use autoscale::prelude::*;
use autoscale::scheduler::AutoScaleScheduler;
use autoscale_bench::{build_baseline, mean, reward_fn, section, RUNS, TRAIN_RUNS, WARMUP};
use autoscale_net::Rssi;
use autoscale_rl::Hyperparameters;

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    hyperparameter_sweep(threads);
    state_feature_ablation(threads);
    accuracy_guard_ablation(threads);
    tabular_vs_linear_fa();
}

/// Trains and scores one configuration: mean normalized PPW and QoS
/// violation over three representative workloads in a static+dynamic mix.
fn score(sim: &Simulator, config: EngineConfig) -> (f64, f64) {
    let ev = Evaluator::new(sim.clone(), config);
    let mut rng = autoscale::seeded_rng(90);
    let mut ppws = Vec::new();
    let mut qos = Vec::new();
    for w in [
        Workload::MobileNetV3,
        Workload::InceptionV1,
        Workload::ResNet50,
    ] {
        let engine = experiment::train_engine(
            ev.sim(),
            &Workload::ALL,
            &[EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4],
            TRAIN_RUNS,
            config,
            91,
        );
        for env in [EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4] {
            let mut base = build_baseline(
                autoscale::scheduler::SchedulerKind::EdgeCpuFp32,
                ev.sim(),
                config,
            );
            let baseline = ev.run(base.as_mut(), w, env, 0, RUNS, None, &mut rng);
            let mut sched = AutoScaleScheduler::new(engine.clone(), false);
            let rep = ev.run(&mut sched, w, env, WARMUP, RUNS, None, &mut rng);
            ppws.push(rep.normalized_ppw(&baseline));
            qos.push(rep.qos_violation_ratio);
        }
    }
    (mean(&ppws), mean(&qos) * 100.0)
}

/// Section V-C: evaluate learning rate and discount factor at 0.1/0.5/0.9.
fn hyperparameter_sweep(threads: usize) {
    section("hyperparameter sensitivity (Mi8Pro, mean PPW normalized to Edge (CPU FP32))");
    let specs: Vec<(f64, f64)> = [0.1, 0.5, 0.9]
        .iter()
        .flat_map(|&lr| [0.1, 0.5, 0.9].iter().map(move |&d| (lr, d)))
        .collect();
    let scores = run_cells(threads, 9000, &specs, |cell| {
        let (learning_rate, discount) = *cell.spec;
        let config = EngineConfig {
            hyperparameters: Hyperparameters {
                learning_rate,
                discount,
                epsilon: 0.1,
            },
            ..EngineConfig::paper()
        };
        score(&Simulator::new(DeviceId::Mi8Pro), config)
    });
    println!(
        "  {:<28} {:>10} {:>12}",
        "(learning rate, discount)", "PPW", "QoS viol."
    );
    for ((learning_rate, discount), (ppw, qos)) in specs.iter().zip(&scores) {
        println!(
            "  ({learning_rate:.1}, {discount:.1})                   {ppw:>9.2}x {qos:>10.1}%"
        );
    }
    println!("  paper's choice: learning rate 0.9, discount 0.1");
}

fn keep_all(s: &Snapshot) -> Snapshot {
    *s
}

fn blind_interference(s: &Snapshot) -> Snapshot {
    Snapshot::new(0.0, 0.0, s.wlan, s.p2p)
}

fn blind_signal(s: &Snapshot) -> Snapshot {
    Snapshot::new(s.co_cpu, s.co_mem, Rssi::STRONG, Rssi::STRONG)
}

/// Section IV-A: removing any one state feature degrades prediction
/// accuracy. We ablate the runtime-variance features by blinding the
/// engine to them (the NN features are structural and cannot be removed
/// without changing the network itself).
type StateVariant = (&'static str, fn(&Snapshot) -> Snapshot);

fn state_feature_ablation(threads: usize) {
    section("state-feature ablation (Mi8Pro, D2/D3/S4/S5 mix, prediction accuracy vs Opt)");
    let config = EngineConfig::paper();

    let variants: Vec<StateVariant> = vec![
        ("full state (none removed)", keep_all),
        ("without S_Co_CPU/S_Co_MEM", blind_interference),
        ("without S_RSSI_W/S_RSSI_P", blind_signal),
    ];
    let rows = run_cells(threads, 9100, &variants, |cell| {
        let (_, blind) = *cell.spec;
        let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
        let oracle = autoscale::scheduler::OracleScheduler::new(ev.sim(), reward_fn(config));
        let mut matches = Vec::new();
        let mut ppws = Vec::new();
        // Train the variant under its own censored view: a feature the
        // engine cannot see at serving time must not leak in training
        // either.
        let engine = train_blinded(ev.sim(), config, blind, 91);
        let mut rng = autoscale::seeded_rng(92);
        for w in [
            Workload::MobileNetV3,
            Workload::ResNet50,
            Workload::MobileBert,
        ] {
            // Interference-heavy and signal-heavy environments, so both
            // ablated feature families have something to lose.
            for env in [
                EnvironmentId::D2,
                EnvironmentId::D3,
                EnvironmentId::S4,
                EnvironmentId::S5,
            ] {
                // A blinded scheduler decides on a censored snapshot but is
                // executed (and judged) under the true one.
                let mut sched = BlindedAutoScale {
                    inner: AutoScaleScheduler::new(engine.clone(), false),
                    blind,
                };
                let mut base = build_baseline(
                    autoscale::scheduler::SchedulerKind::EdgeCpuFp32,
                    ev.sim(),
                    config,
                );
                let baseline = ev.run(base.as_mut(), w, env, 0, RUNS, None, &mut rng);
                let rep = ev.run(&mut sched, w, env, WARMUP, RUNS, Some(&oracle), &mut rng);
                matches.push(rep.oracle_match_ratio.expect("oracle enabled"));
                ppws.push(rep.normalized_ppw(&baseline));
            }
        }
        (mean(&matches), mean(&ppws))
    });
    for ((label, _), (accuracy, ppw)) in variants.iter().zip(&rows) {
        println!(
            "  {label:<28} accuracy {:>5.1}%   PPW {:>5.2}x",
            accuracy * 100.0,
            ppw
        );
    }
}

/// Section IV's design choice made measurable: the Q-table versus a
/// linear function-approximation agent over the same features. The FA
/// agent generalizes across states but approximates; the table memorizes
/// exactly. (Decision latency is compared in `benches/overhead.rs`.)
fn tabular_vs_linear_fa() {
    section("tabular Q-learning vs linear function approximation (Mi8Pro)");
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let ev = Evaluator::new(sim, config);
    let envs = [EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4];

    // Tabular: the paper's engine.
    let engine = experiment::train_engine(ev.sim(), &Workload::ALL, &envs, TRAIN_RUNS, config, 98);
    let mut tab_ppws = Vec::new();
    let mut tab_qos = Vec::new();
    let mut rng = autoscale::seeded_rng(99);
    // Linear FA: one shared agent trained over the same schedule.
    let mut fa = autoscale::scheduler::LinearFaScheduler::new(ev.sim(), true, reward_fn(config));
    for w in Workload::ALL {
        for env in envs {
            let _ = ev.run(&mut fa, w, env, 0, TRAIN_RUNS, None, &mut rng);
        }
    }
    let mut fa_ppws = Vec::new();
    let mut fa_qos = Vec::new();
    for w in Workload::ALL {
        for env in envs {
            let mut base = build_baseline(
                autoscale::scheduler::SchedulerKind::EdgeCpuFp32,
                ev.sim(),
                config,
            );
            let baseline = ev.run(base.as_mut(), w, env, 0, RUNS, None, &mut rng);
            let mut tab = AutoScaleScheduler::new(engine.clone(), false);
            let rep = ev.run(&mut tab, w, env, WARMUP, RUNS, None, &mut rng);
            tab_ppws.push(rep.normalized_ppw(&baseline));
            tab_qos.push(rep.qos_violation_ratio);
            let rep = ev.run(&mut fa, w, env, WARMUP, RUNS, None, &mut rng);
            fa_ppws.push(rep.normalized_ppw(&baseline));
            fa_qos.push(rep.qos_violation_ratio);
        }
    }
    println!(
        "  tabular Q-table:   PPW {:>5.2}x  QoS viol. {:>4.1}%  ({} KiB)",
        mean(&tab_ppws),
        mean(&tab_qos) * 100.0,
        engine.agent().store().full_bytes() / 1024
    );
    println!(
        "  linear FA agent:   PPW {:>5.2}x  QoS viol. {:>4.1}%  ({} KiB)",
        mean(&fa_ppws),
        mean(&fa_qos) * 100.0,
        fa.agent().memory_bytes().max(1024) / 1024
    );
}

/// Trains an engine whose every observation passes through the `blind`
/// censor — the training half of the state-feature ablation.
fn train_blinded(
    sim: &Simulator,
    config: EngineConfig,
    blind: fn(&Snapshot) -> Snapshot,
    seed: u64,
) -> autoscale::AutoScaleEngine {
    let mut engine = autoscale::AutoScaleEngine::new(sim, config);
    let mut rng = autoscale::seeded_rng(seed);
    for w in Workload::ALL {
        for env_id in EnvironmentId::ALL {
            let mut env = Environment::for_id(env_id);
            for _ in 0..TRAIN_RUNS {
                let snapshot = env.sample(&mut rng);
                let censored = blind(&snapshot);
                let step = engine.decide(w, &censored, &mut rng).expect("feasible");
                // The inference executes under the *true* conditions.
                let outcome = sim
                    .execute_measured(w, &step.request, &snapshot, &mut rng)
                    .expect("engine decisions are feasible");
                engine.learn(sim, w, step, &outcome, &censored);
            }
        }
    }
    engine
}

/// A scheduler wrapper that censors parts of the snapshot before the
/// engine sees it — the ablation mechanism.
struct BlindedAutoScale {
    inner: AutoScaleScheduler,
    blind: fn(&Snapshot) -> Snapshot,
}

impl autoscale::scheduler::Scheduler for BlindedAutoScale {
    fn kind(&self) -> autoscale::scheduler::SchedulerKind {
        autoscale::scheduler::SchedulerKind::AutoScale
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut rand::rngs::StdRng,
    ) -> autoscale::scheduler::Decision {
        let censored = (self.blind)(snapshot);
        self.inner.decide(sim, workload, &censored, rng)
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        decision: &autoscale::scheduler::Decision,
        outcome: &Outcome,
    ) {
        let censored = (self.blind)(snapshot);
        self.inner
            .observe(sim, workload, &censored, decision, outcome);
    }
}

/// DESIGN.md ablation: eq. (5)'s accuracy short-circuit. Without it, the
/// engine chases cheap low-precision targets below the quality bar; with
/// it, sub-target decisions are punished out of the greedy policy.
fn accuracy_guard_ablation(threads: usize) {
    section("reward accuracy-guard ablation (Mi8Pro, judged against a 65% bar)");
    // Quantization-fragile workloads: INT8 falls below 65% on all of these.
    let probes = [
        Workload::MobileNetV3,
        Workload::InceptionV1,
        Workload::MobileNetV1,
    ];

    let variants: Vec<(&str, Option<f64>)> = vec![
        ("with accuracy guard (65%)", Some(65.0)),
        ("guard removed", None),
    ];
    let counts = run_cells(threads, 9200, &variants, |cell| {
        let (_, accuracy_target) = *cell.spec;
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let calm = Snapshot::calm();
        let config = EngineConfig {
            accuracy_target,
            ..EngineConfig::paper()
        };
        // Enough runs that the optimistic sweep covers the full action
        // space and settles (66 actions on the Mi8Pro).
        let engine =
            experiment::train_engine(&sim, &Workload::ALL, &[EnvironmentId::S1], 150, config, 96);
        probes
            .iter()
            .filter(|&&w| {
                let step = engine.decide_greedy(w, &calm).expect("feasible");
                let outcome = sim
                    .execute_expected(w, &step.request, &calm)
                    .expect("feasible");
                outcome.accuracy < 65.0
            })
            .count()
    });
    for ((label, _), below) in variants.iter().zip(&counts) {
        println!(
            "  {label:<28} greedy decisions below 65% accuracy: {below}/{}",
            probes.len()
        );
    }
}
