//! End-to-end experiment drivers shared by the figure binaries and the
//! integration tests: engine training (with leave-one-out
//! cross-validation, Section V-C), baseline/predictor construction, the
//! Fig. 14 training curves, and the Fig. 7 prediction-error analysis.

use autoscale_nn::Workload;
use autoscale_platform::ProcessorKind;
use autoscale_predictors::gp::RbfKernel;
use autoscale_predictors::neurosurgeon::{SplitObjective, StaticLinkProfile};
use autoscale_predictors::{GaussianProcess, Mosaic, NeuroSurgeon, StandardScaler};
use autoscale_sim::{Environment, EnvironmentId, Simulator};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::characterize::{self, Dataset, VarianceMode};
use crate::engine::{AutoScaleEngine, EngineConfig};
use crate::scheduler::{MosaicScheduler, NeuroSurgeonScheduler};
use crate::seeded_rng;

/// Trains an engine by running inference across the given workloads and
/// environments, `runs_per_pair` inferences per (workload, environment)
/// pair — the paper trains "100 times for each NN in each runtime
/// variance-related state".
pub fn train_engine(
    sim: &Simulator,
    workloads: &[Workload],
    environments: &[EnvironmentId],
    runs_per_pair: usize,
    config: EngineConfig,
    seed: u64,
) -> AutoScaleEngine {
    let mut engine = AutoScaleEngine::new(sim, config);
    let mut rng = seeded_rng(seed);
    for &workload in workloads {
        for &env_id in environments {
            let mut env = Environment::for_id(env_id);
            for _ in 0..runs_per_pair {
                let snapshot = env.sample(&mut rng);
                let step = engine
                    .decide(workload, &snapshot, &mut rng)
                    // lint:allow(panic-in-lib): training sweeps run on the paper testbeds, whose CPUs serve every workload
                    .expect("the paper testbeds always expose a feasible CPU action");
                let outcome = sim
                    .execute_measured(workload, &step.request, &snapshot, &mut rng)
                    // lint:allow(panic-in-lib): the engine only proposes mask-feasible requests
                    .expect("engine decisions are feasible");
                engine.learn(sim, workload, step, &outcome, &snapshot);
            }
        }
    }
    engine
}

/// Leave-one-out training (Section V-C): the engine is trained on every
/// workload except `held_out`, then tested on `held_out`.
pub fn train_leave_one_out(
    sim: &Simulator,
    held_out: Workload,
    environments: &[EnvironmentId],
    runs_per_pair: usize,
    config: EngineConfig,
    seed: u64,
) -> AutoScaleEngine {
    let train_set: Vec<Workload> = Workload::ALL
        .iter()
        .copied()
        .filter(|&w| w != held_out)
        .collect();
    train_engine(sim, &train_set, environments, runs_per_pair, config, seed)
}

/// The reward trace of training one (workload, environment) pair from
/// scratch or from a transferred Q-table — the Fig. 14 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingCurve {
    /// Per-inference eq. (5) rewards in training order.
    pub rewards: Vec<f64>,
    /// The inference index at which the reward converged, if it did.
    pub converged_at: Option<usize>,
}

/// Records a training curve. Pass `donor` to warm-start via cross-device
/// learning transfer before training begins.
pub fn training_curve(
    sim: &Simulator,
    workload: Workload,
    environment: EnvironmentId,
    runs: usize,
    config: EngineConfig,
    seed: u64,
    donor: Option<&AutoScaleEngine>,
) -> TrainingCurve {
    let mut engine = AutoScaleEngine::new(sim, config);
    if let Some(donor) = donor {
        engine.transfer_by_action(donor);
    }
    let mut rng = seeded_rng(seed);
    let mut env = Environment::for_id(environment);
    let mut rewards = Vec::with_capacity(runs);
    for _ in 0..runs {
        let snapshot = env.sample(&mut rng);
        let step = engine
            .decide(workload, &snapshot, &mut rng)
            // lint:allow(panic-in-lib): training sweeps run on the paper testbeds, whose CPUs serve every workload
            .expect("the paper testbeds always expose a feasible CPU action");
        let outcome = sim
            .execute_measured(workload, &step.request, &snapshot, &mut rng)
            // lint:allow(panic-in-lib): the engine only proposes mask-feasible requests
            .expect("engine decisions are feasible");
        rewards.push(engine.learn(sim, workload, step, &outcome, &snapshot));
    }
    TrainingCurve {
        rewards,
        converged_at: engine.convergence().converged_at(),
    }
}

/// Builds the NeuroSurgeon comparator: per-layer profiling on the phone
/// CPU vs the cloud GPU, energy-objective split selection.
pub fn build_neurosurgeon(sim: &Simulator, rng: &mut StdRng) -> NeuroSurgeonScheduler {
    let samples = characterize::layer_profile(sim, ProcessorKind::Cpu, rng);
    let planner = NeuroSurgeon::train(&samples, StaticLinkProfile::default())
        // lint:allow(panic-in-lib): the simulator's CPU layer profile is never degenerate
        .expect("layer profile is non-degenerate");
    NeuroSurgeonScheduler::new(planner, SplitObjective::Energy)
}

/// Builds the MOSAIC comparator: per-layer profiling on the phone CPU and
/// GPU vs the cloud GPU, constraint-aware energy-objective slicing.
pub fn build_mosaic(sim: &Simulator, qos_ms: f64, rng: &mut StdRng) -> MosaicScheduler {
    let cpu = characterize::layer_profile(sim, ProcessorKind::Cpu, rng);
    let gpu = characterize::layer_profile(sim, ProcessorKind::Gpu, rng);
    let cpu_power = sim
        .host()
        .processor(ProcessorKind::Cpu)
        // lint:allow(panic-in-lib): every Table II phone exposes a CPU
        .expect("phones have CPUs")
        .dvfs()
        .max_step()
        .busy_power_w;
    let gpu_power = sim
        .host()
        .processor(ProcessorKind::Gpu)
        // lint:allow(panic-in-lib): every Table II phone exposes a GPU
        .expect("phones have GPUs")
        .dvfs()
        .max_step()
        .busy_power_w;
    let planner = Mosaic::train(
        &[cpu, gpu],
        &[cpu_power, gpu_power],
        StaticLinkProfile::default(),
        qos_ms,
    )
    // lint:allow(panic-in-lib): the simulator's layer profiles are never degenerate
    .expect("layer profiles are non-degenerate");
    MosaicScheduler::new(planner, SplitObjective::Energy)
}

/// Mean absolute percentage error of predictions against actuals.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "MAPE needs paired values");
    assert!(!predicted.is_empty(), "MAPE needs at least one pair");
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| ((p - a) / a.abs().max(1e-9)).abs())
        .sum();
    sum / predicted.len() as f64 * 100.0
}

/// Prediction-error analysis of the Section III-C baselines (Fig. 7's
/// MAPE / misclassification numbers).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PredictorErrors {
    /// Energy-prediction MAPE of linear regression, in percent.
    pub lr_mape: f64,
    /// Energy-prediction MAPE of SVR, in percent.
    pub svr_mape: f64,
    /// Energy-prediction MAPE of the GP surrogate (BO), in percent.
    pub bo_mape: f64,
    /// Misclassification ratio of the SVM, in percent.
    pub svm_misclassification: f64,
    /// Misclassification ratio of k-NN, in percent.
    pub knn_misclassification: f64,
}

/// Trains every predictive baseline on one dataset and scores it on a
/// fresh dataset drawn under the same variance mode.
pub fn predictor_errors(
    sim: &Simulator,
    config: EngineConfig,
    mode: VarianceMode,
    seed: u64,
) -> PredictorErrors {
    let mut rng = seeded_rng(seed);
    let snapshots = match mode {
        VarianceMode::Calm => 2,
        VarianceMode::Stochastic => 4,
    };
    let train = characterize::collect(sim, &Workload::ALL, mode, snapshots, &mut rng);
    let test = characterize::collect(sim, &Workload::ALL, mode, 2, &mut rng);

    // Regression MAPE on energy. Models fit in log space (energies span
    // three orders of magnitude); MAPE is evaluated in the raw scale.
    let scaler = StandardScaler::fit(&train.xs());
    let train_xs = scaler.transform_all(&train.xs());
    let test_xs = scaler.transform_all(&test.xs());
    let lr = autoscale_predictors::LinearRegression::fit(&train_xs, &train.log_energies(), 1e-6)
        // lint:allow(panic-in-lib): the characterization dataset is non-empty and well-formed by construction
        .expect("dataset is valid");
    let svr = autoscale_predictors::SupportVectorRegression::fit(
        &train_xs,
        &train.log_energies(),
        autoscale_predictors::svr::SvrConfig {
            epsilon: 0.05,
            lambda: 1e-5,
            epochs: 400,
        },
    )
    // lint:allow(panic-in-lib): the characterization dataset is non-empty and well-formed by construction
    .expect("dataset is valid");
    let actual = test.energies();
    let lr_pred: Vec<f64> = test_xs.iter().map(|x| lr.predict(x).exp()).collect();
    let svr_pred: Vec<f64> = test_xs.iter().map(|x| svr.predict(x).exp()).collect();

    // GP (the BO surrogate) on a subsample — exact GPs are cubic in n.
    let stride = (train_xs.len() / 250).max(1);
    let gp_xs: Vec<Vec<f64>> = train_xs.iter().step_by(stride).cloned().collect();
    let gp_ys: Vec<f64> = train
        .log_energies()
        .iter()
        .step_by(stride)
        .copied()
        .collect();
    let gp = GaussianProcess::fit(
        &gp_xs,
        &gp_ys,
        RbfKernel {
            length_scale: 3.0,
            signal_variance: 1.0,
            noise_variance: 1e-2,
        },
    )
    // lint:allow(panic-in-lib): the subsampled dataset inherits the full dataset's validity
    .expect("subsampled dataset is valid");
    let gp_pred: Vec<f64> = test_xs.iter().map(|x| gp.predict_mean(x).exp()).collect();

    // Classifier misclassification against measured-optimal labels.
    let reward_for = move |w: Workload| config.reward_for(w);
    let (train_cx, train_cy) = train.classification_set(sim, reward_for);
    let (test_cx, test_cy) = test.classification_set(sim, reward_for);
    let cscaler = StandardScaler::fit(&train_cx);
    let train_cx = cscaler.transform_all(&train_cx);
    let test_cx = cscaler.transform_all(&test_cx);
    let svm = autoscale_predictors::SvmClassifier::fit_default(&train_cx, &train_cy)
        // lint:allow(panic-in-lib): classification labels come from the dataset builder and are valid
        .expect("labels are valid");
    let knn = autoscale_predictors::KnnClassifier::fit(&train_cx, &train_cy, 5)
        // lint:allow(panic-in-lib): classification labels come from the dataset builder and are valid
        .expect("labels are valid");
    let misclass = |preds: Vec<usize>| {
        preds.iter().zip(&test_cy).filter(|(p, a)| p != a).count() as f64 / test_cy.len() as f64
            * 100.0
    };
    let svm_misclassification = misclass(test_cx.iter().map(|x| svm.predict(x)).collect());
    let knn_misclassification = misclass(test_cx.iter().map(|x| knn.predict(x)).collect());

    PredictorErrors {
        lr_mape: mape(&lr_pred, &actual),
        svr_mape: mape(&svr_pred, &actual),
        bo_mape: mape(&gp_pred, &actual),
        svm_misclassification,
        knn_misclassification,
    }
}

/// Convenience: a characterization dataset suitable for training the
/// predictor schedulers for the Fig. 7 / Fig. 9 comparisons.
pub fn characterization_dataset(sim: &Simulator, mode: VarianceMode, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    characterize::collect(sim, &Workload::ALL, mode, 3, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_platform::DeviceId;

    #[test]
    fn mape_is_zero_for_perfect_predictions() {
        assert_eq!(mape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mape(&[1.1], &[1.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn leave_one_out_excludes_the_held_out_workload() {
        // Indirect check: training must still work and produce a usable
        // engine for the held-out NN (generalization via shared states).
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = train_leave_one_out(
            &sim,
            Workload::MobileNetV3,
            &[EnvironmentId::S1],
            10,
            EngineConfig::paper(),
            1,
        );
        let step = engine
            .decide_greedy(Workload::MobileNetV3, &autoscale_sim::Snapshot::calm())
            .expect("feasible");
        assert!(sim.is_feasible(Workload::MobileNetV3, &step.request));
    }

    #[test]
    fn training_curve_records_every_reward() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let curve = training_curve(
            &sim,
            Workload::MobileNetV1,
            EnvironmentId::S1,
            60,
            EngineConfig::paper(),
            2,
            None,
        );
        assert_eq!(curve.rewards.len(), 60);
    }

    #[test]
    fn transfer_converges_no_slower_than_scratch() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let donor = train_engine(
            &sim,
            &[Workload::InceptionV1, Workload::MobileNetV1],
            &[EnvironmentId::S1],
            60,
            EngineConfig::paper(),
            3,
        );
        let scratch = training_curve(
            &sim,
            Workload::MobileNetV2,
            EnvironmentId::S1,
            120,
            EngineConfig::paper(),
            4,
            None,
        );
        let transferred = training_curve(
            &sim,
            Workload::MobileNetV2,
            EnvironmentId::S1,
            120,
            EngineConfig::paper(),
            4,
            Some(&donor),
        );
        let s = scratch.converged_at.unwrap_or(usize::MAX);
        let t = transferred.converged_at.unwrap_or(usize::MAX);
        assert!(t <= s, "transfer {t} vs scratch {s}");
    }

    #[test]
    fn prior_work_builders_produce_schedulers() {
        use crate::scheduler::{Decision, Scheduler};
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(5);
        let mut ns = build_neurosurgeon(&sim, &mut rng);
        let mut mosaic = build_mosaic(&sim, 50.0, &mut rng);
        for w in [Workload::InceptionV1, Workload::MobileBert] {
            for d in [
                ns.decide(&sim, w, &autoscale_sim::Snapshot::calm(), &mut rng),
                mosaic.decide(&sim, w, &autoscale_sim::Snapshot::calm(), &mut rng),
            ] {
                match d {
                    Decision::Partitioned { split, local } => {
                        assert!(split <= sim.network(w).layers().len());
                        if w == Workload::MobileBert {
                            assert_eq!(local, ProcessorKind::Cpu);
                        }
                    }
                    _ => panic!("prior work partitions"),
                }
            }
        }
    }
}
