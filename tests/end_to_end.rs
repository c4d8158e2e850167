//! Cross-crate end-to-end tests: the full observe→decide→execute→learn
//! loop, serde persistence of trained agents, and the predictor pipeline.

use autoscale::characterize::{self, VarianceMode};
use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::Scheduler;

#[test]
fn full_loop_trains_and_serves_every_workload_on_every_phone() {
    let config = EngineConfig::paper();
    for device in DeviceId::PHONES {
        let sim = Simulator::new(device);
        let mut engine = AutoScaleEngine::new(&sim, config);
        let mut rng = autoscale::seeded_rng(1);
        let mut env = Environment::for_id(EnvironmentId::S1);
        for w in Workload::ALL {
            for _ in 0..5 {
                let snapshot = env.sample(&mut rng);
                let step = engine.decide(w, &snapshot, &mut rng).expect("feasible");
                let outcome = sim
                    .execute_measured(w, &step.request, &snapshot, &mut rng)
                    .expect("engine decisions are feasible");
                let r = engine.learn(&sim, w, step, &outcome, &snapshot);
                assert!(r.is_finite());
            }
            // Greedy serving must produce a feasible request.
            let step = engine
                .decide_greedy(w, &Snapshot::calm())
                .expect("feasible");
            assert!(sim.is_feasible(w, &step.request), "{device:?} {w}");
        }
        assert_eq!(engine.agent().updates(), Workload::ALL.len() as u64 * 5);
    }
}

#[test]
fn trained_agent_round_trips_through_serde() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let engine = experiment::train_engine(
        &sim,
        &[Workload::InceptionV1],
        &[EnvironmentId::S1],
        80,
        config,
        2,
    );
    let json = serde_json::to_string(engine.agent()).expect("agents serialize");
    let restored: autoscale_rl::QLearningAgent =
        serde_json::from_str(&json).expect("agents deserialize");
    assert_eq!(restored.store(), engine.agent().store());
    // The restored table drives the same greedy decision.
    let fresh = AutoScaleEngine::new(&sim, config);
    let mut warm = fresh.clone();
    warm.transfer_from(&engine).expect("same shape");
    let snapshot = Snapshot::calm();
    assert_eq!(
        warm.decide_greedy(Workload::InceptionV1, &snapshot)
            .expect("feasible")
            .action_index,
        engine
            .decide_greedy(Workload::InceptionV1, &snapshot)
            .expect("feasible")
            .action_index
    );
}

#[test]
fn predictor_pipeline_trains_and_schedules() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mut rng = autoscale::seeded_rng(3);
    let dataset = characterize::collect(
        &sim,
        &[
            Workload::MobileNetV1,
            Workload::ResNet50,
            Workload::MobileBert,
        ],
        VarianceMode::Stochastic,
        3,
        &mut rng,
    );
    let reward_for = move |w: Workload| config.reward_for(w);
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(characterize::train_lr_scheduler(&sim, &dataset, reward_for)),
        Box::new(characterize::train_svr_scheduler(
            &sim, &dataset, reward_for,
        )),
        Box::new(characterize::train_svm_scheduler(
            &sim, &dataset, reward_for,
        )),
        Box::new(characterize::train_knn_scheduler(
            &sim, &dataset, reward_for,
        )),
    ];
    let ev = Evaluator::new(sim, config);
    let mut rng2 = autoscale::seeded_rng(4);
    for s in schedulers.iter_mut() {
        for w in [Workload::MobileNetV1, Workload::MobileBert] {
            let rep = ev.run(s.as_mut(), w, EnvironmentId::S1, 0, 10, None, &mut rng2);
            assert!(
                rep.mean_energy_mj > 0.0,
                "{} produced no outcome",
                rep.scheduler
            );
        }
    }
}

#[test]
fn prior_work_schedulers_execute_partitioned_decisions() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::GalaxyS10e);
    let ev = Evaluator::new(sim, config);
    let mut rng = autoscale::seeded_rng(5);
    let mut ns = experiment::build_neurosurgeon(ev.sim(), &mut rng);
    let mut mosaic = experiment::build_mosaic(ev.sim(), 50.0, &mut rng);
    for w in [Workload::InceptionV3, Workload::MobileBert] {
        for s in [
            &mut ns as &mut dyn Scheduler,
            &mut mosaic as &mut dyn Scheduler,
        ] {
            let rep = ev.run(s, w, EnvironmentId::S1, 0, 10, None, &mut rng);
            assert!(rep.mean_latency_ms > 0.0);
            assert!(rep.mean_energy_mj > 0.0);
        }
    }
}

#[test]
fn dynamic_environments_are_harder_than_static_for_fixed_baselines() {
    // The Cloud baseline suffers when the signal wanders (D3) relative to
    // a fixed strong signal (S1).
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let mut cloud =
        autoscale::scheduler::FixedScheduler::cloud(ev.sim(), move |w| config.reward_for(w));
    let mut rng = autoscale::seeded_rng(6);
    let calm = ev.run(
        &mut cloud,
        Workload::ResNet50,
        EnvironmentId::S1,
        0,
        60,
        None,
        &mut rng,
    );
    let wandering = ev.run(
        &mut cloud,
        Workload::ResNet50,
        EnvironmentId::D3,
        0,
        60,
        None,
        &mut rng,
    );
    assert!(wandering.mean_efficiency_ipj < calm.mean_efficiency_ipj);
    assert!(wandering.qos_violation_ratio >= calm.qos_violation_ratio);
}

#[test]
fn engine_adapts_across_environment_shifts() {
    // Train in calm conditions, then move to a weak-Wi-Fi world: the
    // engine's online learning re-routes within the warm-up budget.
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let engine = experiment::train_engine(
        &sim,
        &[Workload::ResNet50],
        &[EnvironmentId::S1],
        80,
        config,
        7,
    );
    let ev = Evaluator::new(sim, config);
    let mut sched = autoscale::scheduler::AutoScaleScheduler::new(engine, false);
    let mut rng = autoscale::seeded_rng(8);
    let rep = ev.run(
        &mut sched,
        Workload::ResNet50,
        EnvironmentId::S4,
        120,
        60,
        None,
        &mut rng,
    );
    // Under weak Wi-Fi a cloud-bound policy would blow the 50 ms budget on
    // every frame; an adapted policy stays largely within it.
    assert!(
        rep.qos_violation_ratio < 0.3,
        "failed to adapt: {:.0}% violations",
        rep.qos_violation_ratio * 100.0
    );
    assert!(
        rep.placement_shares[2] < 0.5,
        "still mostly cloud under weak Wi-Fi"
    );
}
