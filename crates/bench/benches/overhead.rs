//! Criterion benches for the paper's Section VI-C overhead analysis:
//! the serving decision (Q-table lookup), the training step (decision +
//! reward + Q update), and state encoding.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use autoscale::prelude::*;

fn warmed_engine(sim: &Simulator) -> AutoScaleEngine {
    let mut engine = AutoScaleEngine::new(sim, EngineConfig::paper());
    let mut rng = autoscale::seeded_rng(1);
    let snapshot = Snapshot::calm();
    for _ in 0..200 {
        let step = engine
            .decide(Workload::MobileNetV3, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(Workload::MobileNetV3, &step.request, &snapshot, &mut rng)
            .expect("feasible");
        engine.learn(sim, Workload::MobileNetV3, step, &outcome, &snapshot);
    }
    engine
}

fn bench_overhead(c: &mut Criterion) {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let engine = warmed_engine(&sim);
    let snapshot = Snapshot::calm();

    c.bench_function("serving_decision", |b| {
        b.iter(|| {
            engine
                .decide_greedy(black_box(Workload::MobileNetV3), &snapshot)
                .expect("feasible")
        })
    });

    c.bench_function("state_encode", |b| {
        let states = StateSpace::paper();
        let net = sim.network(Workload::MobileNetV3);
        b.iter(|| states.encode_observation(black_box(net), &snapshot))
    });

    c.bench_function("training_step", |b| {
        let mut engine = warmed_engine(&sim);
        let mut rng = autoscale::seeded_rng(2);
        let outcome = sim
            .execute_expected(
                Workload::MobileNetV3,
                &engine
                    .decide_greedy(Workload::MobileNetV3, &snapshot)
                    .expect("feasible")
                    .request,
                &snapshot,
            )
            .expect("feasible");
        b.iter(|| {
            let step = engine
                .decide(Workload::MobileNetV3, &snapshot, &mut rng)
                .expect("feasible");
            engine.learn(
                &sim,
                Workload::MobileNetV3,
                step,
                black_box(&outcome),
                &snapshot,
            )
        })
    });

    c.bench_function("linear_fa_decision", |b| {
        // The function-approximation alternative: one dot product per
        // action per decision instead of a table read.
        use autoscale::scheduler::{LinearFaScheduler, Scheduler};
        let config = EngineConfig::paper();
        let mut fa = LinearFaScheduler::new(&sim, false, move |w| config.reward_for(w));
        let mut rng = autoscale::seeded_rng(5);
        b.iter(|| fa.decide(&sim, black_box(Workload::MobileNetV3), &snapshot, &mut rng))
    });

    c.bench_function("oracle_decision", |b| {
        // The exhaustive alternative AutoScale avoids: evaluate all ~66
        // actions through the full cost model.
        let config = EngineConfig::paper();
        let oracle =
            autoscale::scheduler::OracleScheduler::new(&sim, move |w| config.reward_for(w));
        b.iter(|| oracle.optimal_request(&sim, black_box(Workload::MobileNetV3), &snapshot))
    });
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
