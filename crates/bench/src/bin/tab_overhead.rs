//! Section VI-C overhead analysis: decision latency, training-step
//! latency, and Q-table memory.
//!
//! The paper reports 25.4 µs per training step, 7.3 µs per trained
//! (serving) decision, and a 0.4 MB Q-table. The Criterion benches in
//! `benches/overhead.rs` measure the same quantities rigorously; this
//! binary prints a quick wall-clock summary in the paper's format.

use std::time::Instant;

use autoscale::prelude::*;

fn main() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mut engine = AutoScaleEngine::new(&sim, config);
    let mut rng = autoscale::seeded_rng(1);
    let snapshot = Snapshot::calm();
    let w = Workload::MobileNetV3;

    // Warm the engine so decisions exercise a populated table.
    for _ in 0..200 {
        let step = engine.decide(w, &snapshot, &mut rng).expect("feasible");
        let outcome = sim
            .execute_measured(w, &step.request, &snapshot, &mut rng)
            .expect("feasible");
        engine.learn(&sim, w, step, &outcome, &snapshot);
    }

    const N: u32 = 100_000;

    // Serving decision: state lookup + greedy argmax.
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(engine.decide_greedy(w, &snapshot).expect("feasible"));
    }
    let serve_us = t.elapsed().as_secs_f64() * 1e6 / N as f64;

    // Training step: decision + reward + Q update (inference excluded,
    // as in the paper).
    let outcome = sim
        .execute_expected(
            w,
            &engine
                .decide_greedy(w, &snapshot)
                .expect("feasible")
                .request,
            &snapshot,
        )
        .expect("feasible");
    let t = Instant::now();
    for _ in 0..N {
        let step = engine.decide(w, &snapshot, &mut rng).expect("feasible");
        std::hint::black_box(engine.learn(&sim, w, step, &outcome, &snapshot));
    }
    let train_us = t.elapsed().as_secs_f64() * 1e6 / N as f64;

    // The table's full footprint, as the paper counts it; a random table
    // fills its 64-row chunks lazily, so this run only touched some.
    let store = engine.agent().store();
    let table_mb = store.full_bytes() as f64 / (1024.0 * 1024.0);
    let touched_kb = store.memory_bytes() as f64 / 1024.0;
    let dram_gb = sim.host().dram_gb();

    println!("Section VI-C overhead analysis (Mi8Pro, MobileNet v3):");
    println!("  serving decision:  {serve_us:>7.2} us   (paper:  7.3 us)");
    println!("  training step:     {train_us:>7.2} us   (paper: 25.4 us)");
    println!(
        "  Q-table memory:    {table_mb:>7.2} MB   ({:.3}% of the {dram_gb:.0} GB device DRAM; paper: 0.4 MB)",
        table_mb / (dram_gb * 1024.0) * 100.0
    );
    println!(
        "  materialized by this run: {touched_kb:>5.1} KB   (the {}-row state chunks its decisions read)",
        autoscale_rl::CHUNK_ROWS
    );
    let min_latency_ms = 5.0; // the fastest on-device inference in the testbed
    println!(
        "  training overhead vs fastest inference: {:.2}% (paper: 1.2%)",
        train_us / (min_latency_ms * 1e3) * 100.0
    );
}
