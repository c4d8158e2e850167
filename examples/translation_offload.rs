//! Translation offload: MobileBERT on a mid-end phone.
//!
//! A translation keyboard runs MobileBERT under a 100 ms QoS target on a
//! Moto X Force — a phone whose CPU cannot run the model in time. The
//! example shows why the paper calls this the easy case for the cloud
//! (tiny sentence payloads survive even weak signal) and how AutoScale
//! discovers it without being told.
//!
//! ```sh
//! cargo run --release --example translation_offload
//! ```

use autoscale::prelude::*;

fn main() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::MotoXForce);
    let workload = Workload::MobileBert;
    let qos = config.scenario_for(workload).qos_ms();
    println!("{workload} on {} (QoS {qos:.0} ms)\n", sim.host().id());

    // Survey the feasible design space by hand first.
    println!("the design space, under calm conditions:");
    let calm = Snapshot::calm();
    for (label, placement, precision) in [
        (
            "Edge (CPU FP32)",
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        ),
        (
            "Edge (CPU INT8)",
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Int8,
        ),
        (
            "Connected (CPU FP32)",
            Placement::ConnectedEdge(ProcessorKind::Cpu),
            Precision::Fp32,
        ),
        (
            "Cloud (CPU FP32)",
            Placement::Cloud(ProcessorKind::Cpu),
            Precision::Fp32,
        ),
        (
            "Cloud (GPU FP32)",
            Placement::Cloud(ProcessorKind::Gpu),
            Precision::Fp32,
        ),
    ] {
        let request = Request::at_max_frequency(&sim, placement, precision);
        match sim.execute_expected(workload, &request, &calm) {
            Ok(o) => println!(
                "  {label:<22} {:7.1} ms {:8.1} mJ  accuracy {:4.1}%{}",
                o.latency_ms,
                o.energy_mj,
                o.accuracy,
                if o.latency_ms > qos {
                    "  ** violates QoS **"
                } else {
                    ""
                }
            ),
            Err(e) => println!("  {label:<22} unsupported ({e})"),
        }
    }
    println!("  (no GPU/DSP rows: no mobile middleware runs recurrent models on them)\n");

    // Let AutoScale learn the same conclusion, then stress it: even under
    // weak Wi-Fi the sentence payload keeps the cloud optimal.
    let engine = autoscale::experiment::train_engine(
        &sim,
        &[workload],
        &[EnvironmentId::S1, EnvironmentId::S4],
        120,
        config,
        5,
    );
    for (env, label) in [
        (EnvironmentId::S1, "strong Wi-Fi"),
        (EnvironmentId::S4, "weak Wi-Fi"),
    ] {
        let mut environment = Environment::for_id(env);
        let mut rng = autoscale::seeded_rng(9);
        let snapshot = environment.sample(&mut rng);
        let step = engine
            .decide_greedy(workload, &snapshot)
            .expect("the CPU serves every workload");
        let outcome = sim
            .execute_expected(workload, &step.request, &snapshot)
            .expect("greedy decisions are feasible");
        println!(
            "AutoScale under {label}: {} -> {:.1} ms, {:.1} mJ",
            step.request, outcome.latency_ms, outcome.energy_mj
        );
    }
}
