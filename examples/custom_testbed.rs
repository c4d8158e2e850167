//! Custom testbed: bring your own device and your own network.
//!
//! Everything in the other examples uses the paper's catalog. Downstream
//! users have their own hardware and models; this example builds both
//! from scratch — a hypothetical mid-range phone with an unlocked NPU,
//! and a custom keyword-spotting-sized CNN — and runs the full
//! survey/train/serve loop on them.
//!
//! ```sh
//! cargo run --release --example custom_testbed
//! ```

use autoscale::prelude::*;
use autoscale_nn::{Layer, LayerKind};
use autoscale_platform::Device;

fn main() {
    // A custom model: a small always-on vision CNN (8 CONV + 1 FC).
    // AutoScale only needs its shape and costs, not its weights. Note:
    // the engine schedules the *Table III* workloads by name; a custom
    // model is scheduled by surveying its costs directly, as below, or by
    // extending the `Workload` catalog in a fork.
    let layers: Vec<Layer> = (0..8)
        .map(|i| {
            let act = 150_000 / (i as u64 + 1);
            Layer::new(LayerKind::Conv, 12_000_000, 20_000, act, act * 8 / 10)
        })
        .chain(std::iter::once(Layer::new(
            LayerKind::Fc,
            64_000,
            256_000,
            1_024,
            40,
        )))
        .collect();
    let custom_net = Network::new("kws-cnn", Task::ImageClassification, layers, 16 * 1024, 256);
    println!(
        "custom model: {} ({} layers, {:.0}M MACs, {:.1} KiB input payload)",
        custom_net.name(),
        custom_net.layers().len(),
        custom_net.total_macs() as f64 / 1e6,
        custom_net.input_bytes() as f64 / 1024.0
    );

    // A custom testbed: NPU-unlocked phone, stock tablet, TPU cloud.
    let sim = Simulator::with_devices(
        Device::mi8pro_npu(),
        Device::galaxy_tab_s6(),
        Device::cloud_server_tpu(),
    );
    println!(
        "testbed: {} + {} + {} ({} actions)\n",
        sim.host().id(),
        sim.tablet().id(),
        sim.cloud().id(),
        ActionSpace::for_simulator(&sim).len()
    );

    // Survey the custom model across every processor of the host device
    // using the platform layer directly — the same code path the
    // simulator uses for the catalog workloads.
    println!("custom model on each host processor (max frequency):");
    for proc in sim.host().processors() {
        let precision = proc.precisions()[0];
        if !proc.can_run(&custom_net, precision) {
            continue;
        }
        let cond = autoscale_platform::ExecutionConditions::max_frequency(proc, precision);
        let ms = autoscale_platform::latency::network_latency_ms(proc, &custom_net, &cond);
        let energy = autoscale_platform::power::on_device_energy_mj(
            proc,
            &cond,
            ms,
            sim.host().base_power_w(),
        );
        println!(
            "  {:<14} {:<4} {precision}  {:>6.2} ms  {:>6.1} mJ",
            proc.name(),
            proc.kind().to_string(),
            ms,
            energy.total_mj()
        );
    }

    // And the full engine loop on the catalog workload closest in shape
    // to the custom model (MobileNet v1: small CONV-dominated classifier).
    let config = EngineConfig::paper();
    let engine = autoscale::experiment::train_engine(
        &sim,
        &[Workload::MobileNetV1],
        &[EnvironmentId::S1, EnvironmentId::S4],
        120,
        config,
        3,
    );
    for (env, label) in [
        (EnvironmentId::S1, "calm"),
        (EnvironmentId::S4, "weak Wi-Fi"),
    ] {
        let mut environment = Environment::for_id(env);
        let mut rng = autoscale::seeded_rng(4);
        let snapshot = environment.sample(&mut rng);
        let step = engine
            .decide_greedy(Workload::MobileNetV1, &snapshot)
            .expect("the CPU serves every workload");
        let outcome = sim
            .execute_expected(Workload::MobileNetV1, &step.request, &snapshot)
            .expect("greedy decisions are feasible");
        println!(
            "\nAutoScale under {label}: {} ({:.1} ms, {:.1} mJ)",
            step.request, outcome.latency_ms, outcome.energy_mj
        );
    }
}
