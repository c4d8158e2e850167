//! `autoscale-cli` — explore, train, and serve AutoScale from the shell.
//!
//! ```text
//! autoscale-cli devices
//! autoscale-cli workloads
//! autoscale-cli survey   --device mi8pro --workload inception-v1 [--env S1]
//! autoscale-cli train    --device mi8pro --out qtable.json [--runs 30] [--envs static|all] [--seed 7]
//! autoscale-cli decide   --device mi8pro --qtable qtable.json --workload resnet-50 [--env S4]
//! autoscale-cli evaluate --device mi8pro --qtable qtable.json --workload resnet-50 --env S1|all [--runs 100] [--threads N] [--json]
//! autoscale-cli trace    --device mi8pro --qtable qtable.json --workload resnet-50 --env D2 --runs 50 --out trace.json
//! autoscale-cli serve    --device mi8pro [--sessions 8] [--decisions 200] [--shards N] [--mix static|all] [--qtable FILE] [--seed N] [--faults PROFILE] [--qstore dense|cow] [--arrivals poisson|bursty|diurnal --rate HZ --horizon-ms MS --queue N --admission drop|deadline|degrade --churn none|gentle|heavy] [--json]
//! ```
//!
//! Argument parsing is deliberately hand-rolled (`--key value` pairs) to
//! keep the dependency set identical to the library's. Each command
//! accepts only the flags listed above; any other flag is an error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::AutoScaleScheduler;
use autoscale_rl::{QLearningAgent, QStoreKind};
use autoscale_sim::Trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `autoscale-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(());
    };
    let flags = parse_flags(&args[1..])?;
    let (known, command_fn): (&[&str], Command) = match command.as_str() {
        "help" | "--help" | "-h" => (&[], |_| {
            print_help();
            Ok(())
        }),
        "devices" => (&[], |_| cmd_devices()),
        "workloads" => (&[], |_| cmd_workloads()),
        "survey" => (&["device", "workload", "env", "seed"], cmd_survey),
        "train" => (&["device", "out", "runs", "envs", "seed"], cmd_train),
        "decide" => (&["device", "qtable", "workload", "env", "seed"], cmd_decide),
        "evaluate" => (
            &[
                "device", "qtable", "workload", "env", "runs", "threads", "seed", "json",
            ],
            cmd_evaluate,
        ),
        "trace" => (
            &["device", "qtable", "workload", "env", "runs", "out", "seed"],
            cmd_trace,
        ),
        "serve" => (
            &[
                "device",
                "sessions",
                "decisions",
                "shards",
                "mix",
                "qtable",
                "seed",
                "faults",
                "qstore",
                "arrivals",
                "rate",
                "horizon-ms",
                "queue",
                "admission",
                "churn",
                "json",
            ],
            cmd_serve,
        ),
        other => return Err(format!("unknown command `{other}`")),
    };
    // A misspelled or retired flag would otherwise be silently ignored
    // and the command would run on the default it meant to override.
    if let Some(flag) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{flag} for `{command}`"));
    }
    command_fn(&flags)
}

/// A command's entry point, handed its parsed flags.
type Command = fn(&BTreeMap<String, String>) -> Result<(), String>;

fn print_help() {
    println!(
        "autoscale-cli — the AutoScale (MICRO 2020) execution-scaling engine\n\
         \n\
         commands:\n\
         \x20 devices                                   list the device catalog\n\
         \x20 workloads                                 list the Table III workloads\n\
         \x20 survey   --device D --workload W [--env E] cost of every target\n\
         \x20 train    --device D --out FILE [--runs N] [--envs static|all] [--seed N]\n\
         \x20 decide   --device D --qtable FILE --workload W [--env E]\n\
         \x20 evaluate --device D --qtable FILE --workload W --env E|all [--runs N] [--threads N] [--json]\n\
         \x20 trace    --device D --qtable FILE --workload W --env E --runs N --out FILE\n\
         \x20 serve    --device D [--sessions N] [--decisions N] [--shards N]\n\
         \x20          [--mix static|all] [--qtable FILE] [--seed N] [--json]\n\
         \x20          [--faults none|lossy-edge|lossy-cloud|flaky|stragglers|chaos]\n\
         \x20          [--qstore dense|cow]\n\
         \x20          [--arrivals poisson|bursty|diurnal] [--rate HZ]\n\
         \x20          [--horizon-ms MS] [--queue N]\n\
         \x20          [--admission drop|deadline|degrade]\n\
         \x20          [--churn none|gentle|heavy]\n\
         \n\
         names: devices mi8pro|galaxy-s10e|moto-x-force (suffix +npu for the\n\
         NPU/TPU extension testbed); workloads as in `workloads` output;\n\
         environments S1..S5, D1..D4. A flag a command does not list is\n\
         an error.\n\
         \n\
         `evaluate --env all` sweeps every environment on the parallel\n\
         harness; --threads N caps the workers (default: all cores, 1 runs\n\
         serially). Results are bit-identical for any thread count.\n\
         \n\
         `serve` runs a fleet of independent device sessions (each with its\n\
         own engine, environment trace and RNG stream) over the sharded\n\
         decision server; --qtable warm-starts every session from a trained\n\
         table. Session reports are bit-identical for any --shards value.\n\
         --faults injects seeded link dropouts, timeouts, disconnection\n\
         windows, stragglers and thermal bursts; failed offloads retry with\n\
         backoff and fall back locally, and reports stay deterministic.\n\
         --qstore picks the Q-table backend: `dense` gives every session\n\
         a private table; `cow` shares one immutable base (the --qtable\n\
         warm start, or a zero table) and gives each session a sparse\n\
         copy-on-write overlay — same decisions, a fraction of the\n\
         memory. With --qtable the two backends are bit-identical.\n\
         --arrivals switches serving open-loop: requests arrive on a\n\
         seeded per-session schedule (--rate req/s over --horizon-ms of\n\
         virtual time) instead of back-to-back; --queue bounds each\n\
         session's request queue, --admission decides what happens to\n\
         predicted-late requests (drop-tail, deadline drop, or degraded\n\
         exploration-off service), and --churn makes sessions join and\n\
         leave mid-run. The summary then reports offered load vs.\n\
         goodput, drop/late rates and queue-depth percentiles; the\n\
         schedule is a pure function of the seed, so open-loop fleets\n\
         stay bit-identical for any --shards value."
    );
}

// ---------------------------------------------------------------------------
// Flag plumbing
// ---------------------------------------------------------------------------

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{}`", args[i]))?;
        if key == "json" {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse_device(name: &str) -> Result<Simulator, String> {
    use autoscale_platform::Device;
    let (base, npu) = match name.strip_suffix("+npu") {
        Some(base) => (base, true),
        None => (name, false),
    };
    let id = match base {
        "mi8pro" => DeviceId::Mi8Pro,
        "galaxy-s10e" => DeviceId::GalaxyS10e,
        "moto-x-force" => DeviceId::MotoXForce,
        other => return Err(format!("unknown device `{other}`")),
    };
    if npu {
        if id != DeviceId::Mi8Pro {
            return Err("the NPU extension testbed is defined for mi8pro only".to_string());
        }
        Ok(Simulator::with_devices(
            Device::mi8pro_npu(),
            Device::galaxy_tab_s6(),
            Device::cloud_server_tpu(),
        ))
    } else {
        Ok(Simulator::new(id))
    }
}

fn workload_slug(w: Workload) -> String {
    w.paper_name().to_lowercase().replace(' ', "-")
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::ALL
        .iter()
        .copied()
        .find(|w| workload_slug(*w) == name.to_lowercase())
        .ok_or_else(|| {
            let known: Vec<String> = Workload::ALL.iter().map(|w| workload_slug(*w)).collect();
            format!("unknown workload `{name}`; known: {}", known.join(", "))
        })
}

fn parse_env(name: &str) -> Result<EnvironmentId, String> {
    EnvironmentId::ALL
        .iter()
        .copied()
        .find(|e| e.to_string().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown environment `{name}` (S1..S5, D1..D4)"))
}

fn parse_usize(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} must be a number, got `{v}`")),
        None => Ok(default),
    }
}

fn parse_u64(flags: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} must be a number, got `{v}`")),
        None => Ok(default),
    }
}

fn parse_f64(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} must be a number, got `{v}`")),
        None => Ok(default),
    }
}

fn load_engine(sim: &Simulator, path: &str) -> Result<AutoScaleEngine, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let agent: QLearningAgent =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    AutoScaleEngine::with_agent(sim, EngineConfig::paper(), agent)
        .map_err(|e| format!("{e} — was the Q-table trained on a different device or testbed?"))
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn cmd_devices() -> Result<(), String> {
    use autoscale_platform::Device;
    println!("hosts:");
    for id in DeviceId::PHONES {
        let d = Device::for_id(id);
        let procs: Vec<String> = d
            .processors()
            .iter()
            .map(|p| p.kind().to_string())
            .collect();
        println!(
            "  {:<14} {} [{}]",
            d.id().to_string().to_lowercase().replace(' ', "-"),
            d.id(),
            procs.join(", ")
        );
    }
    println!("  mi8pro+npu     Mi8Pro with the NPU/TPU extension testbed");
    println!("targets:");
    for d in [Device::galaxy_tab_s6(), Device::cloud_server()] {
        println!("  {:<14} {}", "-", d.id());
    }
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    println!("{:<20} {:<22} {:>9}", "slug", "task", "MACs (M)");
    for w in Workload::ALL {
        let net = Network::workload(w);
        println!(
            "{:<20} {:<22} {:>9.0}",
            workload_slug(w),
            w.task().to_string(),
            net.total_macs() as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_survey(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let sim = parse_device(required(flags, "device")?)?;
    let workload = parse_workload(required(flags, "workload")?)?;
    let snapshot = match flags.get("env") {
        Some(env) => {
            let mut environment = Environment::for_id(parse_env(env)?);
            environment.sample(&mut autoscale::seeded_rng(parse_u64(flags, "seed", 0)?))
        }
        None => Snapshot::calm(),
    };
    let config = EngineConfig::paper();
    let qos = config.scenario_for(workload).qos_ms();
    let space = ActionSpace::for_simulator(&sim);
    println!(
        "{} on {} (QoS {qos:.1} ms), {} coarse targets:",
        workload,
        sim.host().id(),
        space.coarse_targets().len()
    );
    for (placement, precision) in space.coarse_targets() {
        let request = Request::at_max_frequency(&sim, placement, precision);
        match sim.execute_expected(workload, &request, &snapshot) {
            Ok(o) => println!(
                "  {:<28} {:>7.1} ms {:>8.1} mJ  accuracy {:>4.1}%{}",
                format!("{placement} {precision}"),
                o.latency_ms,
                o.energy_mj,
                o.accuracy,
                if o.latency_ms > qos {
                    "  ** violates QoS **"
                } else {
                    ""
                }
            ),
            Err(e) => println!(
                "  {:<28} unsupported ({e})",
                format!("{placement} {precision}")
            ),
        }
    }
    Ok(())
}

fn cmd_train(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let sim = parse_device(required(flags, "device")?)?;
    let out = required(flags, "out")?;
    let runs = parse_usize(flags, "runs", 30)?;
    let seed = parse_u64(flags, "seed", 7)?;
    let envs: &[EnvironmentId] = match flags.get("envs").map(String::as_str) {
        None | Some("static") => &EnvironmentId::STATIC,
        Some("all") => &EnvironmentId::ALL,
        Some(other) => return Err(format!("--envs must be `static` or `all`, got `{other}`")),
    };
    eprintln!(
        "training on {} across {} environments, {runs} runs per (workload, environment)...",
        sim.host().id(),
        envs.len()
    );
    let engine = experiment::train_engine(
        &sim,
        &Workload::ALL,
        envs,
        runs,
        EngineConfig::paper(),
        seed,
    );
    let json = serde_json::to_string(engine.agent()).map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "wrote {out}: {} updates, {:.1} KiB",
        engine.agent().updates(),
        json.len() as f64 / 1024.0
    );
    Ok(())
}

fn cmd_decide(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let sim = parse_device(required(flags, "device")?)?;
    let workload = parse_workload(required(flags, "workload")?)?;
    let engine = load_engine(&sim, required(flags, "qtable")?)?;
    let snapshot = match flags.get("env") {
        Some(env) => Environment::for_id(parse_env(env)?)
            .sample(&mut autoscale::seeded_rng(parse_u64(flags, "seed", 0)?)),
        None => Snapshot::calm(),
    };
    let step = engine
        .decide_greedy(workload, &snapshot)
        .map_err(|e| e.to_string())?;
    let outcome = sim
        .execute_expected(workload, &step.request, &snapshot)
        .map_err(|e| e.to_string())?;
    println!("decision: {}", step.request);
    println!(
        "expected: {:.1} ms, {:.1} mJ, accuracy {:.1}%",
        outcome.latency_ms, outcome.energy_mj, outcome.accuracy
    );
    Ok(())
}

fn cmd_evaluate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let sim = parse_device(required(flags, "device")?)?;
    let workload = parse_workload(required(flags, "workload")?)?;
    let env_arg = required(flags, "env")?;
    let envs: Vec<EnvironmentId> = if env_arg.eq_ignore_ascii_case("all") {
        EnvironmentId::ALL.to_vec()
    } else {
        vec![parse_env(env_arg)?]
    };
    let runs = parse_usize(flags, "runs", 100)?;
    let threads = autoscale::parallel::resolve_threads(match flags.get("threads") {
        Some(_) => Some(parse_usize(flags, "threads", 0)?),
        None => None,
    });
    let engine = load_engine(&sim, required(flags, "qtable")?)?;
    let config = EngineConfig::paper();
    let ev = Evaluator::new(sim, config);
    let base_seed = parse_u64(flags, "seed", 0)?;
    // One harness cell per environment, each with its own engine clone
    // (online learning stays per-cell) and derived seed: the sweep is
    // bit-identical for any --threads value.
    let reports = autoscale::parallel::run_cells(threads, base_seed, &envs, |cell| {
        let mut sched = AutoScaleScheduler::new(engine.clone(), false);
        let mut rng = autoscale::seeded_rng(cell.seed);
        ev.run(
            &mut sched,
            workload,
            *cell.spec,
            runs / 2,
            runs,
            None,
            &mut rng,
        )
    });
    if flags.contains_key("json") {
        let json = if reports.len() == 1 {
            serde_json::to_string_pretty(&reports[0])
        } else {
            serde_json::to_string_pretty(&reports)
        };
        println!("{}", json.map_err(|e| e.to_string())?);
    } else {
        for (env, report) in envs.iter().zip(&reports) {
            println!(
                "{} in {env} over {runs} runs: {:.1} mJ/inference ({:.1} inf/J), {:.1} ms, {:.1}% QoS violations",
                workload,
                report.mean_energy_mj,
                report.mean_efficiency_ipj,
                report.mean_latency_ms,
                report.qos_violation_ratio * 100.0
            );
            println!(
                "decisions: {:.0}% on-device / {:.0}% connected / {:.0}% cloud",
                report.placement_shares[0] * 100.0,
                report.placement_shares[1] * 100.0,
                report.placement_shares[2] * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_trace(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let sim = parse_device(required(flags, "device")?)?;
    let workload = parse_workload(required(flags, "workload")?)?;
    let env = parse_env(required(flags, "env")?)?;
    let runs = parse_usize(flags, "runs", 50)?;
    let out = required(flags, "out")?;
    let mut engine = load_engine(&sim, required(flags, "qtable")?)?;
    let mut environment = Environment::for_id(env);
    let mut rng = autoscale::seeded_rng(parse_u64(flags, "seed", 0)?);
    let mut trace = Trace::new();
    for _ in 0..runs {
        let snapshot = environment.sample(&mut rng);
        let step = engine
            .decide_greedy(workload, &snapshot)
            .map_err(|e| e.to_string())?;
        let outcome = sim
            .execute_measured(workload, &step.request, &snapshot, &mut rng)
            .map_err(|e| e.to_string())?;
        engine.learn(&sim, workload, step, &outcome, &snapshot);
        trace.record(workload, snapshot, step.request, outcome);
    }
    let json = serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    let s = trace.summary();
    println!(
        "wrote {out}: {} inferences, mean {:.1} ms / {:.1} mJ, total {:.1} J",
        s.entries,
        s.mean_latency_ms,
        s.mean_energy_mj,
        s.total_energy_mj / 1000.0
    );
    Ok(())
}

/// Builds the open-loop half of a `serve` invocation from its flags:
/// `--arrivals` switches open-loop on; `--rate`, `--horizon-ms`,
/// `--queue`, `--admission` and `--churn` refine it and are rejected
/// without it (they would silently do nothing).
fn parse_openloop(
    flags: &BTreeMap<String, String>,
) -> Result<Option<autoscale::serve::OpenLoopConfig>, String> {
    use autoscale::serve::{AdmissionPolicy, OpenLoopConfig};
    use autoscale_sim::{ArrivalProcess, ChurnConfig};
    let Some(arrivals_name) = flags.get("arrivals") else {
        for dependent in ["rate", "horizon-ms", "queue", "admission", "churn"] {
            if flags.contains_key(dependent) {
                return Err(format!(
                    "--{dependent} is an open-loop flag; pass --arrivals {} with it",
                    ArrivalProcess::NAMES.join("|")
                ));
            }
        }
        return Ok(None);
    };
    let rate_hz = parse_f64(flags, "rate", 100.0)?;
    let horizon_ms = parse_f64(flags, "horizon-ms", 2_000.0)?;
    let arrivals = ArrivalProcess::parse(arrivals_name, rate_hz).ok_or_else(|| {
        format!(
            "--arrivals must be one of {}, got `{arrivals_name}`",
            ArrivalProcess::NAMES.join(", ")
        )
    })?;
    let churn = match flags.get("churn") {
        None => ChurnConfig::none(),
        Some(name) => ChurnConfig::parse(name, horizon_ms).ok_or_else(|| {
            format!(
                "--churn must be one of {}, got `{name}`",
                ChurnConfig::NAMES.join(", ")
            )
        })?,
    };
    let admission = match flags.get("admission") {
        None => AdmissionPolicy::DropTail,
        Some(name) => AdmissionPolicy::parse(name).ok_or_else(|| {
            format!(
                "--admission must be one of {}, got `{name}`",
                AdmissionPolicy::NAMES.join(", ")
            )
        })?,
    };
    let open = OpenLoopConfig {
        arrivals,
        churn,
        horizon_ms,
        queue_capacity: parse_usize(flags, "queue", 32)?,
        admission,
    };
    open.validate().map_err(|e| e.to_string())?;
    Ok(Some(open))
}

fn cmd_serve(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use std::time::Instant;
    let sim = parse_device(required(flags, "device")?)?;
    let sessions = parse_usize(flags, "sessions", 8)?;
    let decisions = parse_usize(flags, "decisions", 200)?;
    let shards = match flags.get("shards") {
        Some(_) => Some(parse_usize(flags, "shards", 0)?),
        None => None,
    };
    let mix = match flags.get("mix").map(String::as_str) {
        None | Some("static") => ScenarioMix::static_envs(),
        Some("all") => ScenarioMix::all_envs(),
        Some(other) => return Err(format!("--mix must be `static` or `all`, got `{other}`")),
    };
    let warm: Option<QLearningAgent> = match flags.get("qtable") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?)
        }
        None => None,
    };
    let faults = match flags.get("faults") {
        None => autoscale_sim::FaultProfile::none(),
        Some(name) => autoscale_sim::FaultProfile::parse(name).ok_or_else(|| {
            format!(
                "--faults must be one of {}, got `{name}`",
                autoscale_sim::FaultProfile::NAMES.join(", ")
            )
        })?,
    };
    let qstore = match flags.get("qstore") {
        None => QStoreKind::Dense,
        Some(name) => QStoreKind::parse(name).ok_or_else(|| {
            format!(
                "--qstore must be one of {}, got `{name}`",
                QStoreKind::ALL.map(|k| k.name()).join(", ")
            )
        })?,
    };
    let openloop = parse_openloop(flags)?;
    let config = ServeConfig {
        sessions,
        decisions_per_session: decisions,
        shards,
        base_seed: parse_u64(flags, "seed", 0xf1ee7)?,
        record_latency: true,
        faults,
        qstore,
        openloop,
        ..ServeConfig::fleet()
    };
    let start = Instant::now();
    let report = serve(&sim, &mix, &config, warm.as_ref()).map_err(|e| match e {
        autoscale::serve::ServeError::WarmStart(_) => {
            format!("{e} — was the Q-table trained on a different device or testbed?")
        }
        _ => e.to_string(),
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.sessions).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{:>4} {:<16} {:<4} {:>10} {:>9} {:>6} {:>10}",
        "sess", "workload", "env", "reward", "QoS viol", "conv", "energy J"
    );
    for s in &report.sessions {
        println!(
            "{:>4} {:<16} {:<4} {:>10.3} {:>8.1}% {:>6} {:>10.2}",
            s.session,
            s.workload.to_string(),
            s.environment.to_string(),
            s.mean_reward,
            s.qos_violations as f64 / s.decisions.max(1) as f64 * 100.0,
            s.converged_at.map_or("-".to_string(), |at| at.to_string()),
            s.total_energy_mj / 1000.0
        );
    }
    let total = report.total_decisions();
    println!(
        "fleet: {total} decisions in {wall_s:.2} s ({:.0} decisions/s), {:.1}% QoS violations, digest {:016x}",
        total as f64 / wall_s,
        report.qos_violation_ratio() * 100.0,
        report.digest()
    );
    if !config.faults.is_none() {
        println!(
            "faults: {} faulted requests, {} retries, {} local fallbacks",
            report.total_faulted(),
            report.total_retries(),
            report.total_fallbacks()
        );
    }
    if let Some(traffic) = &report.traffic {
        println!(
            "traffic: offered {:.1} req/s/session, goodput {:.1} req/s/session, \
             {:.1}% dropped, {:.1}% late, {} degraded",
            traffic.offered_load_hz(),
            traffic.goodput_hz(),
            traffic.drop_rate() * 100.0,
            traffic.violation_rate() * 100.0,
            traffic.degraded
        );
        println!(
            "queues: depth p50 {} / p99 {} (peak {}), utilization {:.0}%",
            traffic.queue_depth_percentile(50.0),
            traffic.queue_depth_percentile(99.0),
            traffic.peak_queue_depth,
            traffic.utilization() * 100.0
        );
    }
    if let (Some(p50), Some(p99)) = (
        report.latency_percentile_ns(50.0),
        report.latency_percentile_ns(99.0),
    ) {
        println!(
            "decision latency: p50 {:.1} us, p99 {:.1} us",
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        );
    }
    let store = &report.store;
    println!(
        "memory: {} store, {:.1} KiB/session ({:.1} KiB private + {:.1} KiB shared{})",
        store.qstore,
        store.bytes_per_session(report.sessions.len()) / 1024.0,
        store.private_bytes as f64 / report.sessions.len().max(1) as f64 / 1024.0,
        store.shared_bytes as f64 / 1024.0,
        if store.qstore == QStoreKind::Cow {
            format!(", {} overlay rows", store.overlay_rows)
        } else {
            String::new()
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_key_value_pairs() {
        let args: Vec<String> = ["--device", "mi8pro", "--runs", "50", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).expect("valid flags");
        assert_eq!(flags.get("device").map(String::as_str), Some("mi8pro"));
        assert_eq!(flags.get("runs").map(String::as_str), Some("50"));
        assert_eq!(flags.get("json").map(String::as_str), Some("true"));
    }

    #[test]
    fn flags_reject_bare_values_and_missing_arguments() {
        let bare: Vec<String> = ["mi8pro".to_string()].to_vec();
        assert!(parse_flags(&bare).is_err());
        let dangling: Vec<String> = ["--device".to_string()].to_vec();
        assert!(parse_flags(&dangling).is_err());
    }

    #[test]
    fn device_names_resolve() {
        assert!(parse_device("mi8pro").is_ok());
        assert!(parse_device("galaxy-s10e").is_ok());
        assert!(parse_device("moto-x-force").is_ok());
        assert!(parse_device("mi8pro+npu").is_ok());
        assert!(parse_device("galaxy-s10e+npu").is_err());
        assert!(parse_device("iphone").is_err());
    }

    #[test]
    fn workload_slugs_round_trip() {
        for w in Workload::ALL {
            assert_eq!(parse_workload(&workload_slug(w)).expect("slug resolves"), w);
        }
        assert!(parse_workload("alexnet").is_err());
    }

    #[test]
    fn environment_names_resolve_case_insensitively() {
        assert_eq!(parse_env("s1").expect("resolves"), EnvironmentId::S1);
        assert_eq!(parse_env("D4").expect("resolves"), EnvironmentId::D4);
        assert!(parse_env("S9").is_err());
    }

    #[test]
    fn numeric_flags_validate() {
        let mut flags = BTreeMap::new();
        flags.insert("runs".to_string(), "abc".to_string());
        assert!(parse_usize(&flags, "runs", 10).is_err());
        assert_eq!(
            parse_usize(&BTreeMap::new(), "runs", 10).expect("default"),
            10
        );
    }
}
