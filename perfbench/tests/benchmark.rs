//! The benchmark's own tests: every workload at a tiny size emits
//! exactly the metrics `BENCHMARK.json` declares, with their units, its
//! output checks pass, and the replay reproduces `serve()`.

use autoscale::serve::{serve, ServeConfig};
use perfbench::replay::Fleet;
use perfbench::run::{self, compare, Outcome};
use perfbench::spans::{Spans, Untraced};
use perfbench::workloads::{Name, Size, Workload};
use serde_json::Value;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let field = |object: &Value, key: &str| -> Value {
        object
            .as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing `{key}`"))
    };
    let Value::Array(metrics) = field(&root, section) else {
        panic!("`{section}` is not a list");
    };
    metrics
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Value::String(name), Value::String(unit)) => (name, unit),
            _ => panic!("a metric without a name or unit"),
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// The result line must be one JSON object with exactly the four keys.
fn assert_result_line(outcome: &Outcome) {
    let line: Value = serde_json::from_str(&outcome.json()).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

fn tiny(name: Name) -> Workload {
    Workload::new(name, 7, Size::Tiny)
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    let declared = declared("end_to_end");
    for name in Name::ALL {
        let w = tiny(name);
        let outcome = run::untraced(&w, 0.0, || run::serve_once(&w));
        assert!(outcome.correct, "{}: {:?}", name.as_str(), outcome.notes);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        assert_eq!(emitted(&outcome), declared, "{}", name.as_str());
        for m in &outcome.metrics {
            assert!(m.value.is_finite(), "{} on {}", m.name, name.as_str());
            assert!(m.value != 0.0, "{} reads 0 on {}", m.name, name.as_str());
        }
        assert_result_line(&outcome);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_match_serve() {
    let declared = declared("per_layer");
    for name in Name::ALL {
        let outcome = run::traced(&tiny(name));
        assert!(outcome.correct, "{}: {:?}", name.as_str(), outcome.notes);
        assert_eq!(emitted(&outcome), declared, "{}", name.as_str());
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        assert_result_line(&outcome);
    }
}

#[test]
fn the_replay_reproduces_serve_on_a_tiny_fleet_of_each_workload() {
    for name in Name::ALL {
        let w = tiny(name);
        let setup = w.build();
        let report = serve(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()).expect("serves");
        let fleet = Fleet::new(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()).expect("fleet");
        let untraced = fleet.replay_serial(&mut Untraced).expect("replays");
        compare(&report, &untraced).unwrap_or_else(|why| panic!("{}: {why}", name.as_str()));
        // Tracing every decision changes nothing the replay computes.
        let traced = fleet
            .replay_serial(&mut Spans::new(0.0, 1))
            .expect("replays");
        assert_eq!(traced, untraced, "{}", name.as_str());
        let (sharded, load) = fleet.replay_sharded(2).expect("replays");
        assert_eq!(sharded, untraced, "{}", name.as_str());
        assert!(load.imbalance >= 1.0);
    }
}

#[test]
fn the_comparison_catches_a_changed_session() {
    let w = tiny(Name::Openloop);
    let setup = w.build();
    let report = serve(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()).expect("serves");
    let fleet = Fleet::new(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()).expect("fleet");
    let replay = fleet.replay_serial(&mut Untraced).expect("replays");
    assert_eq!(compare(&report, &replay), Ok(()));

    let mut digest = report.clone();
    digest.sessions[3].trace_digest ^= 1;
    assert!(compare(&digest, &replay).is_err(), "a trace digest");
    let mut arrivals = report.clone();
    arrivals.sessions[3].arrival_digest ^= 1;
    assert!(compare(&arrivals, &replay).is_err(), "an arrival digest");
    let mut traffic = report.clone();
    traffic.traffic.as_mut().expect("open loop").busy_ms += 1e-9;
    assert!(compare(&traffic, &replay).is_err(), "the traffic aggregate");

    // Another seed is another fleet.
    let other = ServeConfig {
        base_seed: w.config.base_seed + 1,
        ..w.config
    };
    let elsewhere = serve(&setup.sim, &w.mix, &other, setup.warm.as_ref()).expect("serves");
    assert!(compare(&elsewhere, &replay).is_err(), "another seed");
}

#[test]
fn output_checks_reject_a_short_fleet() {
    let w = tiny(Name::Steady);
    let setup = w.build();
    let report = serve(&setup.sim, &w.mix, &w.config, None).expect("serves");
    assert_eq!(w.check(&w.config, &report), Ok(()));
    let mut missing = report.clone();
    missing.sessions.pop();
    assert!(w.check(&w.config, &missing).is_err());
    let mut undercounted = report;
    undercounted.sessions[0].decisions -= 1;
    assert!(w.check(&w.config, &undercounted).is_err());
}

#[test]
fn workloads_parse_by_name() {
    for name in Name::ALL {
        assert_eq!(Name::parse(name.as_str()), Some(name));
    }
    assert_eq!(Name::parse("bursty"), None);
}
