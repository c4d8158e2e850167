//! One benchmark run: the untraced end-to-end measurement or the traced
//! per-layer replay, ending in the result line.

use std::fmt::Write as _;
use std::time::Instant;

use autoscale::parallel::resolve_threads;
use autoscale::serve::{serve, FleetTraffic, ServeConfig, ServeReport};

use crate::replay::{Fleet, FleetReplay};
use crate::spans::{calibrate_mark_ns, Spans, Stage};
use crate::workloads::{Setup, Workload};

/// Set-ups and `serve()` calls one untraced run makes at least,
/// whatever its length, so its medians rest on several samples.
const MIN_REPS: usize = 3;

/// The traced replay times one decision and one arrival in this many
/// (sessions are always timed whole). A decision takes a few hundred
/// nanoseconds and a clock read can cost tens (`trace.mark_ns`), so
/// timing every one would distort what it measures.
pub const SAMPLE_EVERY: u64 = 64;

/// Rounds of untraced `serve()` and traced replay one traced run makes
/// at least; it goes on until [`Workload::trace_seconds`] have passed.
pub const TRACE_ROUNDS: usize = 5;

/// How far the traced stage sums should sit from the untraced wall.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A finished run: what the result line reports, plus the lines printed
/// before it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Units of work asked for.
    pub attempted: u64,
    /// Units whose `serve()` call failed or whose output check failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: failed checks, the stage table.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed check that failed `units` of the work attempted
    /// so far.
    fn fail(&mut self, units: usize, why: String) {
        self.correct = false;
        self.failed = (self.failed + units as u64).min(self.attempted);
        self.notes.push(format!("check failed: {why}"));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it can only come from a
            // failed run, which `correct` already reports.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median of `values`; zero when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One serving process's worth of work: builds the workload, serves it
/// once and checks the result. Returns the peak resident memory of the
/// calling process in MiB. Run in a fresh process, that is the memory a
/// process serving this workload needs; how much of it the allocator
/// keeps varies from process to process, so `peak_rss_mib` is a median
/// over several.
///
/// # Errors
///
/// A failed `serve()` or output check.
pub fn serve_once(w: &Workload) -> Result<f64, String> {
    let setup = w.build();
    let report =
        serve(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()).map_err(|e| e.to_string())?;
    w.check(&w.config, &report)?;
    Ok(peak_rss_mib())
}

/// Compares a replay with the `serve()` report of the same fleet: every
/// session report bit for bit (digests, arrival digests, floats and
/// counters), the traffic aggregate and the Q-store accounting.
///
/// # Errors
///
/// The first difference.
pub fn compare(report: &ServeReport, replay: &FleetReplay) -> Result<(), String> {
    if report.sessions.len() != replay.sessions.len() {
        return Err("replay and serve() ran different session counts".to_string());
    }
    for (served, replayed) in report.sessions.iter().zip(&replay.sessions) {
        if *served != replayed.report {
            return Err(format!(
                "session {} differs from its replay (trace digest {:016x} vs {:016x}, \
                 arrival digest {:016x} vs {:016x})",
                served.session,
                served.trace_digest,
                replayed.report.trace_digest,
                served.arrival_digest,
                replayed.report.arrival_digest
            ));
        }
    }
    if let Some(traffic) = &report.traffic {
        let sessions: Vec<_> = replay
            .sessions
            .iter()
            .filter_map(|s| s.traffic.clone())
            .collect();
        if FleetTraffic::aggregate(&sessions, traffic.horizon_ms) != *traffic {
            return Err("replayed session traffic does not add up to serve()'s".to_string());
        }
    }
    if report.store != replay.store {
        return Err("replayed Q-store accounting differs from serve()'s".to_string());
    }
    Ok(())
}

/// The fleet-wide figures a report gives directly.
struct Fleetwide {
    decisions: f64,
    energy_mj: f64,
    reward: f64,
    qos_violations: f64,
}

fn fleetwide(report: &ServeReport) -> Fleetwide {
    let mut f = Fleetwide {
        decisions: 0.0,
        energy_mj: 0.0,
        reward: 0.0,
        qos_violations: 0.0,
    };
    for s in &report.sessions {
        f.decisions += s.decisions as f64;
        f.energy_mj += s.total_energy_mj;
        f.reward += s.mean_reward * s.decisions as f64;
        f.qos_violations += s.qos_violations as f64;
    }
    f
}

fn serve_timed(
    setup: &Setup,
    w: &Workload,
    config: &ServeConfig,
) -> (f64, Result<ServeReport, String>) {
    let started = Instant::now();
    let result = serve(&setup.sim, &w.mix, config, setup.warm.as_ref()).map_err(|e| e.to_string());
    (started.elapsed().as_secs_f64(), result)
}

/// One set-up: builds the workload and serves its one-decision fleet.
/// Returns the set-up and the seconds it took.
fn set_up(w: &Workload, out: &mut Outcome) -> (Setup, f64) {
    let config = w.setup_config();
    let started = Instant::now();
    let setup = w.build();
    let result = serve(&setup.sim, &w.mix, &config, setup.warm.as_ref());
    let seconds = started.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            if let Err(why) = w.check(&config, &report) {
                out.fail(0, format!("set-up fleet: {why}"));
            }
        }
        Err(e) => out.fail(0, format!("set-up fleet: {e}")),
    }
    (setup, seconds)
}

/// The untraced run: one set-up, then `serve()` of the whole batch
/// repeated for `seconds`, each result checked against the first, then
/// checked against a replay; then more set-ups, so that the set-up median
/// spans [`Workload::setup_seconds`] more. `peak_rss` measures
/// `peak_rss_mib` (see [`serve_once`]). Reports every end-to-end metric.
pub fn untraced(
    w: &Workload,
    seconds: f64,
    peak_rss: impl FnOnce() -> Result<f64, String>,
) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (setup, first_setup_s) = set_up(w, &mut out);

    let mut first: Option<ServeReport> = None;
    let mut rates: Vec<(f64, f64)> = Vec::new();
    let measuring = Instant::now();
    let mut calls = 0;
    while calls < MIN_REPS || measuring.elapsed().as_secs_f64() < seconds {
        calls += 1;
        let (wall_s, result) = serve_timed(&setup, w, &w.config);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                let units = w.config.sessions * w.config.decisions_per_session.max(1);
                out.attempted += units as u64;
                out.fail(units, format!("serve(): {e}"));
                continue;
            }
        };
        let units = w.attempted(&report);
        out.attempted += units as u64;
        let checked = w.check(&w.config, &report).and_then(|()| match &first {
            Some(reference)
                if reference.sessions != report.sessions
                    || reference.traffic != report.traffic
                    || reference.store != report.store =>
            {
                Err("a repeated serve() of the same fleet differs".to_string())
            }
            _ => Ok(()),
        });
        if let Err(why) = checked {
            out.fail(units, why);
        }
        let served = report.total_decisions() as f64;
        rates.push((served / wall_s, units as f64 / wall_s));
        if first.is_none() {
            first = Some(report);
        }
    }

    let Some(report) = first else {
        out.notes.push("no serve() call succeeded".to_string());
        return out;
    };
    let shards = resolve_threads(w.config.shards);
    let replay = Fleet::new(&setup.sim, &w.mix, &w.config, setup.warm.as_ref())
        .map_err(|e| e.to_string())
        .and_then(|fleet| fleet.replay_sharded(shards).map_err(|e| e.to_string()))
        .and_then(|(replay, _)| compare(&report, &replay).map(|()| replay));
    let busy_ms: f64 = match &replay {
        Ok(replay) => replay.sessions.iter().map(|s| s.busy_ms).sum(),
        Err(why) => {
            // Every call returned the first one's output, so every call
            // failed with it.
            let units = out.attempted as usize;
            out.fail(units, format!("replay: {why}"));
            0.0
        }
    };

    let mut setup_times = vec![first_setup_s];
    let setting_up = Instant::now();
    while setup_times.len() < MIN_REPS || setting_up.elapsed().as_secs_f64() < w.setup_seconds() {
        setup_times.push(set_up(w, &mut out).1);
    }
    let peak_rss = peak_rss().unwrap_or_else(|why| {
        out.fail(0, format!("peak resident memory: {why}"));
        0.0
    });

    let f = fleetwide(&report);
    let decisions: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let events: Vec<f64> = rates.iter().map(|r| r.1).collect();
    let (goodput_hz, slo_miss, served_share) = match &report.traffic {
        Some(t) => (
            t.goodput_hz(),
            (t.dropped + t.deadline_violations) as f64 / t.offered as f64,
            t.served as f64 / t.offered as f64,
        ),
        None => (
            f.decisions * 1_000.0 / busy_ms,
            f.qos_violations / f.decisions,
            f.decisions / (w.config.sessions * w.config.decisions_per_session) as f64,
        ),
    };
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("decisions_per_s", median(&decisions), "1/s");
    out.metric("events_per_s", median(&events), "1/s");
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.metric(
        "q_bytes_per_session",
        report.store.bytes_per_session(report.sessions.len()),
        "bytes",
    );
    out.metric("energy_mj_per_inference", f.energy_mj / f.decisions, "mJ");
    out.metric("qos_violation_ratio", report.qos_violation_ratio(), "share");
    out.metric("neg_mean_reward", -f.reward / f.decisions, "reward");
    out.metric("goodput_hz", goodput_hz, "1/s");
    out.metric("slo_miss_share", slo_miss, "share");
    out.metric("served_share", served_share, "share");
    out.notes.push(format!(
        "measured {} serve() calls of {} sessions on {shards} shards, and {} set-ups",
        rates.len(),
        w.config.sessions,
        setup_times.len()
    ));
    out
}

/// Timings of one round of the traced run.
struct Round {
    /// Untraced one-shard `serve()` wall.
    serve_s: f64,
    /// Traced replay wall.
    traced_s: f64,
    /// The stage sums: session set-up and serving loops.
    stages_s: f64,
    /// Decision steps, scaled up from the sampled ones.
    steps_s: f64,
    /// Time inside the program's public functions.
    public_s: f64,
    /// Time inside sessions.
    sessions_s: f64,
    /// Time inside the sessions' serving loops.
    serve_loops_s: f64,
}

/// The traced run: one set-up and a sharded `serve()` for reference,
/// then rounds of an untraced one-shard `serve()` followed by the serial
/// traced replay, each checked against the reference, then a sharded
/// replay for shard balance. Reports every per-layer metric.
pub fn traced(w: &Workload) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (setup, _) = set_up(w, &mut out);
    let shards = resolve_threads(w.config.shards);
    let serial = ServeConfig {
        shards: Some(1),
        ..w.config
    };
    let report = match serve_timed(&setup, w, &w.config).1 {
        Ok(report) => report,
        Err(e) => {
            out.attempted = 1;
            out.fail(1, format!("serve(): {e}"));
            return out;
        }
    };
    if let Err(why) = w.check(&w.config, &report) {
        out.fail(0, why);
    }
    let units = w.attempted(&report);
    out.attempted = units as u64;
    let fleet = match Fleet::new(&setup.sim, &w.mix, &w.config, setup.warm.as_ref()) {
        Ok(fleet) => fleet,
        Err(e) => {
            out.fail(units, format!("replay: {e}"));
            return out;
        }
    };

    let mut marks = Vec::with_capacity(TRACE_ROUNDS);
    let mut spans = Spans::new(0.0, SAMPLE_EVERY);
    let mut rounds = Vec::new();
    let mut replay = None;
    let tracing = Instant::now();
    while rounds.len() < TRACE_ROUNDS || tracing.elapsed().as_secs_f64() < w.trace_seconds() {
        let (serve_s, one_shard) = serve_timed(&setup, w, &serial);
        match one_shard {
            Ok(one) if one.sessions == report.sessions && one.traffic == report.traffic => {}
            Ok(_) => out.fail(0, format!("serve() differs between 1 and {shards} shards")),
            Err(e) => {
                out.fail(units, format!("1-shard serve(): {e}"));
                return out;
            }
        }
        let mark_ns = calibrate_mark_ns();
        marks.push(mark_ns);
        let mut round = Spans::new(mark_ns, SAMPLE_EVERY);
        let started = Instant::now();
        let replayed = fleet.replay_serial(&mut round);
        let traced_s = started.elapsed().as_secs_f64();
        match replayed
            .map_err(|e| e.to_string())
            .and_then(|r| compare(&report, &r).map(|()| r))
        {
            Ok(r) => replay = Some(r),
            Err(why) => {
                out.fail(units, format!("traced replay: {why}"));
                return out;
            }
        }
        rounds.push(Round {
            serve_s,
            traced_s,
            stages_s: round.total_s(Stage::SessionSetup) + round.total_s(Stage::SessionServe),
            steps_s: round.total_s(Stage::Step),
            public_s: Stage::PUBLIC_CALLS.iter().map(|s| round.total_s(*s)).sum(),
            sessions_s: round.total_s(Stage::Session),
            serve_loops_s: round.total_s(Stage::SessionServe),
        });
        spans.absorb(round);
    }
    let replay = replay.expect("at least one round ran");
    let load = match fleet.replay_sharded(shards) {
        Ok((sharded, load)) => {
            if let Err(why) = compare(&report, &sharded) {
                out.fail(0, format!("sharded replay: {why}"));
            }
            load
        }
        Err(e) => {
            out.fail(0, format!("sharded replay: {e}"));
            return out;
        }
    };
    // Every ratio is taken within a round, whose untraced and traced
    // passes run back to back, and reported as the median over rounds:
    // the rest of the machine speeds up and slows down over seconds.
    let per_round = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let reconcile = per_round(|r| r.stages_s / r.serve_s);

    let traced_s: f64 = rounds.iter().map(|r| r.traced_s).sum();
    let mut table = vec![
        "| stage | count | p50 | p99 | share of traced wall |".to_string(),
        "|---|---:|---:|---:|---:|".to_string(),
    ];
    for stage in Stage::ALL {
        let s = spans.summary(stage);
        let name = stage.name();
        let share = s.total_s / traced_s;
        out.metric(&format!("{name}.count"), s.count as f64, "count");
        out.metric(&format!("{name}.p50"), s.p50, stage.unit());
        out.metric(&format!("{name}.p99"), s.p99, stage.unit());
        out.metric(&format!("{name}.share"), share, "share");
        table.push(format!(
            "| `{name}` | {} | {:.1} {u} | {:.1} {u} | {:.1}% |",
            s.count,
            s.p50,
            s.p99,
            100.0 * share,
            u = stage.unit()
        ));
    }

    let sessions = report.sessions.len() as f64;
    let f = fleetwide(&report);
    let converged: Vec<f64> = report
        .sessions
        .iter()
        .filter_map(|s| s.converged_at.map(|at| at as f64))
        .collect();
    let retries: usize = report.sessions.iter().map(|s| s.retries).sum();
    let fallbacks: usize = report.sessions.iter().map(|s| s.fallbacks).sum();
    out.metric("rl.explore_share", spans.explore_share(), "share");
    out.metric(
        "rl.converged_share",
        converged.len() as f64 / sessions,
        "share",
    );
    out.metric("rl.converged_at_p50", median(&converged), "decisions");
    out.metric(
        "rl.overlay_rows_per_session",
        report.store.overlay_rows as f64 / sessions,
        "rows",
    );
    out.metric(
        "rl.private_bytes_per_session",
        report.store.private_bytes as f64 / sessions,
        "bytes",
    );
    out.metric(
        "sim.retries_per_request",
        retries as f64 / f.decisions,
        "ratio",
    );
    out.metric(
        "sim.fallback_share",
        fallbacks as f64 / f.decisions,
        "share",
    );
    let traffic = report.traffic.as_ref();
    let refused_full: usize = replay
        .sessions
        .iter()
        .filter_map(|s| s.traffic.as_ref().map(|t| t.dropped_full))
        .sum();
    let share = |part: usize, whole: usize| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    out.metric(
        "openloop.served_share",
        traffic.map_or(0.0, |t| share(t.served, t.offered)),
        "share",
    );
    out.metric(
        "openloop.degraded_share",
        traffic.map_or(0.0, |t| share(t.degraded, t.served)),
        "share",
    );
    out.metric(
        "openloop.refused_full_share",
        traffic.map_or(0.0, |t| share(refused_full, t.offered)),
        "share",
    );
    out.metric(
        "openloop.queue_depth_p99",
        traffic.map_or(0.0, |t| t.queue_depth_percentile(99.0) as f64),
        "requests",
    );
    out.metric(
        "openloop.utilization",
        traffic.map_or(0.0, FleetTraffic::utilization),
        "share",
    );
    out.metric(
        "openloop.self_share",
        if traffic.is_some() {
            per_round(|r| (r.serve_s - r.public_s) / r.serve_s)
        } else {
            0.0
        },
        "share",
    );
    out.metric("parallel.imbalance", load.imbalance, "ratio");
    out.metric("parallel.idle_share", load.idle_share, "share");
    out.metric(
        "serve.unattributed_share",
        per_round(|r| (r.traced_s - r.sessions_s) / r.traced_s),
        "share",
    );
    out.metric("experiment.train_s", setup.train_s, "s");
    out.metric(
        "trace.overhead_ratio",
        per_round(|r| r.traced_s / r.serve_s),
        "ratio",
    );
    out.metric("trace.reconcile_ratio", reconcile, "ratio");
    out.metric(
        "trace.sampled_step_ratio",
        per_round(|r| r.steps_s / r.serve_loops_s),
        "ratio",
    );
    out.metric("trace.mark_ns", median(&marks), "ns");

    // The ledger bar is reported rather than gated: the replay's loop is
    // compiled apart from serve()'s, and code placement alone can move
    // the two by several percent, so a miss is a measurement caveat,
    // not a wrong output.
    let verdict = if (reconcile - 1.0).abs() <= RECONCILE_TOLERANCE {
        "within"
    } else {
        "OUTSIDE"
    };
    out.notes.push(format!(
        "{} rounds of untraced 1-shard serve() then traced replay: \
         median {:.3} s vs {:.3} s; session set-up and serving loops cover {:.1}% of \
         serve(), {verdict} ±{:.0}%; clock read {:.1} ns, subtracted for every read inside a span; \
         one decision and one arrival in {} timed",
        rounds.len(),
        per_round(|r| r.serve_s),
        per_round(|r| r.traced_s),
        100.0 * reconcile,
        100.0 * RECONCILE_TOLERANCE,
        median(&marks),
        spans.every()
    ));
    for (i, r) in rounds.iter().enumerate() {
        out.notes.push(format!(
            "round {i}: serve() {:.3} s, traced replay {:.3} s, set-up + serving loops {:.3} s",
            r.serve_s, r.traced_s, r.stages_s
        ));
    }
    out.notes.extend(table);
    out
}
