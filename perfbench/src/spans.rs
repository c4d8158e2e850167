//! Span recording for the traced replay.
//!
//! The replay is generic over a [`Tracer`]. [`Untraced`] reads no clock
//! and compiles to the plain session loop; [`Spans`] reads a monotonic
//! clock at every stage boundary and keeps every span duration in memory
//! until the run ends, so percentiles are exact.
//!
//! Every recorded time is *net* of the clock reads made inside it: each
//! [`Mark`] counts the reads so far, and a span subtracts the calibrated
//! cost of one read ([`calibrate_mark_ns`]) for every read it contains.

use std::time::Instant;

/// The stages the replay times, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `QLearningAgent::new` (cold dense) or `overlay_variant` (warm cow).
    AgentInit,
    /// Agent init plus `AutoScaleEngine::with_agent`.
    EngineBuild,
    /// `AutoScaleEngine::with_agent`: workload contexts and masks.
    EngineContexts,
    /// `Simulator::prepare`.
    Prepare,
    /// One whole session, set-up to report.
    Session,
    /// Everything before a session's first decision.
    SessionSetup,
    /// A session's serving loop: every decision, and in an open loop
    /// every arrival and queue event.
    SessionServe,
    /// One whole decision: sample, decide, execute, learn, converge.
    Step,
    /// `Environment::sample`.
    EnvSample,
    /// `AutoScaleEngine::decide_kernel` / `decide_kernel_frozen`.
    Decide,
    /// `PreparedExecutor::execute_measured` / `execute_resilient`.
    Execute,
    /// `FaultInjector::next_faults`.
    Faults,
    /// `AutoScaleEngine::learn`.
    Learn,
    /// `AutoScaleEngine::is_converged` plus `freeze` when it fires.
    Converge,
    /// `ArrivalSampler::next_arrival`.
    Arrival,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 15] = [
        Stage::AgentInit,
        Stage::EngineBuild,
        Stage::EngineContexts,
        Stage::Prepare,
        Stage::Session,
        Stage::SessionSetup,
        Stage::SessionServe,
        Stage::Step,
        Stage::EnvSample,
        Stage::Decide,
        Stage::Execute,
        Stage::Faults,
        Stage::Learn,
        Stage::Converge,
        Stage::Arrival,
    ];

    /// The stages that are calls into the program's public functions.
    /// They do not nest, so their sum is the time the replay spent
    /// inside the program.
    pub const PUBLIC_CALLS: [Stage; 10] = [
        Stage::AgentInit,
        Stage::EngineContexts,
        Stage::Prepare,
        Stage::EnvSample,
        Stage::Decide,
        Stage::Execute,
        Stage::Faults,
        Stage::Learn,
        Stage::Converge,
        Stage::Arrival,
    ];

    /// The metric name, with its unit as the suffix.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AgentInit => "rl.agent_init_us",
            Stage::EngineBuild => "engine.build_us",
            Stage::EngineContexts => "engine.contexts_us",
            Stage::Prepare => "sim.prepare_us",
            Stage::Session => "session.total_us",
            Stage::SessionSetup => "session.setup_us",
            Stage::SessionServe => "session.serve_us",
            Stage::Step => "session.step_ns",
            Stage::EnvSample => "sim.env_sample_ns",
            Stage::Decide => "engine.decide_ns",
            Stage::Execute => "sim.execute_ns",
            Stage::Faults => "sim.faults_ns",
            Stage::Learn => "engine.learn_ns",
            Stage::Converge => "rl.converge_ns",
            Stage::Arrival => "sim.arrival_ns",
        }
    }

    /// The unit percentiles are reported in.
    pub fn unit(self) -> &'static str {
        if self.name().ends_with("_us") {
            "us"
        } else {
            "ns"
        }
    }

    /// The event a stage is recorded per, if it is sampled.
    fn event(self) -> Option<Event> {
        match self {
            Stage::Step
            | Stage::EnvSample
            | Stage::Decide
            | Stage::Execute
            | Stage::Faults
            | Stage::Learn
            | Stage::Converge => Some(Event::Decision),
            Stage::Arrival => Some(Event::Arrival),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The per-event work a tracer may time only a sample of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One decision: the step and its stages.
    Decision,
    /// One `ArrivalSampler::next_arrival` call.
    Arrival,
}

/// A point in a traced run: the clock, and how many clock reads the
/// tracer had made when it was taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    ns: u64,
    reads: u64,
}

impl Mark {
    /// The interval from this mark to a later one.
    pub fn to(self, end: Mark) -> Interval {
        Interval {
            ns: end.ns.saturating_sub(self.ns),
            reads: end.reads - self.reads,
        }
    }
}

/// Time between two marks, with the clock reads made inside it (the
/// closing read included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interval {
    ns: u64,
    reads: u64,
}

impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            ns: self.ns + other.ns,
            reads: self.reads + other.reads,
        }
    }
}

/// A source of stage boundaries for the replay.
pub trait Tracer {
    /// Whether this tracer records anything; the replay skips its
    /// trace-only bookkeeping when it does not.
    const ENABLED: bool;

    /// The current point in the run.
    fn mark(&mut self) -> Mark;

    /// Records one sample of `stage`.
    fn record(&mut self, stage: Stage, interval: Interval);

    /// Whether to time the next event of this kind; every event is
    /// offered, so the tracer knows the population it samples from.
    fn sample(&mut self, event: Event) -> bool;

    /// Records the span between two marks.
    fn span(&mut self, stage: Stage, from: Mark, to: Mark) {
        self.record(stage, from.to(to));
    }

    /// Counts one decision whose chosen action differs from the greedy
    /// one.
    fn explored(&mut self);
}

/// The tracer that reads no clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    const ENABLED: bool = false;

    #[inline(always)]
    fn mark(&mut self) -> Mark {
        Mark::default()
    }

    #[inline(always)]
    fn record(&mut self, _stage: Stage, _interval: Interval) {}

    #[inline(always)]
    fn sample(&mut self, _event: Event) -> bool {
        false
    }

    #[inline(always)]
    fn explored(&mut self) {}
}

/// The tracer that keeps every span, net of the clock reads inside it.
/// Sessions are timed whole; decisions and arrivals one in
/// `every`, and their stage totals are scaled up to all of them.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    reads: u64,
    mark_ns: f64,
    every: u64,
    /// Events offered and events sampled, per [`Event`].
    offered: [u64; 2],
    sampled: [u64; 2],
    samples: Vec<Vec<f32>>,
    totals: [f64; Stage::ALL.len()],
    explored: usize,
}

impl Spans {
    /// A tracer that times one decision and one arrival in `every`,
    /// and subtracts `mark_ns` for every clock read a span contains
    /// (see [`calibrate_mark_ns`]).
    pub fn new(mark_ns: f64, every: u64) -> Self {
        Spans {
            origin: Instant::now(),
            reads: 0,
            mark_ns,
            every: every.max(1),
            offered: [0; 2],
            sampled: [0; 2],
            samples: vec![Vec::new(); Stage::ALL.len()],
            totals: [0.0; Stage::ALL.len()],
            explored: 0,
        }
    }
}

impl Tracer for Spans {
    const ENABLED: bool = true;

    #[inline(always)]
    fn mark(&mut self) -> Mark {
        self.reads += 1;
        Mark {
            ns: u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX),
            reads: self.reads,
        }
    }

    #[inline(always)]
    fn record(&mut self, stage: Stage, interval: Interval) {
        let net = interval.ns as f64 - interval.reads as f64 * self.mark_ns;
        self.totals[stage.index()] += net;
        self.samples[stage.index()].push(net as f32);
    }

    fn sample(&mut self, event: Event) -> bool {
        let i = event as usize;
        let take = self.offered[i].is_multiple_of(self.every);
        self.offered[i] += 1;
        self.sampled[i] += u64::from(take);
        take
    }

    fn explored(&mut self) {
        self.explored += 1;
    }
}

/// One stage's summary, net of the calibrated clock-read cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Samples recorded.
    pub count: usize,
    /// Median net duration, in the stage's unit.
    pub p50: f64,
    /// 99th-percentile net duration, in the stage's unit.
    pub p99: f64,
    /// Net total over every event, sampled or not, in seconds.
    pub total_s: f64,
}

impl Spans {
    /// The share of timed decisions whose chosen action was not the
    /// greedy one.
    pub fn explore_share(&self) -> f64 {
        let timed = self.sampled[Event::Decision as usize];
        if timed == 0 {
            return 0.0;
        }
        self.explored as f64 / timed as f64
    }

    /// One event in how many is timed.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// One stage's net total over every event, sampled or not, in
    /// seconds.
    pub fn total_s(&self, stage: Stage) -> f64 {
        let scale_up = match stage.event() {
            Some(event) if self.sampled[event as usize] > 0 => {
                self.offered[event as usize] as f64 / self.sampled[event as usize] as f64
            }
            _ => 1.0,
        };
        self.totals[stage.index()] * scale_up * 1e-9
    }

    /// Adds another tracer's spans and counts to this one's.
    pub fn absorb(&mut self, other: Spans) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            *mine += theirs;
        }
        for i in 0..2 {
            self.offered[i] += other.offered[i];
            self.sampled[i] += other.sampled[i];
        }
        self.explored += other.explored;
    }

    /// Summarizes one stage.
    pub fn summary(&mut self, stage: Stage) -> StageSummary {
        let scale = if stage.unit() == "us" { 1e-3 } else { 1.0 };
        let samples = &mut self.samples[stage.index()];
        let count = samples.len();
        let (p50, p99) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from(percentile(samples, 50.0)) * scale,
                f64::from(percentile(samples, 99.0)) * scale,
            )
        };
        StageSummary {
            stage,
            count,
            p50,
            p99,
            total_s: self.total_s(stage),
        }
    }
}

/// The nearest-rank `p`-th percentile; reorders `samples`.
fn percentile(samples: &mut [f32], p: f64) -> f32 {
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    *samples.select_nth_unstable_by(rank, f32::total_cmp).1
}

/// The cost of one [`Spans::mark`] in nanoseconds: the median over
/// several batches of back-to-back reads.
pub fn calibrate_mark_ns() -> f64 {
    const READS: u64 = 100_000;
    let mut spans = Spans::new(0.0, 1);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = spans.mark();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(spans.mark());
            }
            start.to(last).ns as f64 / READS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut samples: Vec<f32> = (1..=100).rev().map(|v| v as f32).collect();
        assert_eq!(percentile(&mut samples, 50.0), 51.0);
        assert_eq!(percentile(&mut samples, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn spans_subtract_the_clock_reads_they_contain() {
        let mut spans = Spans::new(20.0, 1);
        let start = spans.mark();
        let inner = spans.mark();
        let end = spans.mark();
        assert_eq!(start.to(end).reads, 2);
        spans.record(Stage::Decide, Interval { ns: 100, reads: 1 });
        spans.record(
            Stage::Step,
            Interval {
                ns: 1_000,
                reads: 5,
            },
        );
        spans.record(Stage::Step, start.to(inner) + inner.to(end));
        let decide = spans.summary(Stage::Decide);
        assert_eq!((decide.count, decide.p50), (1, 80.0));
        assert_eq!(spans.summary(Stage::Step).p99, 900.0);
        let idle = spans.summary(Stage::Arrival);
        assert_eq!((idle.count, idle.total_s), (0, 0.0));
    }

    #[test]
    fn sampled_stage_totals_stand_for_every_event() {
        let mut spans = Spans::new(0.0, 4);
        let taken: Vec<bool> = (0..8).map(|_| spans.sample(Event::Decision)).collect();
        assert_eq!(
            taken,
            [true, false, false, false, true, false, false, false]
        );
        for _ in 0..2 {
            spans.record(Stage::Decide, Interval { ns: 50, reads: 0 });
        }
        let decide = spans.summary(Stage::Decide);
        assert_eq!(decide.count, 2);
        assert!(
            (decide.total_s - 400e-9).abs() < 1e-15,
            "{}",
            decide.total_s
        );
    }

    #[test]
    fn stage_names_carry_their_units() {
        for stage in Stage::ALL {
            assert!(stage.name().ends_with(stage.unit()), "{}", stage.name());
        }
        assert!(calibrate_mark_ns() > 0.0);
    }
}
