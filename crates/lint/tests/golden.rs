//! Golden-fixture self-tests for the analyzer, plus two workspace-level
//! gates: the live tree must be lint-clean, and a deliberately injected
//! entropy-seeded RNG must be caught.

use std::fs;
use std::path::{Path, PathBuf};

use autoscale_lint::rules::{analyze_file, Rule};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The virtual workspace path a fixture declares on its first line.
fn fixture_path(source: &str, file: &Path) -> String {
    let first = source.lines().next().unwrap_or_default();
    first
        .strip_prefix("// lint-fixture-path: ")
        .unwrap_or_else(|| panic!("{} must declare `// lint-fixture-path: …`", file.display()))
        .trim()
        .to_string()
}

#[test]
fn every_fixture_matches_its_expected_findings() {
    let mut checked = 0;
    let mut entries: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for fixture in entries {
        let source = fs::read_to_string(&fixture).expect("fixture is readable");
        let virtual_path = fixture_path(&source, &fixture);
        let got: Vec<String> = analyze_file(&virtual_path, &source)
            .into_iter()
            .map(|f| format!("{}:{}", f.line, f.rule.name()))
            .collect();
        let expected_file = fixture.with_extension("expected");
        let expected_text = fs::read_to_string(&expected_file)
            .unwrap_or_else(|_| panic!("{} needs {}", fixture.display(), expected_file.display()));
        let want: Vec<String> = expected_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        assert_eq!(
            got,
            want,
            "fixture {} (as {})",
            fixture.display(),
            virtual_path
        );
        checked += 1;
    }
    assert!(
        checked >= 9,
        "expected at least 9 fixtures, found {checked}"
    );
}

#[test]
fn the_lexer_token_stream_matches_its_golden_dump() {
    // Edge cases the rules depend on: raw identifiers and raw lifetimes
    // lex as their escaped name, float shapes keep exact text, `>>` is
    // two adjacent `>` tokens (context decides shift vs generic),
    // `'a` vs `'a'` resolve to lifetime vs literal, and doubly-nested
    // block comments close where they should.
    // Regenerate the dump with LEX_GOLDEN_REGEN=1.
    use autoscale_lint::lexer::{lex, TokenKind};
    let dir = fixtures_dir().join("lexer");
    let source = fs::read_to_string(dir.join("edge.rs")).expect("lexer fixture is readable");
    let got: Vec<String> = lex(&source)
        .tokens
        .iter()
        .map(|t| {
            let kind = match t.kind {
                TokenKind::Ident => "ident",
                TokenKind::Literal => "lit",
                TokenKind::Lifetime => "life",
                TokenKind::Punct(_) => "punct",
            };
            format!("{}:{}:{}", t.line, kind, t.text)
        })
        .collect();
    if std::env::var_os("LEX_GOLDEN_REGEN").is_some() {
        fs::write(dir.join("edge.tokens"), got.join("\n") + "\n").expect("dump is writable");
        return;
    }
    let want: Vec<String> = fs::read_to_string(dir.join("edge.tokens"))
        .expect("golden token dump exists")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(got, want, "token stream drifted from its golden dump");
}

#[test]
fn the_live_workspace_is_lint_clean() {
    let report =
        autoscale_lint::analyze_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "the tree must stay lint-clean; findings:\n{}",
        report.render_human()
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}

#[test]
fn a_swapped_time_suffix_in_the_power_model_is_caught() {
    // The acceptance check from issue 4: copy `platform/src/power.rs`,
    // swap `latency_ms` for a `_ns` value at one call site, and the
    // units checker must catch it. Two variants: the swap inside the
    // energy product (W × ns bound to `processor_mj` — a scale clash),
    // and a wrapper that feeds nanoseconds into the `latency_ms`
    // parameter (caught through the signature index).
    let power_path = workspace_root().join("crates/platform/src/power.rs");
    let pristine = fs::read_to_string(power_path).expect("power source is readable");
    assert!(
        analyze_file("crates/platform/src/power.rs", &pristine).is_empty(),
        "the pristine power model must be unit-clean"
    );

    let product_site = "busy_power_w(processor, cond) * latency_ms";
    assert!(pristine.contains(product_site), "sabotage site moved");
    let swapped = pristine.replace(product_site, "busy_power_w(processor, cond) * latency_ns");
    let findings = analyze_file("crates/platform/src/power.rs", &swapped);
    assert!(
        findings.iter().any(|f| f.rule == Rule::UnitBindingMismatch),
        "W × ns bound to `processor_mj` must be flagged; got {findings:?}"
    );

    let wrapper = format!(
        "{pristine}\npub fn sabotaged(p: &Processor, cond: &ExecutionConditions, elapsed_ns: f64) \
         -> EnergyBreakdown {{\n    on_device_energy_mj(p, cond, elapsed_ns, 0.8)\n}}\n"
    );
    let findings = analyze_file("crates/platform/src/power.rs", &wrapper);
    assert!(
        findings.iter().any(|f| f.rule == Rule::UnitArgMismatch),
        "nanoseconds into `latency_ms` must be flagged; got {findings:?}"
    );
}

#[test]
fn a_laundered_wall_clock_read_into_the_digest_is_caught() {
    // The interprocedural acceptance check from issue 8: read the wall
    // clock in one helper, forward it through a second, and fold the
    // result into the session digest two files' worth of calls away
    // from the `Instant::now()` — the taint pass must still connect
    // source to sink across the whole workspace.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/core/src/serve/session.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("session source present");
    sources[idx].1.push_str(
        "\nfn wall_probe_ns() -> u64 {\n\
         \x20   // lint:allow(nondeterministic-time): sabotage under test\n\
         \x20   std::time::Instant::now().elapsed().as_nanos() as u64\n\
         }\n\
         fn wall_relay_ns() -> u64 { wall_probe_ns() }\n\
         pub fn sabotaged_digest(mut digest: u64) -> u64 {\n\
         \x20   digest = fnv1a_fold(digest, wall_relay_ns());\n\
         \x20   digest\n\
         }\n",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    assert!(
        analysis
            .report
            .findings
            .iter()
            .any(|f| f.rule == Rule::TaintedDigest && f.file == target),
        "a two-hop laundered Instant::now must reach the digest sink; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn an_allocation_three_calls_below_the_decision_kernel_is_caught() {
    // The hot-path acceptance check from issue 8: a fresh `decide_*`
    // entry point on the engine reaches a Vec allocation through two
    // intermediate hops; reachability must pull the allocation into
    // the hot set and flag it.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/core/src/engine.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("engine source present");
    sources[idx].1.push_str(
        "\nimpl AutoScaleEngine {\n\
         \x20   pub fn decide_probe(&self) -> usize { sab_hop1() }\n\
         }\n\
         fn sab_hop1() -> usize { sab_hop2() }\n\
         fn sab_hop2() -> usize { sab_alloc() }\n\
         fn sab_alloc() -> usize {\n\
         \x20   let v: Vec<u64> = Vec::with_capacity(64);\n\
         \x20   v.len()\n\
         }\n",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    let hit = analysis.report.findings.iter().any(|f| {
        f.rule == Rule::HotPathAlloc && f.file == target && f.message.contains("decide_probe")
    });
    assert!(
        hit,
        "Vec::with_capacity three calls below decide_probe must be flagged with its \
         entry-point witness; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn an_allocation_in_the_decision_kernel_exploit_arm_is_caught() {
    // The decision kernel is a plain type with inherent methods, so the
    // hot-path pass reaches `ScalarKernel::select` only through its
    // callers (`AutoScaleEngine::decide_kernel` -> the engine's private
    // decision body -> `ScalarKernel::select`). An allocation added to
    // the exploit arm must still be flagged.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/rl/src/kernel.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("kernel source present");
    let body = "q.best_action(state, mask.bools()).map(|(a, _)| a)";
    assert!(sources[idx].1.contains(body), "sabotage site moved");
    sources[idx].1 = sources[idx].1.replace(
        body,
        "let sab: Vec<u64> = Vec::with_capacity(64);\n\
         \x20       q.best_action(state, mask.bools()).map(|(a, _)| a + sab.len())",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    let hit = analysis.report.findings.iter().any(|f| {
        f.rule == Rule::HotPathAlloc && f.file == target && f.message.contains("decide_kernel")
    });
    assert!(
        hit,
        "an allocation in ScalarKernel::select's exploit arm must be flagged as hot-path-alloc with a \
         decide_kernel witness; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn an_allocation_in_the_shared_session_body_is_caught() {
    // Closed- and open-loop serving share one per-request body,
    // `DeviceSession::serve_request`, reached from `DeviceSession::run`
    // directly and through the open-loop driver. An allocation planted
    // in it must be flagged with a `DeviceSession::run` witness.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/core/src/serve/session.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("session source present");
    let body = "let snapshot = self.env.sample(&mut self.rng);";
    assert_eq!(
        sources[idx].1.matches(body).count(),
        1,
        "sabotage site moved"
    );
    let at = sources[idx].1.find(body).expect("site present");
    let line = sources[idx].1[..at].matches('\n').count() as u32 + 1;
    sources[idx].1 = sources[idx].1.replace(
        body,
        "let sab: Vec<u64> = Vec::with_capacity(64); let _ = sab.len();\n\
         \x20       let snapshot = self.env.sample(&mut self.rng);",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    let hit = analysis.report.findings.iter().any(|f| {
        f.rule == Rule::HotPathAlloc
            && f.file == target
            && f.line == line
            && f.message.contains("DeviceSession::run")
    });
    assert!(
        hit,
        "an allocation in DeviceSession::serve_request (line {line}) must be flagged as \
         hot-path-alloc with a DeviceSession::run witness; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn a_conditional_extra_fault_draw_is_caught() {
    // The stream-discipline acceptance check from issue 9: give a copy
    // of the fault injector a request method whose branch arms consume
    // unequal draw counts. FaultInjector methods are per-request entry
    // points, so the interval analysis must flag the divergence — this
    // is exactly the drift that would break FAULT_DRAWS_PER_REQUEST.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/sim/src/faults.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("faults source present");
    sources[idx].1.push_str(
        "\nimpl FaultInjector {\n\
         \x20   pub fn sabotaged_faults(&mut self, hard: bool) -> f64 {\n\
         \x20       if hard {\n\
         \x20           self.rng.next_f64()\n\
         \x20       } else {\n\
         \x20           0.0\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    let hit = analysis.report.findings.iter().any(|f| {
        f.rule == Rule::DivergentRngDraws
            && f.file == target
            && f.message.contains("sabotaged_faults")
    });
    assert!(
        hit,
        "a conditional extra fault draw must be flagged as divergent-rng-draws; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn a_static_mut_counter_under_a_decide_path_is_caught() {
    // The shared-state acceptance check from issue 9: hang a `static
    // mut` counter one call below a fresh `decide_*` entry point in the
    // kernel source. The serve-path reachability pass must flag the
    // counter's use and name the entry point in the witness chain.
    let root = workspace_root();
    let mut sources = autoscale_lint::read_workspace_sources(&root).expect("workspace is readable");
    let target = "crates/rl/src/kernel.rs";
    let idx = sources
        .iter()
        .position(|(p, _)| p == target)
        .expect("kernel source present");
    sources[idx].1.push_str(
        "\nstatic mut SAB_DECIDES: u64 = 0;\n\
         fn sab_counter_bump() -> u64 {\n\
         \x20   unsafe {\n\
         \x20       SAB_DECIDES += 1;\n\
         \x20       SAB_DECIDES\n\
         \x20   }\n\
         }\n\
         pub fn decide_sabotaged() -> u64 {\n\
         \x20   sab_counter_bump()\n\
         }\n",
    );
    let analysis = autoscale_lint::analyze_sources(sources);
    let hit = analysis.report.findings.iter().any(|f| {
        f.rule == Rule::SharedMutableHotState
            && f.file == target
            && f.message.contains("decide_sabotaged")
    });
    assert!(
        hit,
        "a static mut counter under a decide path must be flagged with its witness; findings:\n{}",
        analysis.report.render_human()
    );
}

#[test]
fn an_injected_thread_rng_in_the_policy_is_caught() {
    // The acceptance check from the issue: sabotaging the epsilon-greedy
    // policy with an entropy-seeded RNG must flip the analyzer to red
    // with rule `nondeterministic-rng`.
    let policy_path = workspace_root().join("crates/rl/src/policy.rs");
    let pristine = fs::read_to_string(policy_path).expect("policy source is readable");
    assert!(
        analyze_file("crates/rl/src/policy.rs", &pristine).is_empty(),
        "the pristine policy must be clean"
    );
    let sabotaged = format!(
        "{pristine}\npub fn sabotage() -> f64 {{\n    let mut rng = rand::thread_rng();\n    rng.gen()\n}}\n"
    );
    let findings = analyze_file("crates/rl/src/policy.rs", &sabotaged);
    assert!(
        findings.iter().any(|f| f.rule == Rule::NondeterministicRng),
        "thread_rng must be flagged; got {findings:?}"
    );
}
