//! Rendering a lint run: human-readable lines for terminals and a
//! stable JSON document for baselines and tooling.
//!
//! The JSON is hand-rolled (this crate is std-only by design) and
//! field-ordered deterministically, so `results/lint_baseline.json`
//! diffs cleanly across PRs.

use std::collections::BTreeMap;

use crate::rules::{Finding, Rule};

/// Shape of the interprocedural analysis behind a report: how much of
/// the workspace the call graph could see and resolve. Zero-valued when
/// the report came from a per-file run without the workspace passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Function definitions in the call graph.
    pub functions: usize,
    /// Resolved fn-to-fn call edges.
    pub call_edges: usize,
    /// Call sites (non-test lib/bin code) the graph could not resolve.
    pub unresolved_calls: usize,
    /// Functions reachable from a decision hot-path entry.
    pub hot_functions: usize,
    /// Functions the taint pass marks as returning tainted values.
    pub taint_returning: usize,
    /// Functions whose draw intervals the stream pass checked (reachable
    /// from per-request entry points).
    pub stream_checked: usize,
    /// Lock acquisition sites the shared-state pass recorded.
    pub lock_sites: usize,
}

/// Wall-clock cost of each analyzer pass, in milliseconds. Carried on
/// the report only when `--timings` asks for it, and always stripped
/// before a baseline is written — baselines must stay byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassTimings {
    /// Lexing every file.
    pub lex_ms: f64,
    /// Units parsing + signature index + per-file token rules.
    pub parse_ms: f64,
    /// Building the workspace call graph.
    pub callgraph_ms: f64,
    /// The interprocedural taint pass.
    pub taint_ms: f64,
    /// Hot-path reachability + allocation checks.
    pub hotpath_ms: f64,
    /// The RNG stream-discipline pass.
    pub streams_ms: f64,
    /// The shared-state / lock-order pass.
    pub shared_ms: f64,
}

impl PassTimings {
    /// Total across all passes.
    pub fn total_ms(&self) -> f64 {
        self.lex_ms
            + self.parse_ms
            + self.callgraph_ms
            + self.taint_ms
            + self.hotpath_ms
            + self.streams_ms
            + self.shared_ms
    }
}

/// The outcome of analyzing a set of files.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every unsuppressed finding, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings waived by `lint:allow`/`lint:hot-exempt`, same order.
    /// Kept visible so waivers are auditable from the JSON report and
    /// so the baseline diff can tell "fixed" from "silenced".
    pub suppressed: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Call-graph/taint coverage numbers for this run.
    pub analysis: AnalysisStats,
    /// Per-pass wall-clock timings; `None` unless `--timings` asked for
    /// them (and always `None` in baselines).
    pub timings: Option<PassTimings>,
}

impl Report {
    /// Builds a report, normalizing finding order.
    pub fn new(findings: Vec<Finding>, files_scanned: usize) -> Self {
        Report::with_details(
            findings,
            Vec::new(),
            files_scanned,
            AnalysisStats::default(),
        )
    }

    /// Builds a report that also carries suppressed findings and the
    /// interprocedural coverage stats.
    pub fn with_details(
        mut findings: Vec<Finding>,
        mut suppressed: Vec<Finding>,
        files_scanned: usize,
        analysis: AnalysisStats,
    ) -> Self {
        let order = |list: &mut Vec<Finding>| {
            list.sort_by(|a: &Finding, b: &Finding| {
                (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
            });
            list.dedup();
        };
        order(&mut findings);
        order(&mut suppressed);
        Report {
            findings,
            suppressed,
            files_scanned,
            analysis,
            timings: None,
        }
    }

    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts per rule, every rule present (zero included) so
    /// baseline diffs show rule additions explicitly.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            Rule::ALL.iter().map(|r| (r.name(), 0)).collect();
        for f in &self.findings {
            if let Some(n) = counts.get_mut(f.rule.name()) {
                *n += 1;
            }
        }
        counts
    }

    /// Terminal rendering: one `file:line: [rule] message` per finding,
    /// then a per-rule summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file,
                f.line,
                f.rule.name(),
                f.message
            ));
        }
        let per_rule: Vec<String> = self
            .counts()
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(name, n)| format!("{name}: {n}"))
            .collect();
        let waived = if self.suppressed.is_empty() {
            String::new()
        } else {
            format!(" ({} waived)", self.suppressed.len())
        };
        if self.is_clean() {
            out.push_str(&format!(
                "autoscale-lint: clean — 0 findings{waived} across {} files\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "autoscale-lint: {} finding{} ({}){waived} across {} files\n",
                self.findings.len(),
                if self.findings.len() == 1 { "" } else { "s" },
                per_rule.join(", "),
                self.files_scanned
            ));
        }
        if self.analysis.functions > 0 {
            let a = &self.analysis;
            out.push_str(&format!(
                "call graph: {} functions, {} edges ({} unresolved), \
                 {} hot, {} taint-returning, {} stream-checked, {} lock sites\n",
                a.functions,
                a.call_edges,
                a.unresolved_calls,
                a.hot_functions,
                a.taint_returning,
                a.stream_checked,
                a.lock_sites
            ));
        }
        if let Some(t) = &self.timings {
            out.push_str(&format!(
                "timings: lex {:.1} ms, parse {:.1} ms, callgraph {:.1} ms, \
                 taint {:.1} ms, hotpath {:.1} ms, streams {:.1} ms, \
                 shared {:.1} ms (total {:.1} ms)\n",
                t.lex_ms,
                t.parse_ms,
                t.callgraph_ms,
                t.taint_ms,
                t.hotpath_ms,
                t.streams_ms,
                t.shared_ms,
                t.total_ms()
            ));
        }
        out
    }

    /// JSON rendering with stable field and entry order.
    ///
    /// `findings` comes first and `suppressed` second — baseline
    /// parsing relies on that order to tell the two lists apart (see
    /// [`parse_baseline`]).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        render_finding_array(&mut out, &self.findings);
        out.push_str("],\n  \"suppressed\": [");
        render_finding_array(&mut out, &self.suppressed);
        out.push_str("],\n  \"counts\": {");
        for (i, (name, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {n}"));
        }
        let a = &self.analysis;
        out.push_str(&format!(
            "\n  }},\n  \"analysis\": {{\"functions\": {}, \"call_edges\": {}, \
             \"unresolved_calls\": {}, \"hot_functions\": {}, \"taint_returning\": {}, \
             \"stream_checked\": {}, \"lock_sites\": {}}},",
            a.functions,
            a.call_edges,
            a.unresolved_calls,
            a.hot_functions,
            a.taint_returning,
            a.stream_checked,
            a.lock_sites
        ));
        if let Some(t) = &self.timings {
            out.push_str(&format!(
                "\n  \"timings\": {{\"lex_ms\": {:.2}, \"parse_ms\": {:.2}, \
                 \"callgraph_ms\": {:.2}, \"taint_ms\": {:.2}, \"hotpath_ms\": {:.2}, \
                 \"streams_ms\": {:.2}, \"shared_ms\": {:.2}, \"total_ms\": {:.2}}},",
                t.lex_ms,
                t.parse_ms,
                t.callgraph_ms,
                t.taint_ms,
                t.hotpath_ms,
                t.streams_ms,
                t.shared_ms,
                t.total_ms()
            ));
        }
        out.push_str(&format!(
            "\n  \"total\": {},\n  \"files_scanned\": {}\n}}\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }
}

fn render_finding_array(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.name(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
}

/// One baseline entry: the identity of a previously-accepted finding.
/// Messages are deliberately not part of the identity — rewording a
/// diagnostic must not break the baseline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (kept as text so baselines survive rule renames as
    /// explicit diffs rather than parse errors).
    pub rule: String,
}

impl BaselineEntry {
    fn of(f: &Finding) -> BaselineEntry {
        BaselineEntry {
            file: f.file.clone(),
            line: f.line,
            rule: f.rule.name().to_string(),
        }
    }
}

/// A committed baseline: the accepted findings and the inventory of
/// waived ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries of the `findings` list.
    pub findings: Vec<BaselineEntry>,
    /// Entries of the `suppressed` list: every finding a waiver
    /// comment silenced when the baseline was written.
    pub suppressed: Vec<BaselineEntry>,
}

/// The comparison of a fresh run against a committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineDiff {
    /// Findings not present in the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Baseline entries no longer reported — fixed (or moved); they
    /// never fail the run, but the baseline should be regenerated.
    pub fixed: Vec<BaselineEntry>,
    /// Waived findings the baseline's `suppressed` list does not name —
    /// a new (or moved) waiver; these fail the run.
    pub unlisted_waivers: Vec<Finding>,
    /// `suppressed` entries this run no longer waives — the inventory
    /// is stale; these fail the run.
    pub stale_waivers: Vec<BaselineEntry>,
}

impl BaselineDiff {
    /// Whether the run matches the baseline: no new findings and no
    /// drift in the waiver inventory.
    pub fn passes(&self) -> bool {
        self.new.is_empty() && self.unlisted_waivers.is_empty() && self.stale_waivers.is_empty()
    }
}

/// Parses the analyzer's own JSON format (see [`Report::render_json`])
/// back into a [`Baseline`]. This is not a general JSON parser: it
/// reads the one-object-per-line layout this crate writes, which is
/// exactly what a committed `results/lint_baseline.json` contains.
///
/// # Errors
///
/// Returns a message when the document has no `"findings"` key or an
/// entry line is missing one of `file`/`line`/`rule`.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    if !text.contains("\"findings\"") {
        return Err("not a lint report: no \"findings\" key".to_string());
    }
    let mut baseline = Baseline::default();
    // Entry lines after the `"suppressed"` key describe waived findings.
    let mut in_suppressed = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"suppressed\"") {
            in_suppressed = true;
            continue;
        }
        let Some(rest) = line.strip_prefix('{') else {
            continue;
        };
        if !rest.trim_start().starts_with("\"file\"") {
            continue;
        }
        let file = json_str_field(line, "file")
            .ok_or_else(|| format!("baseline entry without a file: {line}"))?;
        let lineno = json_num_field(line, "line")
            .ok_or_else(|| format!("baseline entry without a line: {line}"))?;
        let rule = json_str_field(line, "rule")
            .ok_or_else(|| format!("baseline entry without a rule: {line}"))?;
        let list = if in_suppressed {
            &mut baseline.suppressed
        } else {
            &mut baseline.findings
        };
        list.push(BaselineEntry {
            file,
            line: lineno,
            rule,
        });
    }
    for list in [&mut baseline.findings, &mut baseline.suppressed] {
        list.sort();
        list.dedup();
    }
    Ok(baseline)
}

/// Extracts `"key": "value"` from a single-line JSON object, undoing
/// the escapes [`json_escape`] writes.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    // \uXXXX — baseline identities never need these;
                    // keep the escape verbatim.
                    out.push_str("\\u");
                }
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts `"key": 123` from a single-line JSON object.
fn json_num_field(line: &str, key: &str) -> Option<u32> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

impl Report {
    /// Splits this run's findings against a baseline: what is new
    /// (fails), what the baseline lists but the run no longer reports
    /// (fixed), and how the waived findings drifted from the baseline's
    /// `suppressed` inventory (fails either way).
    pub fn against_baseline(&self, baseline: &Baseline) -> BaselineDiff {
        let current: Vec<BaselineEntry> = self.findings.iter().map(BaselineEntry::of).collect();
        let waived: Vec<BaselineEntry> = self.suppressed.iter().map(BaselineEntry::of).collect();
        let new = self
            .findings
            .iter()
            .filter(|f| !baseline.findings.contains(&BaselineEntry::of(f)))
            .cloned()
            .collect();
        // A baseline entry that is now *suppressed* was silenced, not
        // fixed — claiming it fixed would invite a baseline regen that
        // hides the waiver.
        let fixed = baseline
            .findings
            .iter()
            .filter(|e| !current.contains(e) && !waived.contains(e))
            .cloned()
            .collect();
        let unlisted_waivers = self
            .suppressed
            .iter()
            .filter(|f| !baseline.suppressed.contains(&BaselineEntry::of(f)))
            .cloned()
            .collect();
        let stale_waivers = baseline
            .suppressed
            .iter()
            .filter(|e| !waived.contains(e))
            .cloned()
            .collect();
        BaselineDiff {
            new,
            fixed,
            unlisted_waivers,
            stale_waivers,
        }
    }
}

/// Escapes a string for a JSON double-quoted context.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: Rule) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: "msg with \"quotes\"".to_string(),
        }
    }

    #[test]
    fn findings_are_ordered_and_counted() {
        let report = Report::new(
            vec![
                finding("b.rs", 3, Rule::PanicInLib),
                finding("a.rs", 9, Rule::NondeterministicRng),
                finding("a.rs", 2, Rule::PanicInLib),
            ],
            5,
        );
        let order: Vec<(&str, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(order, vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 3)]);
        assert_eq!(report.counts()["panic-in-lib"], 2);
        assert_eq!(report.counts()["nondeterministic-rng"], 1);
        assert_eq!(report.counts()["print-in-lib"], 0);
    }

    #[test]
    fn human_rendering_summarizes() {
        let report = Report::new(vec![finding("a.rs", 1, Rule::PrintInLib)], 2);
        let text = report.render_human();
        assert!(text.contains("a.rs:1: [print-in-lib]"));
        assert!(text.contains("1 finding (print-in-lib: 1) across 2 files"));
        let clean = Report::new(Vec::new(), 7);
        assert!(clean
            .render_human()
            .contains("clean — 0 findings across 7 files"));
    }

    #[test]
    fn baselines_round_trip_through_the_json_renderer() {
        let report = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnitMismatch),
                finding("b.rs", 7, Rule::PanicInLib),
            ],
            3,
        );
        let baseline = parse_baseline(&report.render_json()).expect("own JSON parses");
        let entries = &baseline.findings;
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].file, "a.rs");
        assert_eq!(entries[0].line, 2);
        assert_eq!(entries[0].rule, "unit-mismatch");
        // A full round trip is a no-op diff.
        let diff = report.against_baseline(&baseline);
        assert!(diff.new.is_empty());
        assert!(diff.fixed.is_empty());
        assert!(diff.passes());
    }

    #[test]
    fn baseline_diff_separates_new_from_fixed() {
        let old = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnitMismatch),
                finding("gone.rs", 4, Rule::PrintInLib),
            ],
            3,
        );
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnitMismatch),
                finding("fresh.rs", 9, Rule::UnitArgMismatch),
            ],
            3,
        );
        let diff = now.against_baseline(&baseline);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.new[0].file, "fresh.rs");
        assert_eq!(diff.fixed.len(), 1);
        assert_eq!(diff.fixed[0].file, "gone.rs");
    }

    #[test]
    fn non_reports_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("findings findings").is_err());
        // An empty findings list is a valid (clean) baseline.
        let clean = Report::new(Vec::new(), 1);
        assert_eq!(
            parse_baseline(&clean.render_json()).expect("parses"),
            Baseline::default()
        );
    }

    #[test]
    fn suppressed_findings_stay_out_of_the_baseline() {
        let report = Report::with_details(
            vec![finding("a.rs", 2, Rule::UnitMismatch)],
            vec![finding("waived.rs", 9, Rule::HotPathAlloc)],
            3,
            AnalysisStats::default(),
        );
        let baseline = parse_baseline(&report.render_json()).expect("parses");
        assert_eq!(baseline.findings.len(), 1);
        assert_eq!(baseline.findings[0].file, "a.rs");
        assert_eq!(baseline.suppressed.len(), 1);
        assert_eq!(baseline.suppressed[0].file, "waived.rs");
    }

    #[test]
    fn a_waiver_missing_from_the_baseline_fails_the_check() {
        let old = Report::with_details(
            Vec::new(),
            vec![finding("waived.rs", 9, Rule::HotPathAlloc)],
            1,
            AnalysisStats::default(),
        );
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::with_details(
            Vec::new(),
            vec![
                finding("waived.rs", 9, Rule::HotPathAlloc),
                finding("fresh.rs", 4, Rule::PanicInLib),
            ],
            1,
            AnalysisStats::default(),
        );
        let diff = now.against_baseline(&baseline);
        assert!(diff.new.is_empty(), "a waived finding is not a new finding");
        assert_eq!(diff.unlisted_waivers.len(), 1);
        assert_eq!(diff.unlisted_waivers[0].file, "fresh.rs");
        assert!(diff.stale_waivers.is_empty());
        assert!(!diff.passes());
    }

    #[test]
    fn a_stale_baseline_waiver_fails_the_check() {
        let old = Report::with_details(
            Vec::new(),
            vec![
                finding("waived.rs", 9, Rule::HotPathAlloc),
                finding("gone.rs", 3, Rule::PanicInLib),
            ],
            1,
            AnalysisStats::default(),
        );
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::with_details(
            Vec::new(),
            vec![finding("waived.rs", 9, Rule::HotPathAlloc)],
            1,
            AnalysisStats::default(),
        );
        let diff = now.against_baseline(&baseline);
        assert!(diff.new.is_empty() && diff.fixed.is_empty());
        assert!(diff.unlisted_waivers.is_empty());
        assert_eq!(diff.stale_waivers.len(), 1);
        assert_eq!(diff.stale_waivers[0].file, "gone.rs");
        assert!(!diff.passes());
    }

    #[test]
    fn suppressed_findings_do_not_count_as_fixed() {
        // Yesterday the finding was live and baselined; today it is
        // suppressed. That is "silenced", not "fixed".
        let old = Report::new(vec![finding("a.rs", 2, Rule::PanicInLib)], 1);
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::with_details(
            Vec::new(),
            vec![finding("a.rs", 2, Rule::PanicInLib)],
            1,
            AnalysisStats::default(),
        );
        let diff = now.against_baseline(&baseline);
        assert!(diff.new.is_empty());
        assert!(diff.fixed.is_empty());
        // A genuinely removed finding still reports as fixed.
        let removed = Report::new(Vec::new(), 1);
        assert_eq!(removed.against_baseline(&baseline).fixed.len(), 1);
    }

    #[test]
    fn analysis_stats_render_in_json_and_human() {
        let stats = AnalysisStats {
            functions: 10,
            call_edges: 20,
            unresolved_calls: 3,
            hot_functions: 4,
            taint_returning: 2,
            stream_checked: 6,
            lock_sites: 1,
        };
        let report = Report::with_details(Vec::new(), Vec::new(), 5, stats);
        let json = report.render_json();
        assert!(json.contains("\"analysis\": {\"functions\": 10, \"call_edges\": 20"));
        assert!(json.contains("\"unresolved_calls\": 3"));
        assert!(json.contains("\"stream_checked\": 6, \"lock_sites\": 1"));
        let human = report.render_human();
        assert!(human.contains("call graph: 10 functions, 20 edges (3 unresolved)"));
        assert!(human.contains("6 stream-checked, 1 lock sites"));
    }

    #[test]
    fn timings_render_only_when_requested_and_parse_cleanly() {
        let mut report = Report::new(vec![finding("a.rs", 2, Rule::UnitMismatch)], 3);
        assert!(!report.render_json().contains("\"timings\""));
        report.timings = Some(PassTimings {
            lex_ms: 1.5,
            parse_ms: 2.0,
            callgraph_ms: 3.0,
            taint_ms: 4.0,
            hotpath_ms: 0.5,
            streams_ms: 1.0,
            shared_ms: 0.25,
        });
        let json = report.render_json();
        assert!(json.contains("\"timings\": {\"lex_ms\": 1.50"));
        assert!(json.contains("\"total_ms\": 12.25"));
        assert!(report.render_human().contains("total 12.2 ms"));
        // A timings section must not confuse the baseline parser.
        let baseline = parse_baseline(&json).expect("parses with timings present");
        assert_eq!(baseline.findings.len(), 1);
        assert_eq!(baseline.findings[0].file, "a.rs");
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let report = Report::new(vec![finding("a.rs", 1, Rule::PanicInLib)], 1);
        let json = report.render_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"files_scanned\": 1"));
        // Every rule appears in counts, even at zero.
        for rule in Rule::ALL {
            assert!(json.contains(rule.name()), "{}", rule.name());
        }
    }
}
