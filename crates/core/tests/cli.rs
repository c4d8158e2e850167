//! `autoscale-cli` regression tests: serving configurations that could
//! only hang or serve nothing, and flags a command does not know, exit
//! non-zero with a message.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long one CLI run may take before the test calls it hung.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `autoscale-cli` with `args` and returns (exit success, stderr).
/// Fails the test if the run has not exited within [`DEADLINE`].
fn cli(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_autoscale-cli"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the CLI can be waited on") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            panic!("autoscale-cli {args:?} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    (status.success(), stderr)
}

/// Runs `autoscale-cli serve` on a tiny open-loop fleet with `extra`
/// flags appended.
fn serve_with(extra: &[&str]) -> (bool, String) {
    let base = [
        "serve",
        "--device",
        "mi8pro",
        "--sessions",
        "2",
        "--arrivals",
        "poisson",
    ];
    cli(&[&base[..], extra].concat())
}

/// A tiny closed-loop `serve` invocation with `extra` flags appended.
fn closed_loop_serve_with(extra: &[&str]) -> (bool, String) {
    let base = [
        "serve",
        "--device",
        "mi8pro",
        "--sessions",
        "2",
        "--decisions",
        "5",
    ];
    cli(&[&base[..], extra].concat())
}

#[test]
fn a_valid_closed_loop_serve_succeeds() {
    let (ok, stderr) = closed_loop_serve_with(&[]);
    assert!(ok, "stderr: {stderr}");
}

#[test]
fn the_retired_kernel_flag_is_rejected() {
    let (ok, stderr) = closed_loop_serve_with(&["--kernel", "packed"]);
    assert!(!ok, "--kernel must fail");
    assert!(stderr.contains("--kernel"), "stderr: {stderr}");
}

#[test]
fn a_misspelled_flag_is_rejected() {
    let (ok, stderr) = closed_loop_serve_with(&["--sesions", "100"]);
    assert!(!ok, "--sesions must fail");
    assert!(stderr.contains("--sesions"), "stderr: {stderr}");
}

#[test]
fn an_infinite_rate_is_rejected() {
    let (ok, stderr) = serve_with(&["--rate", "inf", "--horizon-ms", "100"]);
    assert!(!ok, "--rate inf must fail");
    assert!(stderr.contains("arrival rate"), "stderr: {stderr}");
}

#[test]
fn a_nan_horizon_is_rejected() {
    let (ok, stderr) = serve_with(&["--rate", "10", "--horizon-ms", "nan"]);
    assert!(!ok, "--horizon-ms nan must fail");
    assert!(stderr.contains("horizon"), "stderr: {stderr}");
}

#[test]
fn a_negative_rate_is_rejected() {
    let (ok, stderr) = serve_with(&["--rate", "-3", "--horizon-ms", "100"]);
    assert!(!ok, "--rate -3 must fail");
    assert!(stderr.contains("arrival rate"), "stderr: {stderr}");
}

#[test]
fn a_zero_rate_stays_a_valid_silent_fleet() {
    let (ok, stderr) = serve_with(&["--rate", "0", "--horizon-ms", "100"]);
    assert!(ok, "--rate 0 is the documented silent process: {stderr}");
}

#[test]
fn an_astronomical_rate_is_rejected_instead_of_hanging() {
    for rate in ["1e300", "1e9"] {
        let (ok, stderr) = serve_with(&["--rate", rate]);
        assert!(!ok, "--rate {rate} must fail");
        assert!(stderr.contains("arrivals"), "stderr: {stderr}");
        // No warm start was given, so no hint about one.
        assert!(!stderr.contains("Q-table"), "stderr: {stderr}");
    }
}
