//! `autoscale-cli` regression tests: serving configurations that could
//! only hang or serve nothing exit non-zero with a message.

use std::process::Command;

/// Runs `autoscale-cli serve` on a tiny open-loop fleet with `extra`
/// flags appended, and returns (exit success, stderr).
fn serve_with(extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_autoscale-cli"))
        .args([
            "serve",
            "--device",
            "mi8pro",
            "--sessions",
            "2",
            "--arrivals",
            "poisson",
        ])
        .args(extra)
        .output()
        .expect("the CLI binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
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
