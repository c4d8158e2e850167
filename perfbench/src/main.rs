//! `perfbench --workload <steady|short|openloop> --seed N --seconds S
//! --trace <0|1>`: runs one workload and prints its result as the last
//! line of standard output. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` runs the traced replay and reports the
//! per-layer metrics. Exits 2 on a usage error.
//!
//! `--rss-probe 1` is the child an untraced run starts to measure peak
//! resident memory: it serves the workload once and prints its peak.

use std::process::{Command, ExitCode};

use autoscale::parallel::{default_threads, resolve_threads};
use perfbench::run;
use perfbench::workloads::{Name, Size, Workload};

/// The seed later performance claims must also hold on; never used
/// while the benchmark was developed.
const HELD_OUT_SEED: u64 = 48_611;

/// Fresh processes whose peak resident memory `peak_rss_mib` is the
/// median of.
const RSS_PROBES: usize = 3;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rss_probe = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => trace = Some(flag_bit(&flag, &value)?),
            "--rss-probe" => rss_probe = flag_bit(&flag, &value)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        rss_probe,
    })
}

fn flag_bit(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not `{value}`")),
    }
}

/// `peak_rss_mib`: the median peak of [`RSS_PROBES`] fresh processes,
/// each this program under `--rss-probe 1`, run one after another.
fn probe_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.as_str(), "--rss-probe", "1"])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let peak = text.lines().last().and_then(|l| l.parse::<f64>().ok());
        match (out.status.success(), peak) {
            (true, Some(peak)) => peaks.push(peak),
            _ => {
                return Err(format!(
                    "probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(run::median(&peaks))
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: perfbench --workload <steady|short|openloop> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workload = Workload::new(args.workload, args.seed, Size::Full);
    if args.rss_probe {
        return match run::serve_once(&workload) {
            Ok(peak) => {
                println!("{peak}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"nproc\": {}, \"shards\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_string(args.workload.as_str()),
        args.seed,
        u8::from(args.trace),
        default_threads(),
        resolve_threads(workload.config.shards),
        json_string(&cpu_model()),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
    );
    let outcome = if args.trace {
        run::traced(&workload)
    } else {
        run::untraced(&workload, args.seconds, || probe_peak_rss(&args))
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
