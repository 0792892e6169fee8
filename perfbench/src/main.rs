//! `perfbench` — the end-to-end and per-layer benchmark of the dHMM
//! workspace. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload <serve_wire|pool_dense|pool_sparse|train_pos|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it give
//! the machine and the details (error rate, sample counts, tail percentile).

mod common;
mod pool;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["serve_wire", "pool_dense", "pool_sparse", "train_pos"];

/// Input scale: `Full` is what the benchmark measures; `Tiny` only checks
/// that every metric and gate works (the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measured sizes.
    Full,
    /// Smallest sizes that still cross every layer.
    Tiny,
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| opts.seconds = v)
                .is_ok_and(|_| opts.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--scale" => match value.as_str() {
                "full" | "tiny" => {
                    opts.scale = if value == "tiny" {
                        Scale::Tiny
                    } else {
                        Scale::Full
                    };
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    if workload == "all" {
        return run_all(&args);
    }
    let mut outcome: Outcome = match workload.as_str() {
        "serve_wire" => serve::run(&opts),
        "pool_dense" => pool::run(&opts, pool::Kind::Dense),
        "pool_sparse" => pool::run(&opts, pool::Kind::Sparse),
        "train_pos" => train::run(&opts),
        _ => return usage(),
    };
    outcome.set("peak_rss_mb", stats::peak_rss_mb());
    println!("{}", machine_line());
    println!("{}", outcome.detail_line(&workload));
    println!("{}", outcome.result_line(opts.trace));
    ExitCode::SUCCESS
}

/// Runs every workload, each in a fresh process so that its set-up time and
/// peak memory are its own, and prints one combined result line whose
/// metric names are prefixed with the workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let traced = args.windows(2).any(|w| w[0] == "--trace" && w[1] == "1");
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[at + 1] = workload.to_string();
        let out = Command::new(&exe)
            .args(&child_args)
            .output()
            .expect("run a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Some(last) = stdout.lines().last().filter(|_| out.status.success()) else {
            eprintln!("perfbench: workload {workload} failed ({})", out.status);
            return ExitCode::FAILURE;
        };
        correct &= last.contains("\"correct\": true");
        attempted += field(last, "attempted");
        failed += field(last, "failed");
        let body = &last[last.find("\"metrics\": {").expect("metrics") + 12..last.len() - 2];
        let mut body = body.to_string();
        for (name, _) in names {
            body = body.replace(
                &format!("\"{name}\": "),
                &format!("\"{workload}.{name}\": "),
            );
        }
        metrics.push(body);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The integer after `"key": ` in a result line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat).expect("key in result line") + pat.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
        .expect("integer field")
}

/// Cores, CPU model, compiler and source revision the figures belong to.
fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"machine\":{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\"}}}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        git_rev()
    )
}

/// The commit the sources were checked out at, read from `.git` beside
/// this package; `unknown` in an export without git metadata.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}
