//! `lcl-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints, last, one JSON
//! result line: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Lines
//! before it give the effective configuration, the digest check, and
//! `failed_frac`. Scratch files go under `.bench_work/` and are removed
//! at exit; a traced run leaves its spans there as JSON lines.

use lcl_e2e_bench::{run, sys, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: lcl-e2e-bench --workload <landscape|scenario-grid|huge-store> --seed <n> --seconds <s> --trace <0|1>";

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let need = |flag: &str| arg(args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok((workload, seed, seconds.max(0.0), trace))
}

fn main() -> ExitCode {
    // Before any parallel work: the pool reads its width once.
    sys::reset_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("lcl-e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stem = format!("{}-s{seed}-p{}", workload.name(), std::process::id());
    let root = PathBuf::from(".bench_work");
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: root.join(&stem),
        trace_file: root.join(format!("trace-{stem}.jsonl")),
    };
    match run(&cfg) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lcl-e2e-bench: {} run failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
