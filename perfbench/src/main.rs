//! The repository benchmark: the hybrid tree with the paper's defaults on
//! three workloads, driven through its public API from one process.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload colhist32-knn-warm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a metric table, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any answer disagrees with brute force or an operation fails. See
//! `perfbench/README.md` for the workloads and how to read a traced run.

mod common;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use common::Env;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["colhist32-knn-warm", "fourier16-cold", "colhist32-ingest"];

/// Where runs keep page files and traces, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: hyt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let run_dir = RunDir(PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&run_dir.0) {
        eprintln!("error: cannot create {}: {e}", run_dir.0.display());
        return ExitCode::from(2);
    }
    let mut env = Env {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::new(args.trace),
        dir: run_dir.0.clone(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let run = match args.workload.as_str() {
        "colhist32-knn-warm" => workloads::warm(&mut env),
        "fourier16-cold" => workloads::cold(&mut env),
        _ => workloads::ingest(&mut env),
    };
    if let Err(e) = run {
        // A run that cannot finish prints no result line.
        eprintln!("error: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if env.traced() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match env.tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => env.fail(format!("cannot write {}: {e}", path.display())),
        }
        println!("span self time (name, count, total ms, self ms):");
        for (name, (n, total, own)) in env.tracer.summary() {
            println!("  {name:<34} {n:>8} {total:>12.3} {own:>12.3}");
        }
    }
    let missing = env.report.missing();
    for m in &missing {
        env.fail(format!("metric {m} was not measured"));
    }
    for e in &env.errors {
        eprintln!("failure: {e}");
    }
    let correct = env.failed == 0;
    println!(
        "{} seed {} ({}): {} operations, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        env.attempted,
        env.failed
    );
    print!("{}", env.report.table());
    println!(
        "{}",
        env.report.json(correct, env.attempted.max(1), env.failed)
    );
    drop(run_dir);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload fourier16-cold --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fourier16-cold", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fourier16-cold --seconds 1").is_err());
        assert!(args("--workload fourier16-cold --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fourier16-cold --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fourier16-cold --seed").is_err());
    }
}
