//! The repository's benchmark.
//!
//! `crossbow-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload from the root of a checkout and prints, as the last
//! line of standard output, one JSON object with the run's correctness
//! and metrics: every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. `--catalog` prints the
//! `BENCHMARK.json` the catalogue describes. See `perf/README.md`.

mod catalog;
mod cli;
mod harness;
mod loadgen;
mod replay;
mod stats;
mod workloads;
mod wrappers;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match cli::parse(&args) {
        Ok(cli::Command::Catalog) => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(cli::Command::Run(run)) => run,
        Err(why) => {
            eprintln!("{why}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let dir = match harness::scratch_dir(run.workload) {
        Ok(dir) => dir,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let mut checks = harness::Checks::default();
    let outcome = workloads::run(run, &dir, &mut checks);
    // The shards and checkpoints are inputs and by-products, not results;
    // only the trace file stays behind.
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", harness::result_line(&outcome, checks.passed()));
    if checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
