//! Benchmark driver for the GOFMM workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matvec-32k|pcg-8k|serve-8k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The driver generates its inputs from the seed, builds the workload's
//! operator through the workspace's public API, runs the workload's load,
//! checks every answer, and prints a JSON header line followed, as the last
//! line of standard output, by one JSON result: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of one traced run with `--trace 1`.
//! See `perfbench/README.md` for the workloads and metrics.

mod common;
mod layers;
mod matvec;
mod pcg;
mod serve;

use std::process::ExitCode;

use common::{Report, RunArgs, GENERATORS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: gofmm-perfbench --workload <matvec-32k|pcg-8k|serve-8k> --seed <n> \
         --seconds <s> --trace <0|1> [--tiny] [--inject-fault]"
    );
    ExitCode::from(2)
}

fn parse() -> Option<(String, RunArgs)> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_fault: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(args.next()?),
            "--seed" => run.seed = args.next()?.parse().ok()?,
            "--seconds" => run.seconds = args.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                run.trace = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--tiny" => run.tiny = true,
            "--inject-fault" => run.inject_fault = true,
            _ => return None,
        }
    }
    Some((workload?, run))
}

fn main() -> ExitCode {
    let Some((workload, args)) = parse() else {
        return usage();
    };
    let mut report = Report::default();
    report.header_str("workload", &workload);
    report.header_num("seed", args.seed as f64);
    report.header_num("seconds", args.seconds);
    report.header_num("trace", if args.trace { 1.0 } else { 0.0 });
    report.header_num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    report.header_str("simd_level", gofmm_suite::linalg::simd_level().name());
    report.header_num("generator_threads", GENERATORS as f64);
    if args.tiny {
        report.header_num("tiny", 1.0);
    }
    let outcome = match workload.as_str() {
        "matvec-32k" => matvec::run(&args, &mut report),
        "pcg-8k" => pcg::run(&args, &mut report),
        "serve-8k" => serve::run(&args, &mut report),
        _ => return usage(),
    };
    if let Err(e) = outcome {
        // A typed error from the operator build (or its store) fails the
        // workload loudly; the driver never retries with another config.
        eprintln!("{workload}: {e}");
        report.op_error("build");
        println!("{}", report.header_json());
        println!("{}", report.result_json(&[]));
        return ExitCode::from(1);
    }
    if report.attempted == 0 {
        report.op_error("no_ops");
    }
    report.metric("failed_frac", report.failed_frac());
    println!("{}", report.header_json());
    for (check, count) in &report.failures {
        println!("# failed check {check}: {count}");
    }
    let names = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    for &(name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", report.result_json(names));
    ExitCode::SUCCESS
}
