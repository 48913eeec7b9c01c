//! Smoke test of the benchmark driver: every workload at a tiny size, in
//! both modes, must pass its checks and print every metric `BENCHMARK.json`
//! names; a corrupted answer must be counted as a failure.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["matvec-32k", "pcg-8k", "serve-8k"];

/// Run the driver at tiny size; returns whether it exited 0 and the last
/// line of its standard output.
fn run(workload: &str, trace: &str, inject_fault: bool) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gofmm-perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    if inject_fault {
        cmd.arg("--inject-fault");
    }
    let out = cmd.output().expect("run the benchmark driver");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

fn assert_emits(workload: &str, trace: &str, section: &str) {
    let (ok, last) = run(workload, trace, false);
    assert!(ok, "{workload} --trace {trace} failed: {last}");
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload} --trace {trace} did not pass its checks: {last}"
    );
    let names = benchmark_names(section);
    assert!(!names.is_empty());
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} --trace {trace} omits {name}: {last}"
        );
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for workload in WORKLOADS {
        assert_emits(workload, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for workload in WORKLOADS {
        assert_emits(workload, "1", "per_layer");
    }
}

#[test]
fn a_corrupted_answer_counts_as_a_failure() {
    for workload in WORKLOADS {
        let (ok, last) = run(workload, "0", true);
        assert!(ok, "{workload} failed to run: {last}");
        assert!(
            last.starts_with("{\"correct\": false,") && !last.contains("\"failed\": 0,"),
            "{workload} did not count the corrupted answer: {last}"
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let (ok, _) = run("no-such-workload", "0", false);
    assert!(!ok);
}
