//! Shared workload inputs, sample statistics and the result report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gofmm_suite::core::{accuracy_report, GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Leaf size of every workload's partition tree.
pub const LEAF_SIZE: usize = 128;
/// Skeleton rank cap of every workload.
pub const MAX_RANK: usize = 96;
/// Adaptive skeletonization tolerance of every workload.
pub const TOLERANCE: f64 = 1e-10;
/// Gaussian kernel bandwidth.
pub const BANDWIDTH: f64 = 1.0;
/// Diagonal nugget of the kernel matrix, as in the workspace examples.
pub const NUGGET: f64 = 1e-6;
/// Worker threads of the compressed operators (the machine has 2 cores).
pub const WORKERS: usize = 2;
/// Load-generating threads of every workload.
pub const GENERATORS: usize = 1;
/// Independent operator builds per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Minimum timed ops per closed-loop run, so p90 has 10 samples beyond it.
pub const MIN_SAMPLES: usize = 100;
/// Rows sampled against exact kernel rows for the `eps2` metric.
pub const EPS2_ROWS: usize = 256;
/// Columns of the fixed `eps2` probe block.
pub const EPS2_COLS: usize = 16;
/// Rows sampled when checking the accuracy of one run's own outputs.
pub const CHECK_ROWS: usize = 64;
/// Seed of every workload's point cloud and compression. The dataset is part
/// of the workload's definition; `--seed` draws only values that leave the
/// work unchanged: the `matvec-32k` right-hand sides, the `serve-8k` request
/// columns and the rows of each run's own accuracy check.
pub const DATASET_SEED: u64 = 2017;

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run at a small problem size (smoke tests).
    pub tiny: bool,
    /// Corrupt one answer before it is checked (smoke tests).
    pub inject_fault: bool,
}

/// The Gaussian kernel over `n` uniform 3-D points of the workload dataset.
/// The coordinates only generate entries: compression runs
/// geometry-oblivious.
pub fn kernel(n: usize) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, 3, DATASET_SEED),
        KernelType::Gaussian {
            bandwidth: BANDWIDTH,
        },
        NUGGET,
        "perfbench",
    )
}

/// The compression configuration every workload shares, at `budget`.
pub fn config(budget: f64) -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(LEAF_SIZE)
        .with_max_rank(MAX_RANK)
        .with_tolerance(TOLERANCE)
        .with_budget(budget)
        .with_threads(WORKERS)
        .with_policy(TraversalPolicy::DagHeft)
        .with_seed(DATASET_SEED)
}

/// A seeded standard-normal block of right-hand sides.
pub fn rhs(n: usize, cols: usize, seed: u64, stream: u64) -> DenseMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    DenseMatrix::random_gaussian(n, cols, &mut rng)
}

/// The `eps2` metric: sampled relative error of `apply` on a fixed probe
/// block against exact kernel rows. Probe and rows come from the dataset
/// seed, so the metric moves only when the operator does.
pub fn probe_eps2(
    k: &KernelMatrix,
    apply: impl FnOnce(&DenseMatrix<f64>) -> Result<DenseMatrix<f64>, gofmm_suite::Error>,
) -> Result<f64, String> {
    let w = rhs(SpdMatrix::<f64>::n(k), EPS2_COLS, DATASET_SEED, 0);
    let u = apply(&w).map_err(|e| format!("apply: {e}"))?;
    Ok(accuracy_report(k, &w, &u, 0, EPS2_ROWS, DATASET_SEED).eps2)
}

/// Sampled relative error of one run's own outputs `u = K~ w`.
pub fn check_eps2(k: &KernelMatrix, w: &DenseMatrix<f64>, u: &DenseMatrix<f64>, seed: u64) -> f64 {
    accuracy_report(k, w, u, 0, CHECK_ROWS, seed).eps2
}

/// Whether every error estimate is finite and within `ceiling`.
pub fn within(ceiling: f64, errors: &[f64]) -> bool {
    errors.iter().all(|e| e.is_finite() && *e <= ceiling)
}

/// Perturb one entry, so that a bit-identity check must fail.
pub fn corrupt(m: &mut DenseMatrix<f64>) {
    let v = m.get(0, 0);
    m.set(0, 0, v * (1.0 + 1e-6) + 1e-300);
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 for an empty set).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0)
        })
        .collect();
    quantile(&times, 0.5)
}

/// Run `op` in a closed loop until `seconds` have passed and at least
/// `min_ops` ops ran (capped at three times `seconds`); `op` receives the op
/// index.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while (secs(t0) < seconds || i < min_ops) && secs(t0) < 3.0 * seconds {
        op(i);
        i += 1;
    }
}

/// Everything one run reports: op and failure counts, metrics, and the run
/// header.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks by name (one op may fail several).
    pub failures: BTreeMap<&'static str, u64>,
    /// Metric values by name; units come from the metric lists.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Header entries, each a JSON value.
    pub header: Vec<(String, String)>,
}

impl Report {
    /// Account one op and the named checks it faced.
    pub fn op(&mut self, checks: &[(&'static str, bool)]) {
        self.attempted += 1;
        let mut ok = true;
        for &(name, passed) in checks {
            if !passed {
                ok = false;
                *self.failures.entry(name).or_insert(0) += 1;
            }
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Account one op that returned an error or was refused.
    pub fn op_error(&mut self, what: &'static str) {
        self.op(&[(what, false)]);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn header_num(&mut self, key: &str, value: f64) {
        self.header.push((key.to_string(), json_num(value)));
    }

    pub fn header_str(&mut self, key: &str, value: &str) {
        self.header.push((key.to_string(), format!("\"{value}\"")));
    }

    pub fn header_list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
        self.header
            .push((key.to_string(), format!("[{}]", items.join(", "))));
    }

    /// Record the sample count behind a timing metric.
    pub fn samples(&mut self, metric: &str, count: usize) {
        self.header
            .push((format!("samples.{metric}"), count.to_string()));
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The header as one JSON object.
    pub fn header_json(&self) -> String {
        let mut out = String::from("{\"header\": {");
        for (i, (k, v)) in self.header.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("}}");
        out
    }

    /// The result line: the named metrics in the given order.
    pub fn result_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
