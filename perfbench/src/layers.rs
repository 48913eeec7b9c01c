//! Per-layer probes that measure a layer from outside, through its public
//! API: GEMM shape replay (`linalg`), the empty-body DAG probe (`runtime`),
//! the store read probe (`store`) and trace digests (`telemetry`).

use std::time::Instant;

use gofmm_store::{classes, FilePanelStore};
use gofmm_suite::core::{Compressed, SpanKind, Trace};
use gofmm_suite::linalg::{gemm, DenseMatrix, Transpose};
use gofmm_suite::runtime::{Family, ReusablePlan, SchedulePolicy};

use crate::common::{quantile, secs, Report};

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("max_rate_rps", "req/s"),
    ("eps2", "ratio"),
    ("resident_mib", "MiB"),
];

/// Every per-layer metric, in output order, with its unit. A workload that
/// bypasses a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.gemm.replay_ms", "ms"),
    ("linalg.gemm.calls", "count"),
    ("linalg.gemm.gflops", "GF/s"),
    ("linalg.gemm.peak_gflops", "GF/s"),
    ("tree.ann_s", "s"),
    ("tree.build_s", "s"),
    ("tree.ann_recall", "ratio"),
    ("compress.skel_s", "s"),
    ("compress.lists_s", "s"),
    ("compress.cache_s", "s"),
    ("compress.avg_rank", "count"),
    ("compress.near_pairs", "count"),
    ("compress.far_pairs", "count"),
    ("evaluate.setup_s", "s"),
    ("evaluate.flops_per_op", "flop"),
    ("evaluate.gflops", "GF/s"),
    ("evaluate.flops_per_byte", "flop/B"),
    ("evaluate.N2S_ms", "ms"),
    ("evaluate.S2S_ms", "ms"),
    ("evaluate.S2N_ms", "ms"),
    ("evaluate.L2L_ms", "ms"),
    ("evaluate.pool_created", "count"),
    ("tune.s", "s"),
    ("tune.bytes_ratio", "ratio"),
    ("tune.measured_eps2", "ratio"),
    ("runtime.tasks_per_op", "count"),
    ("runtime.busy_frac", "ratio"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.steals", "count"),
    ("runtime.empty_ns_per_task.t1", "ns"),
    ("runtime.empty_ns_per_task.t2", "ns"),
    ("runtime.scaling_t2", "ratio"),
    ("runtime.critical_path_frac", "ratio"),
    ("ulv.factor_s", "s"),
    ("ulv.solve_ms", "ms"),
    ("ulv.mib", "MiB"),
    ("ulv.SUP_ms", "ms"),
    ("ulv.SDOWN_ms", "ms"),
    ("krylov.iter_ms", "ms"),
    ("krylov.apply_share", "ratio"),
    ("store.faults_per_op", "count"),
    ("store.hits_per_op", "count"),
    ("store.mib_read_per_op", "MiB"),
    ("store.peak_resident_mib", "MiB"),
    ("store.fault_us", "us"),
    ("serve.mean_batch_cols", "count"),
    ("serve.batches_per_s", "1/s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overload_rejected", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("telemetry.trace_overhead", "ratio"),
    ("pcg_iters", "count"),
    ("failed_frac", "ratio"),
    ("unaccounted_frac", "ratio"),
];

/// The `(m, n, k)` GEMM shapes one apply of width `r` issues against the
/// packed (untuned) panels of `comp`: N2S `s x r x (s_l + s_r)` (leaf:
/// `s x r x m`), S2S `s x r x sum(s)`, S2N `(s_l + s_r) x r x s` (leaf:
/// `m x r x s`) and L2L `m x r x sum(m)`.
pub fn apply_gemm_shapes(comp: &Compressed<f64>, r: usize) -> Vec<(usize, usize, usize)> {
    let tree = &comp.tree;
    let rank = |h: usize| comp.bases[h].as_ref().map_or(0, |b| b.rank());
    let mut shapes = Vec::new();
    for heap in 1..tree.node_count() {
        let s = rank(heap);
        if comp.bases[heap].is_none() {
            continue;
        }
        let below = if tree.is_leaf(heap) {
            tree.indices(heap).len()
        } else {
            let (l, rgt) = tree.children(heap);
            rank(l) + rank(rgt)
        };
        shapes.push((s, r, below));
        let far: usize = comp.lists.far[heap].iter().map(|&a| rank(a)).sum();
        if far > 0 {
            shapes.push((s, r, far));
        }
        shapes.push((below, r, s));
    }
    for leaf in tree.leaf_range() {
        let near: usize = comp.lists.near[leaf]
            .iter()
            .map(|&a| tree.indices(a).len())
            .sum();
        if near > 0 {
            shapes.push((tree.indices(leaf).len(), r, near));
        }
    }
    shapes
}

/// Replay `shapes` through `gemm`, timing only the calls. Returns the median
/// total seconds over `reps` replays and the flop count of one replay.
pub fn replay_gemms(shapes: &[(usize, usize, usize)], reps: usize) -> (f64, f64) {
    let flops: f64 = shapes
        .iter()
        .map(|&(m, n, k)| 2.0 * (m * n * k) as f64)
        .sum();
    let totals: Vec<f64> = (0..reps)
        .map(|_| {
            let mut total = 0.0;
            for &(m, n, k) in shapes {
                let a = DenseMatrix::<f64>::from_fn(m, k, |i, j| ((i + j) % 7) as f64 * 0.1);
                let b = DenseMatrix::<f64>::from_fn(k, n, |i, j| ((i + 2 * j) % 5) as f64 * 0.1);
                let mut c = DenseMatrix::<f64>::zeros(m, n);
                let t0 = Instant::now();
                gemm(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c);
                total += secs(t0);
                std::hint::black_box(&c);
            }
            total
        })
        .collect();
    (quantile(&totals, 0.5), flops)
}

/// GF/s of a square 256^3 GEMM, median of several calls.
pub fn peak_gflops() -> f64 {
    let n = 256;
    let a = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i + j) % 7) as f64 * 0.1);
    let b = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j) % 5) as f64 * 0.1);
    let mut c = DenseMatrix::<f64>::zeros(n, n);
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
            secs(t0)
        })
        .collect();
    std::hint::black_box(&c);
    2.0 * (n * n * n) as f64 / quantile(&times, 0.5) / 1e9
}

/// Record the `linalg.gemm.*` metrics for one op issuing `shapes`.
pub fn record_gemm_replay(report: &mut Report, shapes: &[(usize, usize, usize)]) {
    let (seconds, flops) = replay_gemms(shapes, 3);
    report.metric("linalg.gemm.replay_ms", seconds * 1e3);
    report.metric("linalg.gemm.calls", shapes.len() as f64);
    report.metric("linalg.gemm.gflops", flops / seconds / 1e9);
    report.metric("linalg.gemm.peak_gflops", peak_gflops());
}

/// The evaluation DAG of `comp` (N2S bottom-up, S2S, S2N top-down, L2L),
/// rebuilt from the public compressed structure with the evaluator's
/// dependency families.
pub fn evaluation_plan(comp: &Compressed<f64>) -> ReusablePlan {
    let tree = &comp.tree;
    let skip = |h: usize| h == 0 || comp.bases[h].is_none();
    let mut plan = ReusablePlan::new();
    plan.add_bottom_up("N2S", tree, skip, |_| 1.0);
    for heap in 1..tree.node_count() {
        if skip(heap) || comp.lists.far[heap].is_empty() {
            continue;
        }
        let deps: Vec<(Family, usize)> = comp.lists.far[heap].iter().map(|&a| ("N2S", a)).collect();
        plan.add("S2S", heap, 1.0, &deps);
    }
    plan.add_top_down(
        "S2N",
        tree,
        skip,
        |_| 1.0,
        |heap, deps| {
            deps.push(("S2S", heap));
            if !tree.is_leaf(heap) {
                let (l, r) = tree.children(heap);
                deps.push(("S2S", l));
                deps.push(("S2S", r));
            }
        },
    );
    for leaf in tree.leaf_range() {
        plan.add("L2L", leaf, 1.0, &[]);
    }
    plan
}

/// Nanoseconds per task of the evaluation DAG run with empty bodies under
/// HEFT at `workers` workers (median over `reps` runs).
pub fn empty_ns_per_task(plan: &ReusablePlan, workers: usize, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| plan.run(SchedulePolicy::Heft, workers, |_, _| {}).elapsed)
        .collect();
    quantile(&times, 0.5) * 1e9 / plan.task_count().max(1) as f64
}

/// Record the empty-body DAG probe at 1 and 2 workers.
pub fn record_dag_probe(report: &mut Report, comp: &Compressed<f64>) {
    let plan = evaluation_plan(comp);
    report.metric(
        "runtime.empty_ns_per_task.t1",
        empty_ns_per_task(&plan, 1, 21),
    );
    report.metric(
        "runtime.empty_ns_per_task.t2",
        empty_ns_per_task(&plan, 2, 21),
    );
}

/// Mean microseconds to read one stored blob back from `store`'s file: the
/// I/O half of a fault, timed over every panel blob the store holds.
pub fn store_read_us(store: &FilePanelStore, node_count: usize) -> f64 {
    let panel_classes = [
        classes::S2S,
        classes::L2L,
        classes::S2S_LEFT,
        classes::S2S_RIGHT,
        classes::L2L_LEFT,
        classes::L2L_RIGHT,
    ];
    let mut times = Vec::new();
    for class in panel_classes {
        for node in 0..node_count as u32 {
            if store.contains(class, node) {
                let t0 = Instant::now();
                let ok = store.read_raw(class, node).is_ok();
                times.push(secs(t0));
                assert!(ok, "stored blob ({class}, {node}) must read back");
            }
        }
    }
    crate::common::mean(&times) * 1e6
}

/// Length of the union of `spans` clipped to `[lo, hi]`, in nanoseconds.
pub fn covered_ns(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in spans.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Task-span digest of one traced op.
pub struct OpDigest {
    /// Task nanoseconds by family.
    pub family_ns: Vec<(&'static str, u64)>,
    pub tasks: usize,
    pub task_ns: u64,
    pub critical_path_ns: u64,
    /// Wall nanoseconds of the op in the window it was given.
    pub wall_ns: u64,
    /// Part of the wall no task or iteration span covers.
    pub uncovered_ns: u64,
}

impl OpDigest {
    /// Digest `trace` over the op window `[lo, hi]`.
    pub fn new(trace: &Trace, lo: u64, hi: u64) -> Self {
        let summary = trace.summary();
        let mut children: Vec<(u64, u64)> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Task | SpanKind::Iteration))
            .map(|e| (e.t_start, e.t_end))
            .collect();
        let wall_ns = hi.saturating_sub(lo);
        OpDigest {
            family_ns: summary.per_family.iter().map(|(&f, &ns)| (f, ns)).collect(),
            tasks: trace
                .events()
                .iter()
                .filter(|e| e.kind == SpanKind::Task)
                .count(),
            task_ns: summary.task_ns,
            critical_path_ns: summary.critical_path_ns,
            wall_ns,
            uncovered_ns: wall_ns - covered_ns(&mut children, lo, hi).min(wall_ns),
        }
    }

    pub fn family(&self, name: &str) -> u64 {
        self.family_ns
            .iter()
            .find(|(f, _)| *f == name)
            .map_or(0, |&(_, ns)| ns)
    }
}

/// Record the runtime, family and unaccounted metrics averaged over
/// `digests`, for ops run on `workers` workers.
pub fn record_digests(report: &mut Report, digests: &[OpDigest], workers: usize) {
    let ops = digests.len().max(1) as f64;
    let sum = |f: &dyn Fn(&OpDigest) -> f64| digests.iter().map(f).sum::<f64>() / ops;
    let wall_ms = sum(&|d| d.wall_ns as f64 / 1e6);
    let task_ms = sum(&|d| d.task_ns as f64 / 1e6);
    for (family, name) in [
        ("N2S", "evaluate.N2S_ms"),
        ("S2S", "evaluate.S2S_ms"),
        ("S2N", "evaluate.S2N_ms"),
        ("L2L", "evaluate.L2L_ms"),
        ("SUP", "ulv.SUP_ms"),
        ("SDOWN", "ulv.SDOWN_ms"),
    ] {
        report.metric(name, sum(&|d| d.family(family) as f64 / 1e6));
    }
    report.metric("runtime.tasks_per_op", sum(&|d| d.tasks as f64));
    let busy = if wall_ms > 0.0 {
        task_ms / (wall_ms * workers as f64)
    } else {
        0.0
    };
    report.metric("runtime.busy_frac", busy);
    report.metric("runtime.overhead_ms", wall_ms - task_ms / workers as f64);
    let cp = sum(&|d| d.critical_path_ns as f64 / 1e6);
    report.metric(
        "runtime.critical_path_frac",
        if wall_ms > 0.0 { cp / wall_ms } else { 0.0 },
    );
    let uncovered = sum(&|d| d.uncovered_ns as f64 / 1e6);
    report.metric(
        "unaccounted_frac",
        if wall_ms > 0.0 {
            uncovered / wall_ms
        } else {
            0.0
        },
    );
}
