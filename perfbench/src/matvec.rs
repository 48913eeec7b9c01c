//! `matvec-32k`: compress once, then a closed loop of 16-column applies.

use std::time::Instant;

use gofmm_suite::core::{ApplyOptions, TraceSink, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::solver::GofmmOperator;

use crate::common::{self, mib, quantile, secs, Report, RunArgs};
use crate::layers::{self, OpDigest};

const N: usize = 32768;
const TINY_N: usize = 2048;
const BUDGET: f64 = 0.03;
const COLS: usize = 16;
/// Ceiling on the sampled relative error of an apply.
const EPS2_CEILING: f64 = 1e-4;

pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let n = if args.tiny { TINY_N } else { N };
    report.header_num("n", n as f64);
    report.header_num("worker_threads", common::WORKERS as f64);
    report.header_num("rhs_cols", COLS as f64);
    let k = common::kernel(n);
    let cfg = common::config(BUDGET);

    let mut setups = Vec::new();
    let mut op = None;
    for _ in 0..common::SETUP_REPS {
        drop(op.take());
        let t0 = Instant::now();
        let built = GofmmOperator::<f64>::builder(&k)
            .config(cfg.clone())
            .build()
            .map_err(|e| format!("build: {e}"))?;
        setups.push(secs(t0));
        op = Some(built);
    }
    let op = op.expect("at least one setup");
    report.metric("setup_s", quantile(&setups, 0.5));
    report.samples("setup_s", setups.len());

    let w = common::rhs(n, COLS, args.seed, 1);
    let reference = op.apply(&w).map_err(|e| format!("apply: {e}"))?;
    let eps2 = common::probe_eps2(&k, |w| op.apply(w))?;
    let run_eps2 = common::check_eps2(&k, &w, &reference, args.seed);
    let eps2_ok = common::within(EPS2_CEILING, &[eps2, run_eps2]);
    report.metric("eps2", eps2);
    report.header_num("run_eps2", run_eps2);
    report.metric("resident_mib", mib(op.evaluator().cached_bytes()));

    // One op: a timed apply whose bits must match the reference apply and
    // whose reference met the eps2 ceiling.
    let check = |report: &mut Report, i: usize, result: Result<DenseMatrix<f64>, _>| match result {
        Ok(mut u) => {
            if args.inject_fault && i == 0 {
                common::corrupt(&mut u);
            }
            report.op(&[
                ("bits_match_reference", u.data() == reference.data()),
                ("eps2_ceiling", eps2_ok),
            ]);
        }
        Err(_) => report.op_error("apply_error"),
    };

    let measure = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut times = Vec::new();
    common::closed_loop(measure, common::MIN_SAMPLES, |i| {
        let t0 = Instant::now();
        let result = op.apply(&w);
        times.push(secs(t0) * 1e3);
        check(report, i, result);
    });
    let p50 = quantile(&times, 0.5);
    report.metric("op_ms_p50", p50);
    report.metric("op_ms_p90", quantile(&times, 0.9));
    report.samples("op_ms", times.len());
    report.samples("max_rate_rps", times.len());
    report.metric(
        "max_rate_rps",
        times.len() as f64 / (times.iter().sum::<f64>() / 1e3),
    );
    if !args.trace {
        return Ok(());
    }

    // Traced run: the same op with a span sink per apply.
    let mut traced = Vec::new();
    let mut digests = Vec::new();
    let mut flops = Vec::new();
    let mut steals = Vec::new();
    common::closed_loop(args.seconds / 2.0, 10, |i| {
        let sink = TraceSink::new();
        let opts = ApplyOptions::new().with_trace(sink.clone());
        let lo = sink.now();
        let t0 = Instant::now();
        let result = op.apply_with(&w, &opts);
        traced.push(secs(t0) * 1e3);
        let hi = sink.now();
        digests.push(OpDigest::new(&sink.trace(), lo, hi));
        let result = result.map(|(u, stats)| {
            flops.push(stats.flops as f64);
            steals.push(stats.exec.as_ref().map_or(0.0, |e| e.steals as f64));
            u
        });
        check(report, i, result);
    });
    report.samples("traced_op_ms", traced.len());
    report.metric("telemetry.trace_overhead", quantile(&traced, 0.5) / p50);
    layers::record_digests(report, &digests, common::WORKERS);
    report.metric("runtime.steals", common::mean(&steals));
    record_compress_and_evaluate(
        report,
        &op,
        op.evaluator().cached_bytes(),
        common::mean(&flops),
        p50,
    );
    let comp = op.compressed();
    layers::record_gemm_replay(report, &layers::apply_gemm_shapes(comp, COLS));
    layers::record_dag_probe(report, comp);
    record_scaling(report, &op, &w);
    Ok(())
}

/// `tree`, `compress` and `evaluate` metrics of a built operator with
/// `panel_bytes` of packed panels whose op performs `flops_per_op` evaluator
/// flops in `op_ms` milliseconds of applies.
pub fn record_compress_and_evaluate(
    report: &mut Report,
    op: &GofmmOperator<f64>,
    panel_bytes: usize,
    flops_per_op: f64,
    op_ms: f64,
) {
    let st = &op.compressed().stats;
    report.metric("tree.ann_s", st.ann_time);
    report.metric("tree.build_s", st.tree_time);
    report.metric("tree.ann_recall", st.ann_recall);
    report.metric("compress.skel_s", st.skel_time);
    report.metric("compress.lists_s", st.lists_time);
    report.metric("compress.cache_s", st.cache_time);
    report.metric("compress.avg_rank", st.avg_rank);
    report.metric("compress.near_pairs", st.near_pairs as f64);
    report.metric("compress.far_pairs", st.far_pairs as f64);
    let ev = op.evaluator();
    report.metric("evaluate.setup_s", ev.setup_time());
    report.metric("evaluate.flops_per_op", flops_per_op);
    report.metric("evaluate.gflops", flops_per_op / op_ms / 1e6);
    report.metric(
        "evaluate.flops_per_byte",
        flops_per_op / panel_bytes.max(1) as f64,
    );
    report.metric("evaluate.pool_created", ev.pool_lease_stats().0 as f64);
}

/// `runtime.scaling_t2`: one sequential apply over one 2-worker apply of the
/// same input (medians of three).
pub fn record_scaling(report: &mut Report, op: &GofmmOperator<f64>, w: &DenseMatrix<f64>) {
    let run = |opts: ApplyOptions| {
        common::median_secs(3, || {
            op.apply_with(w, &opts).expect("probe apply");
        })
    };
    let t1 = run(ApplyOptions::new()
        .with_policy(TraversalPolicy::Sequential)
        .with_threads(1));
    let t2 = run(ApplyOptions::new()
        .with_policy(TraversalPolicy::DagHeft)
        .with_threads(common::WORKERS));
    report.metric("runtime.scaling_t2", t1 / t2);
}
