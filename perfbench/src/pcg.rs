//! `pcg-8k`: the paper's solve pipeline — compress, ULV-factor `K + lambda I`,
//! then a closed loop of 4-column preconditioned CG solves.

use std::cell::RefCell;
use std::time::Instant;

use gofmm_suite::core::{ApplyOptions, Evaluator, TraceSink};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::solver::{
    cg, GofmmOperator, KrylovOptions, LinearOperator, Preconditioner, UlvFactor,
};

use crate::common::{self, mib, quantile, secs, Report, RunArgs};
use crate::layers::{self, OpDigest};
use crate::matvec;

const N: usize = 8192;
const TINY_N: usize = 2048;
/// Near-field budget: about six near leaves per leaf, so the near field lies
/// outside the ULV factor and CG must iterate.
const BUDGET: f64 = 0.1;
const LAMBDA: f64 = 1e-2;
const COLS: usize = 4;
/// Ceiling on the true relative residual `||(K~ + lambda I) x - b|| / ||b||`.
const RESIDUAL_CEILING: f64 = 1e-8;
/// Ceiling on the sampled relative error of the operator.
const EPS2_CEILING: f64 = 1e-4;

pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let n = if args.tiny { TINY_N } else { N };
    report.header_num("n", n as f64);
    report.header_num("worker_threads", common::WORKERS as f64);
    report.header_num("rhs_cols", COLS as f64);
    report.header_num("lambda", LAMBDA);
    let k = common::kernel(n);
    let cfg = common::config(BUDGET);

    let mut setups = Vec::new();
    let mut op = None;
    for _ in 0..common::SETUP_REPS {
        drop(op.take());
        let t0 = Instant::now();
        let built = GofmmOperator::<f64>::builder(&k)
            .config(cfg.clone())
            .factorize(LAMBDA)
            .build()
            .map_err(|e| format!("build: {e}"))?;
        setups.push(secs(t0));
        op = Some(built);
    }
    let op = op.expect("at least one setup");
    let factor = op.ulv_factor().ok_or("operator has no ULV factor")?;
    report.metric("setup_s", quantile(&setups, 0.5));
    report.samples("setup_s", setups.len());

    // A fixed right-hand side: CG needs 6 or 7 iterations depending on the
    // block drawn, which would move `op_ms_p50` by a sixth between seeds.
    let b = common::rhs(n, COLS, common::DATASET_SEED, 2);
    let opts = KrylovOptions::default();
    report.header_num("cg_tol", opts.tol);
    let (x_ref, ref_stats) = op
        .solve_cg(&b, &opts)
        .map_err(|e| format!("solve_cg: {e}"))?;
    let residual = true_residual(&op, &x_ref, &b)?;
    report.header_num("reference_iterations", ref_stats.iterations as f64);
    let reference_ok = ref_stats.converged && residual <= RESIDUAL_CEILING;
    let u = op.apply(&b).map_err(|e| format!("apply: {e}"))?;
    let eps2 = common::probe_eps2(&k, |w| op.apply(w))?;
    let run_eps2 = common::check_eps2(&k, &b, &u, args.seed);
    let eps2_ok = common::within(EPS2_CEILING, &[eps2, run_eps2]);
    report.metric("eps2", eps2);
    report.header_num("run_eps2", run_eps2);
    report.header_num("true_residual", residual);
    report.metric(
        "resident_mib",
        mib(op.evaluator().cached_bytes() + factor.stats().bytes),
    );

    // One op: a solve whose bits match the reference solve, which converged
    // to a true residual under the ceiling on an operator within eps2.
    let mut iterations = Vec::new();
    let check = |report: &mut Report, i: usize, x: Option<(DenseMatrix<f64>, bool)>| {
        let Some((mut x, converged)) = x else {
            report.op_error("solve_error");
            return;
        };
        if args.inject_fault && i == 0 {
            common::corrupt(&mut x);
        }
        report.op(&[
            ("converged", converged),
            ("bits_match_reference", x.data() == x_ref.data()),
            ("true_residual_ceiling", reference_ok),
            ("eps2_ceiling", eps2_ok),
        ]);
    };

    let measure = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut times = Vec::new();
    common::closed_loop(measure, common::MIN_SAMPLES, |i| {
        let t0 = Instant::now();
        let result = op.solve_cg(&b, &opts);
        times.push(secs(t0) * 1e3);
        let x = result.ok().map(|(x, stats)| {
            iterations.push(stats.iterations as f64);
            (x, stats.converged)
        });
        check(report, i, x);
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
    report.metric("pcg_iters", common::mean(&iterations));
    if !args.trace {
        return Ok(());
    }

    // Traced run: the same CG through the public driver, with the matvec and
    // the preconditioner wrapped in driver spans and tracing sinks.
    let mut traced = Vec::new();
    let mut digests = Vec::new();
    let mut apply_share = Vec::new();
    let mut iter_ms = Vec::new();
    let mut apply_ms = Vec::new();
    let mut precond_ms = Vec::new();
    let mut flops = Vec::new();
    let mut steals = Vec::new();
    common::closed_loop(args.seconds / 2.0, 10, |i| {
        let sink = TraceSink::new();
        let shifted = TracedShifted::new(op.evaluator(), LAMBDA, &sink);
        let pre = TracedUlv::new(factor, &sink);
        let lo = sink.now();
        let t0 = Instant::now();
        let result = cg(&shifted, &pre, &b, &opts.clone().with_trace(sink.clone()));
        let wall_ms = secs(t0) * 1e3;
        traced.push(wall_ms);
        let hi = sink.now();
        digests.push(OpDigest::new(&sink.trace(), lo, hi));
        let applies = shifted.spans.borrow();
        let apply_total: f64 = applies.iter().sum();
        apply_share.push(apply_total / wall_ms);
        apply_ms.push(apply_total);
        precond_ms.extend(pre.spans.borrow().iter().copied());
        flops.push(*shifted.flops.borrow());
        steals.push(*shifted.steals.borrow());
        let x = result.ok().map(|(x, stats)| {
            iter_ms.push(wall_ms / stats.iterations.max(1) as f64);
            (x, stats.converged)
        });
        check(report, i, x);
    });
    report.samples("traced_op_ms", traced.len());
    report.metric("telemetry.trace_overhead", quantile(&traced, 0.5) / p50);
    layers::record_digests(report, &digests, common::WORKERS);
    report.metric("runtime.steals", common::mean(&steals));
    report.metric("krylov.iter_ms", common::mean(&iter_ms));
    report.metric("krylov.apply_share", common::mean(&apply_share));
    report.metric("ulv.solve_ms", common::mean(&precond_ms));
    report.metric("ulv.factor_s", factor.stats().setup_time);
    report.metric("ulv.mib", mib(factor.stats().bytes));
    matvec::record_compress_and_evaluate(
        report,
        &op,
        op.evaluator().cached_bytes(),
        common::mean(&flops),
        common::mean(&apply_ms),
    );
    let comp = op.compressed();
    layers::record_gemm_replay(report, &layers::apply_gemm_shapes(comp, COLS));
    layers::record_dag_probe(report, comp);
    matvec::record_scaling(report, &op, &b);
    Ok(())
}

/// `||(K~ + lambda I) x - b|| / ||b||`, recomputed with one extra apply.
fn true_residual(
    op: &GofmmOperator<f64>,
    x: &DenseMatrix<f64>,
    b: &DenseMatrix<f64>,
) -> Result<f64, String> {
    let mut r = op.apply(x).map_err(|e| format!("apply: {e}"))?;
    r.axpy(LAMBDA, x);
    Ok(r.sub(b).norm_fro() / b.norm_fro())
}

/// `x -> (K~ + lambda I) x` exactly as `GofmmOperator::solve_cg` computes it,
/// with each apply traced and timed by the driver.
struct TracedShifted<'a> {
    ev: &'a Evaluator<'static, f64>,
    lambda: f64,
    sink: &'a TraceSink,
    /// Milliseconds of each apply.
    spans: RefCell<Vec<f64>>,
    flops: RefCell<f64>,
    steals: RefCell<f64>,
}

impl<'a> TracedShifted<'a> {
    fn new(ev: &'a Evaluator<'static, f64>, lambda: f64, sink: &'a TraceSink) -> Self {
        TracedShifted {
            ev,
            lambda,
            sink,
            spans: RefCell::new(Vec::new()),
            flops: RefCell::new(0.0),
            steals: RefCell::new(0.0),
        }
    }
}

impl LinearOperator<f64> for TracedShifted<'_> {
    fn dim(&self) -> usize {
        self.ev.n()
    }

    fn matvec(&self, x: &DenseMatrix<f64>) -> DenseMatrix<f64> {
        let t0 = Instant::now();
        let (mut y, stats) = self
            .ev
            .apply_with(x, &ApplyOptions::new().with_trace(self.sink.clone()))
            .expect("traced apply inside CG");
        y.axpy(self.lambda, x);
        self.spans.borrow_mut().push(secs(t0) * 1e3);
        *self.flops.borrow_mut() += stats.flops as f64;
        *self.steals.borrow_mut() += stats.exec.as_ref().map_or(0.0, |e| e.steals as f64);
        y
    }
}

/// The ULV preconditioner with each solve traced and timed by the driver.
struct TracedUlv<'a> {
    factor: &'a UlvFactor<'static, f64>,
    sink: &'a TraceSink,
    /// Milliseconds of each preconditioner solve.
    spans: RefCell<Vec<f64>>,
}

impl<'a> TracedUlv<'a> {
    fn new(factor: &'a UlvFactor<'static, f64>, sink: &'a TraceSink) -> Self {
        TracedUlv {
            factor,
            sink,
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Preconditioner<f64> for TracedUlv<'_> {
    fn apply_inverse(&self, r: &DenseMatrix<f64>) -> DenseMatrix<f64> {
        let t0 = Instant::now();
        let z = self
            .factor
            .solve_with(r, &ApplyOptions::new().with_trace(self.sink.clone()))
            .expect("traced ULV solve inside CG");
        self.spans.borrow_mut().push(secs(t0) * 1e3);
        z
    }

    fn dim(&self) -> Option<usize> {
        Some(self.factor.n())
    }
}
