//! `serve-8k`: open-loop single-column traffic against a tuned, file-backed
//! operator behind a `BatchedServer`.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gofmm_store::{FilePanelStore, StoreWriter};
use gofmm_suite::core::{ApplyOptions, SpanKind, TraceSink, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::solver::{AccuracyBudget, BatchedServer, GofmmOperator, ServeConfig, Ticket};
use gofmm_suite::Error;

use crate::common::{self, mean, mib, quantile, secs, Report, RunArgs};
use crate::layers::{self, covered_ns};
use crate::matvec;

const N: usize = 8192;
const TINY_N: usize = 2048;
const BUDGET: f64 = 0.1;
/// Accuracy budget the panels are tuned to at build.
const TUNE_EPS2: f64 = 1e-4;
/// Resident store budget as a share of the tuned panel bytes.
const RESIDENT_SHARE: f64 = 0.25;
const MAX_BATCH_COLS: usize = 32;
const ENGINE_THREADS: usize = 1;
/// Distinct request columns; each has a direct-apply reference.
const POOL: usize = 16;
/// Rate of the fixed-rate phase that `op_ms_p50`/`op_ms_p90` come from.
const NOMINAL_RPS: f64 = 100.0;
/// A ladder step passes when its p90 latency from due time stays within
/// this limit.
const LATENCY_LIMIT_MS: f64 = 500.0;
const LADDER_START_RPS: f64 = 50.0;
/// Doublings above the start: the top rung is 50 * 2^9 = 25600 req/s.
const LADDER_DOUBLINGS: u32 = 9;
/// Completions in the first part of the saturation step, while the queue
/// fills, are left out of the sustained rate.
const SATURATION_WARMUP_S: f64 = 0.5;
/// Ceiling on the sampled relative error of the served operator, ten times
/// its tuning budget.
const EPS2_CEILING: f64 = 1e-3;

/// Store files live under the working directory and are removed when the
/// run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run's files are left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Build the served operator: compress, tune to the accuracy budget, spill
/// the tuned panels to a store file and serve them through a resident set of
/// `RESIDENT_SHARE` of their bytes. Returns the operator, its store and the
/// tuned panel bytes.
fn build(
    k: &gofmm_suite::matrices::KernelMatrix,
    cfg: &gofmm_suite::core::GofmmConfig,
    dir: &std::path::Path,
) -> Result<(GofmmOperator<f64>, Arc<FilePanelStore>, usize), String> {
    let mut op = GofmmOperator::<f64>::builder(k)
        .config(cfg.clone())
        .tune(AccuracyBudget::new(TUNE_EPS2))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let tuned_bytes = op.evaluator().cached_bytes();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("operator.gfmm");
    let mut writer = StoreWriter::create(&path).map_err(|e| format!("store: {e}"))?;
    op.evaluator()
        .write_to(&mut writer)
        .map_err(|e| format!("spill: {e}"))?;
    writer.finish().map_err(|e| format!("store: {e}"))?;
    let budget = (tuned_bytes as f64 * RESIDENT_SHARE) as usize;
    let store = Arc::new(FilePanelStore::open(&path, budget).map_err(|e| format!("store: {e}"))?);
    op.attach_store(&store);
    Ok((op, store, tuned_bytes))
}

/// One request as the collector saw it.
struct Served {
    due: Instant,
    submitted: Instant,
    done: Instant,
    /// `None` when the request errored or was refused.
    bits_match: Option<bool>,
}

/// The outcome of one open-loop phase.
struct Phase {
    served: Vec<Served>,
    /// Submissions refused with `Overloaded` (back-pressure).
    refused: usize,
    /// Submissions refused with any other error.
    submit_errors: usize,
    seconds: f64,
}

impl Phase {
    /// Latency from due time per request; refused and failed requests count
    /// as missing any limit.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .served
            .iter()
            .map(|s| match s.bits_match {
                Some(_) => (s.done - s.due).as_secs_f64() * 1e3,
                None => f64::INFINITY,
            })
            .collect();
        v.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.refused + self.submit_errors,
        ));
        v
    }

    fn lags_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| (s.submitted - s.due).as_secs_f64() * 1e3)
            .collect()
    }

    /// Completions per second between `warmup` seconds after the first due
    /// time and the last due time: the server's sustained rate while the
    /// generator kept it loaded.
    /// Also returns the number of completions counted.
    fn completion_rate(&self, warmup: f64) -> (f64, usize) {
        let Some(first) = self.served.first().map(|s| s.due) else {
            return (0.0, 0);
        };
        let last = self.served.iter().map(|s| s.due).max().unwrap_or(first);
        let lo = first + Duration::from_secs_f64(warmup);
        if last <= lo {
            return (0.0, 0);
        }
        let done = self
            .served
            .iter()
            .filter(|s| s.bits_match.is_some() && s.done >= lo && s.done <= last)
            .count();
        (done as f64 / (last - lo).as_secs_f64(), done)
    }

    /// Whether the phase met the latency limit with no failures and no
    /// growing backlog (the last quarter of requests also within the limit).
    fn meets_limit(&self) -> bool {
        let lat = self.latencies_ms();
        let tail = &lat[lat.len() - lat.len() / 4..];
        !lat.is_empty()
            && quantile(&lat, 0.9) <= LATENCY_LIMIT_MS
            && quantile(tail, 0.9) <= LATENCY_LIMIT_MS
    }
}

/// Drive `server` with an open loop of single-column applies at `rate` for
/// `seconds`, from this one generator thread; a collector thread waits on
/// the tickets in submission order and checks each answer's bits.
fn open_loop(
    server: &BatchedServer<f64>,
    pool: &[DenseMatrix<f64>],
    refs: &[DenseMatrix<f64>],
    rate: f64,
    seconds: f64,
    corrupt_first: bool,
) -> Phase {
    let period = Duration::from_secs_f64(1.0 / rate);
    let count = (rate * seconds).ceil().max(1.0) as u32;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Ticket<f64>)>();
    let start = Instant::now() + Duration::from_millis(1);
    let mut refused = 0;
    let mut submit_errors = 0;
    let served = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut served = Vec::new();
            for (i, due, submitted, ticket) in rx {
                let result = ticket.wait();
                let done = Instant::now();
                let bits_match = result.ok().map(|mut u| {
                    if corrupt_first && i == 0 {
                        common::corrupt(&mut u);
                    }
                    u.data() == refs[i % refs.len()].data()
                });
                served.push(Served {
                    due,
                    submitted,
                    done,
                    bits_match,
                });
            }
            served
        });
        for i in 0..count {
            let due = start + period * i;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            match server.submit_apply(&pool[i as usize % pool.len()], None) {
                Ok(ticket) => tx
                    .send((i as usize, due, submitted, ticket))
                    .expect("collector alive"),
                Err(Error::Overloaded { .. }) => refused += 1,
                Err(_) => submit_errors += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    Phase {
        served,
        refused,
        submit_errors,
        seconds: secs(start),
    }
}

/// Account every served answer of `phase` as an op; refusals count as
/// failed ops only where `refusals_fail` (ladder rungs above capacity are
/// expected to refuse).
fn account(report: &mut Report, phase: &Phase, eps2_ok: bool, refusals_fail: bool) {
    for s in &phase.served {
        match s.bits_match {
            Some(ok) => report.op(&[("bits_match_direct_apply", ok), ("eps2_ceiling", eps2_ok)]),
            None => report.op_error("request_error"),
        }
    }
    if refusals_fail {
        for _ in 0..phase.refused {
            report.op_error("refused");
        }
    }
    for _ in 0..phase.submit_errors {
        report.op_error("submit_error");
    }
}

fn server(op: &Arc<GofmmOperator<f64>>, trace: Option<&TraceSink>) -> BatchedServer<f64> {
    let mut cfg = ServeConfig::default()
        .with_max_batch_cols(MAX_BATCH_COLS)
        .with_options(
            ApplyOptions::new()
                .with_policy(TraversalPolicy::Sequential)
                .with_threads(ENGINE_THREADS),
        );
    if let Some(sink) = trace {
        cfg = cfg.with_trace(sink.clone());
    }
    BatchedServer::new(Arc::clone(op), cfg)
}

pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let n = if args.tiny { TINY_N } else { N };
    report.header_num("n", n as f64);
    report.header_num("worker_threads", ENGINE_THREADS as f64);
    report.header_num("setup_worker_threads", common::WORKERS as f64);
    report.header_num("max_batch_cols", MAX_BATCH_COLS as f64);
    report.header_num("nominal_rps", NOMINAL_RPS);
    report.header_num("latency_limit_ms_p90", LATENCY_LIMIT_MS);
    let k = common::kernel(n);
    let cfg = common::config(BUDGET);
    let work = WorkDir(PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id())));

    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..common::SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let b = build(&k, &cfg, &work.0.join(rep.to_string()))?;
        setups.push(secs(t0));
        built = Some(b);
    }
    let (op, store, tuned_bytes) = built.expect("at least one setup");
    report.metric("setup_s", quantile(&setups, 0.5));
    report.samples("setup_s", setups.len());

    // Request columns and their direct-apply references on the same operator.
    let w = common::rhs(n, POOL, args.seed, 3);
    let pool: Vec<DenseMatrix<f64>> = (0..POOL).map(|j| w.select_cols(&[j])).collect();
    let mut direct_ms = Vec::new();
    let refs = pool
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            let u = op.apply(c);
            direct_ms.push(secs(t0) * 1e3);
            u
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("apply: {e}"))?;
    report.header_num("direct_apply_ms_p50", quantile(&direct_ms, 0.5));
    let u = DenseMatrix::from_fn(n, POOL, |i, j| refs[j].get(i, 0));
    let eps2 = common::probe_eps2(&k, |w| op.apply(w))?;
    let run_eps2 = common::check_eps2(&k, &w, &u, args.seed);
    let eps2_ok = common::within(EPS2_CEILING, &[eps2, run_eps2]);
    report.metric("eps2", eps2);
    report.header_num("run_eps2", run_eps2);
    let tune = op.tune_stats().cloned();
    let node_count = op.compressed().tree.node_count();
    let op = Arc::new(op);

    // Fixed-rate phase.
    let nominal_seconds = args.seconds / 2.0;
    let before = store.stats();
    let srv = server(&op, None);
    let nominal = open_loop(
        &srv,
        &pool,
        &refs,
        NOMINAL_RPS,
        nominal_seconds,
        args.inject_fault,
    );
    let stats = srv.stats();
    drop(srv);
    let after = store.stats();
    account(report, &nominal, eps2_ok, true);
    let lat = nominal.latencies_ms();
    let p50 = quantile(&lat, 0.5);
    report.metric("op_ms_p50", p50);
    report.metric("op_ms_p90", quantile(&lat, 0.9));
    report.samples("op_ms", lat.len());
    let lags = nominal.lags_ms();
    report.header_num("generator_lag_ms_p90", quantile(&lags, 0.9));
    report.metric(
        "resident_mib",
        mib(op.evaluator().cached_bytes() + after.peak_resident_bytes as usize),
    );

    if !args.trace {
        // Rate ladder: double until the first rung misses the limit or grows
        // a backlog. That rung is re-run for longer as the saturation step:
        // the server's completion rate under it is the highest rate it
        // sustains, bounded by the last passing rung and the failing one.
        let climb_seconds = (args.seconds / 20.0).max(0.25);
        let saturation_seconds = (args.seconds / 3.0).max(0.5);
        let mut rates = Vec::new();
        let mut p90s = Vec::new();
        let mut pass = 0.0;
        let mut fail = None;
        for d in 0..=LADDER_DOUBLINGS {
            let rate = LADDER_START_RPS * f64::from(1u32 << d);
            let phase = open_loop(&server(&op, None), &pool, &refs, rate, climb_seconds, false);
            account(report, &phase, eps2_ok, false);
            let ok = phase.meets_limit();
            rates.push(if ok { rate } else { -rate });
            p90s.push(quantile(&phase.latencies_ms(), 0.9));
            if ok {
                pass = rate;
            } else {
                fail = Some(rate);
                break;
            }
        }
        let max_rate = match fail {
            Some(rate) => {
                let phase = open_loop(
                    &server(&op, None),
                    &pool,
                    &refs,
                    rate,
                    saturation_seconds,
                    false,
                );
                account(report, &phase, eps2_ok, false);
                let (sustained, completions) = phase.completion_rate(SATURATION_WARMUP_S);
                report.samples("max_rate_rps", completions);
                report.header_num("saturation_rps", rate);
                report.header_num("saturation_completion_rps", sustained);
                sustained.clamp(pass, rate)
            }
            None => pass,
        };
        report.metric("max_rate_rps", max_rate);
        report.header_list("ladder_rates_rps", &rates);
        report.header_list("ladder_p90_ms", &p90s);
        report.header_num("ladder_climb_step_s", climb_seconds);
        report.header_num("ladder_saturation_step_s", saturation_seconds);
        return Ok(());
    }

    // Per-layer numbers from the untraced fixed-rate phase.
    let requests = nominal.served.len().max(1) as f64;
    if stats.batches > 0 {
        report.metric(
            "serve.mean_batch_cols",
            stats.coalesced_columns as f64 / stats.batches as f64,
        );
    }
    report.metric(
        "serve.batches_per_s",
        stats.batches as f64 / nominal.seconds,
    );
    report.metric("serve.overload_rejected", stats.overload_rejected as f64);
    report.metric("serve.generator_lag_ms", mean(&lags));
    report.metric(
        "store.faults_per_op",
        (after.faults - before.faults) as f64 / requests,
    );
    report.metric(
        "store.hits_per_op",
        (after.hits - before.hits) as f64 / requests,
    );
    report.metric(
        "store.mib_read_per_op",
        mib((after.bytes_read - before.bytes_read) as usize) / requests,
    );
    report.metric(
        "store.peak_resident_mib",
        mib(after.peak_resident_bytes as usize),
    );
    report.metric("store.fault_us", layers::store_read_us(&store, node_count));
    if let Some(t) = &tune {
        report.metric("tune.s", t.time);
        report.metric(
            "tune.bytes_ratio",
            t.bytes_after as f64 / t.bytes_before.max(1) as f64,
        );
        report.metric("tune.measured_eps2", t.measured_eps2);
    }

    // Traced fixed-rate phase: the server records every flight into a sink;
    // each request is split into generator lag, queue wait, its batch's
    // task spans, and what no span covers.
    let sink = TraceSink::new();
    let srv = server(&op, Some(&sink));
    let traced = open_loop(&srv, &pool, &refs, NOMINAL_RPS, args.seconds / 2.0, false);
    drop(srv);
    account(report, &traced, eps2_ok, true);
    let traced_lat = traced.latencies_ms();
    report.samples("traced_op_ms", traced_lat.len());
    report.metric("telemetry.trace_overhead", quantile(&traced_lat, 0.5) / p50);
    record_traced_requests(report, &sink, &traced);

    let comp = op.compressed();
    let mut flops = Vec::new();
    let probe = &pool[0];
    let mut apply_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let (_, st) = op
            .apply_with(probe, &ApplyOptions::new())
            .map_err(|e| format!("apply: {e}"))?;
        apply_ms.push(secs(t0) * 1e3);
        flops.push(st.flops as f64);
    }
    matvec::record_compress_and_evaluate(
        report,
        &op,
        tuned_bytes,
        mean(&flops),
        quantile(&apply_ms, 0.5),
    );
    layers::record_gemm_replay(report, &layers::apply_gemm_shapes(comp, 1));
    layers::record_dag_probe(report, comp);
    matvec::record_scaling(report, &op, probe);
    Ok(())
}

/// Split each traced request into generator lag, queue wait, the task spans
/// of the batch that served it, and the unaccounted rest (in-batch time no
/// task covers, plus delivery after the batch ended).
fn record_traced_requests(report: &mut Report, sink: &TraceSink, phase: &Phase) {
    let trace = sink.trace();
    let epoch = sink.epoch();
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut batches: Vec<(u64, u64)> = trace
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Phase && e.family == "APPLY")
        .map(|e| (e.t_start, e.t_end))
        .collect();
    batches.sort_unstable();
    let tasks: Vec<(u64, u64)> = trace
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Task)
        .map(|e| (e.t_start, e.t_end))
        .collect();
    let summary = trace.summary();
    let batch_wall: u64 = batches.iter().map(|&(s, e)| e - s).sum();
    let covered: Vec<u64> = batches
        .iter()
        .map(|&(s, e)| {
            let mut inside: Vec<(u64, u64)> = tasks
                .iter()
                .copied()
                .filter(|&(ts, te)| ts >= s && te <= e)
                .collect();
            covered_ns(&mut inside, s, e)
        })
        .collect();

    let mut queue_ms = Vec::new();
    let mut wall_ns = 0u64;
    let mut unaccounted_ns = 0u64;
    for s in phase.served.iter().filter(|s| s.bits_match.is_some()) {
        let (due, submitted, done) = (ns(s.due), ns(s.submitted), ns(s.done));
        // The batch that served it: the last one that began after the
        // request was queued and ended before its ticket resolved.
        let Some(b) = batches
            .iter()
            .rposition(|&(bs, be)| bs >= submitted && be <= done)
        else {
            continue;
        };
        let (bs, be) = batches[b];
        queue_ms.push((bs - submitted) as f64 / 1e6);
        wall_ns += done.saturating_sub(due);
        unaccounted_ns += (be - bs - covered[b]) + (done - be);
    }
    let requests = phase.served.len().max(1) as f64;
    report.metric("serve.queue_wait_ms", mean(&queue_ms));
    report.metric(
        "unaccounted_frac",
        if wall_ns > 0 {
            unaccounted_ns as f64 / wall_ns as f64
        } else {
            0.0
        },
    );
    for (family, name) in [
        ("N2S", "evaluate.N2S_ms"),
        ("S2S", "evaluate.S2S_ms"),
        ("S2N", "evaluate.S2N_ms"),
        ("L2L", "evaluate.L2L_ms"),
    ] {
        report.metric(name, summary.family_ns(family) as f64 / 1e6 / requests);
    }
    report.metric("runtime.tasks_per_op", tasks.len() as f64 / requests);
    if batch_wall > 0 {
        report.metric(
            "runtime.busy_frac",
            summary.task_ns as f64 / batch_wall as f64,
        );
    }
    report.metric(
        "runtime.overhead_ms",
        batch_wall.saturating_sub(summary.task_ns) as f64 / 1e6 / requests,
    );
}
