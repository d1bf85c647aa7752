//! Serving benchmark for the DataVisT5 stack.
//!
//! Drives the real serving path through public functions only — the zoo
//! corpus and tokenizer, `TaskRequest::input_text`, `encode_with_eos`,
//! `ServeEngine::{submit_at, tick, drain_responses}` and a
//! `BatchedDecodeState` with a `PrefixCache` — under three workloads, and
//! checks every output against the sequential decoding path.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload dashboard-open --seed 1 --seconds 52 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the nominal step untraced and then traced, and prints the
//! per-layer metrics, span self times and the tracing overhead. The last
//! line of standard output is one JSON object. See `README.md` beside
//! this file for the workloads, metrics and caveats.

mod check;
mod load;
mod timeline;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use corpus::Corpus;
use datavist5::config::{Scale, Size};
use datavist5::data::TaskRequest;
use datavist5::zoo::Zoo;
use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::prefix_cache::PrefixCache;
use nn::t5::T5Model;
use serve::{BatchDecoder, Outcome, Rejection, ServeConfig, ServeEngine, ServeReport};
use tensor::XorShift;
use tokenizer::special::EOS;

use check::Checker;
use timeline::{
    backlog_grows, quantile_ns, request_timings, windowed_quantile_ns, RealClock, ReqTiming, Slo,
    Timeline,
};
use trace::{DecSpan, TimedDecoder};

/// Batcher slots.
const SLOTS: usize = 8;
/// Prefix-cache capacity.
const CACHE_BYTES: usize = 32 << 20;
/// Admission-queue bound, above the request count of any step, so
/// overload shows as latency and backlog rather than R001 refusals.
const QUEUE_CAP: usize = 1 << 20;
/// Seed of the random model weights (fixed: the run seed picks inputs).
const MODEL_SEED: u64 = 0xda7a_5e7e;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Seconds of untimed load at the nominal step before anything is timed:
/// the first seconds of a fresh process serve measurably slower (memory
/// first touched, allocator and caches cold).
const WARMUP_S: f64 = 2.0;
/// Stream tag mixed into the seed so the warm-up draws its own inputs.
const WARMUP_STREAM: u64 = 0x3a8d_11e7_0000_0003;
/// Shortest window the latency percentiles are taken over (see
/// `windowed_quantile_ns`).
const MIN_WINDOW_NS: u64 = 2_000_000_000;
/// A step meets the SLO when at least this share of its requests does.
const SLO_SHARE: f64 = 0.99;

/// The interactive objective of the two open workloads. The TTFT limit
/// sits above the 100-200 ms stalls the host occasionally imposes on the
/// whole process, so one stall does not flip a step that keeps up.
const INTERACTIVE_SLO: Slo = Slo {
    ttft_ns: 250_000_000,
    mean_gap_ns: 25_000_000,
};

/// The objective of offline chart captioning: a looser first token.
const BATCH_SLO: Slo = Slo {
    ttft_ns: 1_000_000_000,
    mean_gap_ns: 25_000_000,
};

enum Load {
    /// Poisson arrivals at fixed absolute rates (req/s), one ladder step
    /// each, sending for `shares[i]` of the run's seconds; `rates[0]` is
    /// the nominal step.
    Open {
        rates: &'static [f64],
        shares: &'static [f64],
    },
    /// A fixed number of outstanding requests.
    Closed { clients: usize },
}

struct Workload {
    name: &'static str,
    load: Load,
    size: Size,
    max_out: usize,
    slo: Slo,
    /// Percentage of distinct sources whose outputs are checked.
    check_pct: u64,
    requests: fn(&Corpus, usize, u64) -> Vec<TaskRequest>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dashboard-open",
        load: Load::Open {
            rates: &[60.0, 180.0, 1800.0],
            shares: &[0.9, 0.09, 0.01],
        },
        size: Size::Base,
        max_out: 24,
        slo: INTERACTIVE_SLO,
        check_pct: 100,
        requests: load::dashboard_requests,
    },
    Workload {
        name: "fevisqa-open",
        load: Load::Open {
            rates: &[45.0, 110.0, 1200.0],
            shares: &[0.9, 0.09, 0.01],
        },
        size: Size::Base,
        max_out: 4,
        slo: INTERACTIVE_SLO,
        check_pct: 100,
        requests: load::fevisqa_requests,
    },
    Workload {
        name: "catalog-batch",
        load: Load::Closed { clients: 16 },
        size: Size::Large,
        max_out: 64,
        slo: BATCH_SLO,
        check_pct: 10,
        requests: load::catalog_requests,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The serving stack minus the engine, which each step builds afresh.
struct Stack {
    zoo: Zoo,
    model: T5Model,
    ps: ParamSet,
}

fn build_stack(size: Size) -> Stack {
    let zoo = Zoo::new(Scale::Full);
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(MODEL_SEED);
    let cfg = Scale::Full.t5_config(size, zoo.tok.vocab().len());
    let model = T5Model::new(&mut ps, "serve", cfg, &mut rng);
    Stack { zoo, model, ps }
}

fn engine<D: BatchDecoder>(dec: D, max_out: usize) -> ServeEngine<D> {
    let mut cfg = ServeConfig::new(QUEUE_CAP, max_out, EOS);
    cfg.step_cost_ns = 0;
    cfg.admit_cost_ns = 0;
    ServeEngine::new(dec, cfg)
}

fn batcher(stack: &Stack) -> BatchedDecodeState<'_> {
    BatchedDecodeState::with_prefix_cache(
        &stack.model,
        &stack.ps,
        SLOTS,
        PrefixCache::new(CACHE_BYTES),
    )
}

/// What one step sends.
enum Plan {
    Open { rate: f64, due: Vec<u64> },
    Closed { clients: usize, window_ns: u64 },
}

impl Plan {
    fn label(&self) -> String {
        match self {
            Plan::Open { rate, .. } => format!("open {rate} req/s"),
            Plan::Closed { clients, .. } => format!("closed {clients} clients"),
        }
    }
}

/// A finished step, before evaluation.
struct StepRun {
    tl: Timeline,
    report: ServeReport,
    /// Traced runs only: decoder spans and peaks.
    dec: Option<(Vec<DecSpan>, usize, usize)>,
}

fn drive<D: BatchDecoder>(
    e: &mut ServeEngine<D>,
    clock: &RealClock,
    stack: &Stack,
    reqs: &[TaskRequest],
    plan: &Plan,
    traced: bool,
) -> Result<Timeline, String> {
    match plan {
        Plan::Open { due, .. } => timeline::run_open(e, clock, &stack.zoo.tok, reqs, due, traced),
        Plan::Closed { clients, window_ns } => {
            timeline::run_closed(e, clock, &stack.zoo.tok, reqs, *clients, *window_ns, traced)
        }
    }
}

fn run_step(
    stack: &Stack,
    wl: &Workload,
    clock: &RealClock,
    reqs: &[TaskRequest],
    plan: &Plan,
    traced: bool,
) -> Result<StepRun, String> {
    if traced {
        let mut e = engine(TimedDecoder::new(batcher(stack), *clock), wl.max_out);
        let tl = drive(&mut e, clock, stack, reqs, plan, true)?;
        e.shutdown();
        let d = e.decoder_mut();
        let dec = Some((
            std::mem::take(&mut d.spans),
            d.kv_bytes_peak,
            d.cache_bytes_peak,
        ));
        Ok(StepRun {
            tl,
            report: e.into_report(),
            dec,
        })
    } else {
        let mut e = engine(batcher(stack), wl.max_out);
        let tl = drive(&mut e, clock, stack, reqs, plan, false)?;
        e.shutdown();
        Ok(StepRun {
            tl,
            report: e.into_report(),
            dec: None,
        })
    }
}

/// A checked step.
struct StepEval {
    label: String,
    rate: Option<f64>,
    sent: usize,
    succeeded: usize,
    failed: usize,
    timings: Vec<ReqTiming>,
    ttft_n: usize,
    gaps_n: usize,
    /// Windowed percentiles, in ms.
    ttft_p50: f64,
    ttft_p99: f64,
    itl_p50: f64,
    itl_p99: f64,
    lag: Vec<u64>,
    attainment: f64,
    backlog: bool,
    tokens_per_s: f64,
    requests_per_s: f64,
}

/// Checks a step's outputs and accounting and derives its latencies.
/// Fails only when the tick log itself is inconsistent.
fn evaluate(
    run: &StepRun,
    plan: &Plan,
    slo: &Slo,
    checker: &mut Checker,
) -> Result<StepEval, String> {
    let tl = &run.tl;
    let report = &run.report;
    let sent = tl.sent.len();
    checker.prepare(tl.sent.iter().map(|s| s.src.as_slice()));
    let mut responses = vec![0u32; sent];
    let mut ok = vec![false; sent];
    for r in &report.responses {
        let i = r.id as usize;
        let Some(n) = responses.get_mut(i) else {
            return Err(format!("response for request {i}, which was never sent"));
        };
        *n += 1;
        ok[i] = r.outcome == Outcome::Completed && checker.matches(&tl.sent[i].src, &r.tokens);
    }
    for (i, &n) in responses.iter().enumerate() {
        if n != 1 {
            ok[i] = false;
        }
    }
    if !report.accounted() {
        ok.iter_mut().for_each(|o| *o = false);
    }
    let timings = request_timings(tl, report)?;
    let succeeded = ok.iter().filter(|&&o| o).count();
    let met = timings
        .iter()
        .filter(|t| slo.met(t, ok[t.id as usize]))
        .count();

    // Throughput over the sending window: tokens and completions that
    // landed inside it.
    let window_ns = tl.window_end_ns - tl.start_ns;
    let (mut tokens, mut done) = (0u64, 0u64);
    for t in timings.iter().filter(|t| ok[t.id as usize]) {
        let Some(ttft) = t.ttft_ns else { continue };
        let mut at = tl.sent[t.id as usize].due_ns + ttft;
        let mut last = at;
        for j in 0..t.tokens {
            if j > 0 {
                at += t.gaps_ns[j - 1];
            }
            if at <= tl.window_end_ns {
                tokens += 1;
            }
            last = at;
        }
        if last <= tl.window_end_ns {
            done += 1;
        }
    }
    let secs = window_ns as f64 / 1e9;
    // (time from the step start, value) pairs for the windowed
    // percentiles, each sample timed by its request's due time.
    let since = |t: &ReqTiming| tl.sent[t.id as usize].due_ns - tl.start_ns;
    let ttft_at: Vec<(u64, u64)> = timings
        .iter()
        .filter_map(|t| Some((since(t), t.ttft_ns?)))
        .collect();
    let gaps_at: Vec<(u64, u64)> = timings
        .iter()
        .flat_map(|t| t.gaps_ns.iter().map(move |&g| (since(t), g)))
        .collect();
    let windowed =
        |at: &[(u64, u64)], p: f64| ms_f(windowed_quantile_ns(at, window_ns, MIN_WINDOW_NS, p));
    let mut lag: Vec<u64> = tl.sent.iter().map(|s| s.sent_ns - s.due_ns).collect();
    lag.sort_unstable();
    Ok(StepEval {
        label: plan.label(),
        rate: match plan {
            Plan::Open { rate, .. } => Some(*rate),
            Plan::Closed { .. } => None,
        },
        sent,
        succeeded,
        failed: sent - succeeded,
        timings,
        ttft_n: ttft_at.len(),
        gaps_n: gaps_at.len(),
        ttft_p50: windowed(&ttft_at, 50.0),
        ttft_p99: windowed(&ttft_at, 99.0),
        itl_p50: windowed(&gaps_at, 50.0),
        itl_p99: windowed(&gaps_at, 99.0),
        lag,
        attainment: if sent == 0 {
            0.0
        } else {
            met as f64 / sent as f64
        },
        backlog: backlog_grows(tl, SLOTS),
        tokens_per_s: tokens as f64 / secs,
        requests_per_s: done as f64 / secs,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_f(ns: f64) -> f64 {
    ns / 1e6
}

fn pct_ms(sorted: &[u64], p: f64) -> f64 {
    ms_f(quantile_ns(sorted, p))
}

fn pct_us(sorted: &[u64], p: f64) -> f64 {
    quantile_ns(sorted, p) / 1e3
}

fn print_step(e: &StepEval) {
    println!(
        "step {}: sent {} succeeded {} failed {} | ttft p50 {:.3} ms p99 {:.3} ms (n={}) | \
         itl p50 {:.3} ms p99 {:.3} ms (n={}) | slo_attainment {:.4} | backlog_grows {} | \
         gen_lag p99 {:.3} ms (n={}) | {:.1} tok/s {:.1} req/s",
        e.label,
        e.sent,
        e.succeeded,
        e.failed,
        e.ttft_p50,
        e.ttft_p99,
        e.ttft_n,
        e.itl_p50,
        e.itl_p99,
        e.gaps_n,
        e.attainment,
        e.backlog,
        pct_ms(&e.lag, 99.0),
        e.lag.len(),
        e.tokens_per_s,
        e.requests_per_s,
    );
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The ordered plans of a workload sharing `seconds` of sending time,
/// each flagged whether it is the nominal step. `nominal_only` keeps the
/// nominal step alone, given all of the time.
fn plans(wl: &Workload, seed: u64, seconds: f64, nominal_only: bool) -> Vec<(bool, Plan)> {
    let ns = |s: f64| (s * 1e9) as u64;
    match wl.load {
        Load::Open { rates, shares } => rates
            .iter()
            .zip(shares)
            .enumerate()
            .take(if nominal_only { 1 } else { rates.len() })
            .map(|(i, (&rate, &share))| {
                let secs = if nominal_only {
                    seconds
                } else {
                    seconds * share
                };
                let due = load::poisson_schedule(seed, i as u64, rate, ns(secs));
                (i == 0, Plan::Open { rate, due })
            })
            .collect(),
        Load::Closed { clients } => vec![(
            true,
            Plan::Closed {
                clients,
                window_ns: ns(seconds),
            },
        )],
    }
}

/// Length of a closed loop's request list, which it cycles through:
/// above the 2400 corpus entries `catalog-batch` draws from.
const CLOSED_LIST: usize = 4096;

/// Requests for one plan: one per arrival, or the closed loop's list.
fn requests_for(
    wl: &Workload,
    corpus: &Corpus,
    plan: &Plan,
    seed: u64,
    step: u64,
) -> Vec<TaskRequest> {
    let n = match plan {
        Plan::Open { due, .. } => due.len(),
        Plan::Closed { .. } => CLOSED_LIST,
    };
    (wl.requests)(corpus, n, seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Metric name → (value, unit), in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn emit(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output or accounting check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    // Pinned here so neither DATAVIST5_THREADS nor DATAVIST5_OBS in the
    // environment leaks into the measurement.
    tensor::par::set_threads(1);
    obs::set_enabled(false);
    println!(
        "servebench workload {} seed {} seconds {} trace {} | tensor threads {} | hardware threads {}",
        wl.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        tensor::par::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Set-up: zoo, model and engine, several times; the last is kept.
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        drop(stack.take());
        let t = Instant::now();
        let s = build_stack(wl.size);
        drop(std::hint::black_box(engine(batcher(&s), wl.max_out)));
        setup_s.push(t.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    setup_s.sort_by(f64::total_cmp);

    let clock = RealClock::new();
    let warm_seed = args.seed ^ WARMUP_STREAM;
    for (_, plan) in plans(wl, warm_seed, WARMUP_S, true) {
        let reqs = requests_for(wl, &stack.zoo.corpus, &plan, warm_seed, 0);
        run_step(&stack, wl, &clock, &reqs, &plan, false)?;
    }
    let mut checker = Checker::new(
        &stack.model,
        &stack.ps,
        EOS,
        wl.max_out,
        wl.check_pct,
        args.seed,
    );
    if args.trace {
        run_traced(args, &stack, &clock, &mut checker)
    } else {
        run_untraced(
            args,
            &stack,
            &clock,
            &mut checker,
            setup_s[setup_s.len() / 2],
        )
    }
}

fn run_untraced(
    args: &Args,
    stack: &Stack,
    clock: &RealClock,
    checker: &mut Checker,
    setup_s: f64,
) -> Result<bool, String> {
    let wl = args.workload;
    let mut runs = Vec::new();
    for (step, (nominal, plan)) in plans(wl, args.seed, args.seconds, false)
        .into_iter()
        .enumerate()
    {
        let reqs = requests_for(wl, &stack.zoo.corpus, &plan, args.seed, step as u64);
        let run = run_step(stack, wl, clock, &reqs, &plan, false)?;
        runs.push((nominal, plan, run));
    }
    let rss = peak_rss_mb();

    // Everything below is outside the timed region.
    let mut evals = Vec::new();
    for (nominal, plan, run) in &runs {
        let e = evaluate(run, plan, &wl.slo, checker)?;
        print_step(&e);
        evals.push((*nominal, e));
    }
    let nominal = &evals
        .iter()
        .find(|(n, _)| *n)
        .expect("every workload has a nominal step")
        .1;
    let meets = |e: &StepEval| e.attainment >= SLO_SHARE && !e.backlog;
    let max_slo_rps = evals
        .iter()
        .filter(|(_, e)| meets(e))
        .map(|(_, e)| e.rate.unwrap_or(e.requests_per_s))
        .fold(0.0, f64::max);
    let attempted: usize = evals.iter().map(|(_, e)| e.sent).sum();
    let failed: usize = evals.iter().map(|(_, e)| e.failed).sum();
    println!("{}", checker.summary());
    println!(
        "slo: ttft <= {} ms, mean inter-token gap <= {} ms, step meets at >= {SLO_SHARE} of requests sent",
        ms(wl.slo.ttft_ns),
        ms(wl.slo.mean_gap_ns)
    );
    println!(
        "failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("ttft_p50_ms".into(), nominal.ttft_p50, "ms"),
        ("ttft_p99_ms".into(), nominal.ttft_p99, "ms"),
        ("itl_p50_ms".into(), nominal.itl_p50, "ms"),
        ("itl_p99_ms".into(), nominal.itl_p99, "ms"),
        ("slo_attainment".into(), nominal.attainment, "ratio"),
        ("max_slo_rps".into(), max_slo_rps, "1/s"),
        ("tokens_per_s".into(), nominal.tokens_per_s, "1/s"),
        ("requests_per_s".into(), nominal.requests_per_s, "1/s"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ];
    let correct = failed == 0;
    emit(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// Kernel ops reported from the obs profiler: the batched decode step's
/// sections and the encoder's heaviest tape ops.
const KERNEL_OPS: [&str; 8] = [
    "batch.embed",
    "batch.self_attn",
    "batch.cross_attn",
    "batch.ff",
    "batch.logits",
    "matmul",
    "softmax",
    "rms_norm",
];

/// Span names whose self time is reported.
const SPAN_NAMES: [&str; 8] = [
    "tick",
    "batch.admit",
    "batch.step",
    "batch.retire",
    "encode",
    "data.input_text",
    "tokenizer.encode",
    "submit",
];

fn run_traced(
    args: &Args,
    stack: &Stack,
    clock: &RealClock,
    checker: &mut Checker,
) -> Result<bool, String> {
    let wl = args.workload;
    // The nominal step twice on the same inputs: untraced, then traced.
    let half = args.seconds / 2.0;
    let (_, plan) = plans(wl, args.seed, half, true)
        .into_iter()
        .next()
        .expect("one nominal plan");
    let reqs = requests_for(wl, &stack.zoo.corpus, &plan, args.seed, 0);
    let plain = run_step(stack, wl, clock, &reqs, &plan, false)?;
    obs::set_enabled(true);
    obs::reset();
    let traced = run_step(stack, wl, clock, &reqs, &plan, true)?;
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let plain_eval = evaluate(&plain, &plan, &wl.slo, checker)?;
    let e = evaluate(&traced, &plan, &wl.slo, checker)?;
    print_step(&plain_eval);
    print_step(&e);
    let (dec, kv_peak, cache_peak) = traced.dec.as_ref().expect("traced step has decoder spans");
    let spans = trace::assemble(&traced.tl, dec, &traced.report)?;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", wl.name, args.seed));
    let body: String = spans
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_json(i) + "\n")
        .collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|err| format!("writing {}: {err}", path.display()))?;
    println!("wrote {} spans to {}", spans.len(), path.display());

    let mut m: Metrics = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    let durs = |name: &str| {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .collect();
        v.sort_unstable();
        v
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            us(v.iter().sum::<u64>()) / v.len() as f64
        }
    };

    put(
        "data.input_text_us",
        mean_us(&durs("data.input_text")),
        "us",
    );
    put(
        "tokenizer.encode_us",
        mean_us(&durs("tokenizer.encode")),
        "us",
    );

    let mut waits: Vec<u64> = e.timings.iter().filter_map(|t| t.queue_wait_ns).collect();
    waits.sort_unstable();
    put("queue.wait_ms_p50", pct_ms(&waits, 50.0), "ms");
    put("queue.wait_ms_p99", pct_ms(&waits, 99.0), "ms");
    let depth_max = traced
        .tl
        .ticks
        .iter()
        .map(|t| t.queue_depth)
        .max()
        .unwrap_or(0);
    put("queue.depth_max", depth_max as f64, "count");
    for r in [
        Rejection::QueueFull,
        Rejection::DeadlineQueued,
        Rejection::DeadlineDecoding,
        Rejection::Shutdown,
        Rejection::Internal,
    ] {
        let n = traced.report.rejected.get(r.label()).copied().unwrap_or(0);
        put(&format!("queue.rejected.{}", r.code()), n as f64, "count");
    }

    let ticks = durs("tick");
    let st = trace::self_times(&spans);
    let tick_self = st.get("tick").map_or(0, |&(_, ns)| ns);
    put("engine.ticks", ticks.len() as f64, "count");
    put("engine.tick_us_p50", pct_us(&ticks, 50.0), "us");
    put("engine.tick_us_p99", pct_us(&ticks, 99.0), "us");
    put(
        "engine.self_us_per_tick",
        us(tick_self) / ticks.len().max(1) as f64,
        "us",
    );
    let step_durs = durs("batch.step");
    let seqs: usize = spans
        .iter()
        .filter(|s| s.name == "batch.step")
        .map(|s| s.ids.len())
        .sum();
    put(
        "engine.batch_size_mean",
        seqs as f64 / step_durs.len().max(1) as f64,
        "count",
    );
    let mut admits_per_tick: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "batch.admit") {
        *admits_per_tick.entry(s.parent.unwrap_or(0)).or_default() += 1;
    }
    put(
        "engine.admits_per_tick_max",
        admits_per_tick.values().copied().max().unwrap_or(0) as f64,
        "count",
    );

    let admit_durs = |hit: bool| {
        let mut v: Vec<u64> = dec
            .iter()
            .filter(|d| matches!(d.call, trace::DecCall::Admit { hit: h, .. } if h == hit))
            .map(|d| d.end_ns - d.start_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let (miss, hit) = (admit_durs(false), admit_durs(true));
    put("batch.prefill_miss_us_p50", pct_us(&miss, 50.0), "us");
    put("batch.prefill_miss_us_p99", pct_us(&miss, 99.0), "us");
    put("batch.prefill_hit_us_p50", pct_us(&hit, 50.0), "us");
    put("batch.step_us_p50", pct_us(&step_durs, 50.0), "us");
    put(
        "batch.step_us_per_seq",
        us(step_durs.iter().sum::<u64>()) / seqs.max(1) as f64,
        "us",
    );
    put("batch.retire_us_mean", mean_us(&durs("batch.retire")), "us");
    put("batch.kv_bytes_peak", *kv_peak as f64, "bytes");

    let cs = traced.report.cache.unwrap_or_default();
    put("prefix_cache.hits", cs.hits as f64, "count");
    put("prefix_cache.misses", cs.misses as f64, "count");
    put("prefix_cache.hit_rate", cs.hit_rate(), "ratio");
    put("prefix_cache.insertions", cs.insertions as f64, "count");
    put("prefix_cache.evictions", cs.evictions as f64, "count");
    put("prefix_cache.bypasses", cs.bypasses as f64, "count");
    put("prefix_cache.bytes_peak", *cache_peak as f64, "bytes");

    let totals = snap.kernel_totals();
    for op in KERNEL_OPS {
        let (mut calls, mut flops, mut bytes, mut ns) = (0u64, 0u64, 0u64, 0u64);
        for ((name, _), k) in &totals {
            if name == op {
                calls += k.calls;
                flops += k.flops;
                bytes += k.bytes;
                ns += k.ns;
            }
        }
        put(&format!("tensor.{op}.calls"), calls as f64, "count");
        put(&format!("tensor.{op}.flops"), flops as f64, "count");
        put(&format!("tensor.{op}.bytes"), bytes as f64, "bytes");
        put(&format!("tensor.{op}.ms"), ms(ns), "ms");
    }

    put("harness.gen_lag_ms_p99", pct_ms(&e.lag, 99.0), "ms");
    for name in SPAN_NAMES {
        let ns = st.get(name).map_or(0, |&(_, ns)| ns);
        put(&format!("span.{name}.self_ms"), ms(ns), "ms");
    }

    // Tracing overhead on the step's headline metric: TTFT p50 for an
    // open loop, tokens/s for the closed loop (positive = traced worse).
    let overhead = match plan {
        Plan::Open { .. } => {
            let (a, b) = (plain_eval.ttft_p50, e.ttft_p50);
            println!("trace overhead: ttft_p50_ms untraced {a} traced {b}");
            (b - a) / a * 100.0
        }
        Plan::Closed { .. } => {
            let (a, b) = (plain_eval.tokens_per_s, e.tokens_per_s);
            println!("trace overhead: tokens_per_s untraced {a} traced {b}");
            (a - b) / a * 100.0
        }
    };
    put("trace.overhead_pct", overhead, "%");
    println!("span self times (count, total ms):");
    for (name, (count, ns)) in &st {
        println!("  {name:<18} {count:>8} {:>12.3}", ms(*ns));
    }

    let attempted = plain_eval.sent + e.sent;
    let failed = plain_eval.failed + e.failed;
    println!("{}", checker.summary());
    let correct = failed == 0;
    emit(correct, attempted, failed, &m);
    Ok(correct)
}
