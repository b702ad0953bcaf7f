//! The HetArch benchmark: closed-loop workloads run from one process,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate for the workload
//! definitions, the layer → end-to-end predictions and the held-out seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload surface_memory --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cells;
mod served;
mod surface;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hetarch::obs;
use hetarch::obs::RunReport;

use trace::{SelfTime, Tracer};

/// Every timed window holds at least this many ops, so at least ten lie
/// beyond the reported p90.
const MIN_OPS: u64 = 100;
/// Set-ups per untraced run before the timed window (the last one is
/// measured) and after it; `setup_s` is the median of all of them. Spreading
/// them over the run keeps one slow stretch of the machine from deciding
/// the median.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Share of a traced run's seconds spent on the untraced reference phase
/// that `trace.overhead_frac` compares against.
const UNTRACED_SHARE: f64 = 0.4;
/// Op indices of the traced phase start here, so traced ops draw seeds
/// distinct from the untraced phase before them.
const TRACED_OP_BASE: u64 = 1 << 32;
/// Largest worker pool any workload uses (further capped by `nproc`).
const MAX_WORKERS: usize = 2;

/// Metrics of the untraced runs, as `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("shots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of the traced run, as `(name, unit)`. Every workload reports
/// every entry; a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("stab.memory.circuit_ms", "ms"),
    ("stab.memory.graph_ms", "ms"),
    ("stab.frame.sample_ms", "ms"),
    ("stab.frame.sample_at_weight_ms", "ms"),
    ("stab.frame.enumerate_ms", "ms"),
    ("stab.frame.fault_model_ms", "ms"),
    ("stab.detector.assemble_ms", "ms"),
    ("stab.decoder.decode_ms", "ms"),
    ("stab.decoder.unions_per_shot", "count"),
    ("stab.decoder.growth_passes_per_shot", "count"),
    ("stab.decoder.empty_frac", "ratio"),
    ("exec.pool.efficiency", "ratio"),
    ("exec.rare.estimator_self_ms", "ms"),
    ("exec.rare.strata_per_op", "count"),
    ("qsim.kernel.applies_per_op", "count"),
    ("modules.uec.build_ms", "ms"),
    ("modules.uec.assign_ms", "ms"),
    ("modules.uec.lookup_build_ms", "ms"),
    ("modules.uec.fault_table_ms", "ms"),
    ("modules.uec.mc_ms", "ms"),
    ("modules.uec.rare_ms", "ms"),
    ("cells.library.hit_us", "us"),
    ("cells.library.miss_ms", "ms"),
    ("cells.library.hit_ratio", "ratio"),
    ("cells.library.miss_overhead_us", "us"),
    ("cells.characterize_ms.register", "ms"),
    ("cells.characterize_ms.parcheck", "ms"),
    ("cells.characterize_ms.seqop", "ms"),
    ("cells.characterize_ms.usc", "ms"),
    ("dse.pareto_us", "us"),
    ("devices.calib.parse_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.render_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.busy_rejects", "count"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub workers: usize,
}

/// One closed-loop op as the loop sees it.
pub struct OpOutcome {
    /// Monte-Carlo shots the op ran (or answered).
    pub shots: u64,
    /// False when the op returned an error, a mismatch or a refusal.
    pub ok: bool,
}

/// The checks run after a timed window.
pub struct Verdict {
    /// Ops whose output failed a check.
    pub failed_ops: u64,
    /// Checks over the whole window (statistical agreement) passed.
    pub aggregate_ok: bool,
    /// Shots of ops that report them only once checked (served replies).
    pub deferred_shots: u64,
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A benchmark workload: set-up, a black-box op for the untraced runs,
/// and a traced op that rebuilds the same work from the layers' public
/// calls.
pub trait Workload: Sized {
    /// Ops in the fixed count pass, which runs twice from a fresh set-up;
    /// the program's counters must repeat exactly between the two.
    const COUNT_OPS: u64;
    /// Builds the workload's state, including warm-up.
    fn setup(ctx: &Ctx) -> Self;
    /// One untraced op, recording what `verify` needs.
    fn op(&mut self, i: u64) -> OpOutcome;
    /// Checks every op run since the last call.
    fn verify(&mut self) -> Verdict;
    /// One traced op, checked against the black-box op on the same input.
    fn traced_op(&mut self, i: u64, tr: &Tracer) -> OpOutcome;
    /// Per-layer metrics of the traced phase.
    fn layer_metrics(&self, tr: &Tracer, report: &RunReport, out: &mut Metrics);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The program reads `HETARCH_*` knobs (shot counts, worker counts, DM
/// backend, observability); any of them would silently change what is
/// measured, so the benchmark refuses to run with one set.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HETARCH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark fixes every knob itself",
            set.join(", ")
        ))
    }
}

fn main() {
    let args = match check_environment().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Untraced runs measure with the program's counters disarmed.
    obs::force_enabled(false);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        workers: nproc.min(MAX_WORKERS),
    };
    println!(
        "workload {} seed {} seconds {} trace {}; nproc {nproc}, workers {}; \
         worker scaling: not measurable here",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.workers
    );
    let result = match args.workload.as_str() {
        "surface_memory" => run::<surface::SurfaceMemoryLoad>(&args, &ctx),
        "rare_memory" => run::<surface::RareMemoryLoad>(&args, &ctx),
        "served_dse" => run::<served::ServedDse>(&args, &ctx),
        "cell_characterization" => run::<cells::CellCharacterization>(&args, &ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    println!("{}", result.json());
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Latencies and totals of one closed-loop window.
struct Window {
    latencies: Vec<f64>,
    elapsed: f64,
    shots: u64,
    failed: u64,
    /// Peak RSS (MB) once `min_ops` ops had completed: a fixed amount of
    /// work, so state that grows with every op (the long-lived cell
    /// library) does not turn a faster program into a bigger one.
    rss_mb: f64,
}

impl Window {
    fn ops(&self) -> u64 {
        self.latencies.len() as u64
    }
}

/// Runs ops back to back (one client) until `seconds` have passed and at
/// least `min_ops` ops completed, or three times `seconds` at most.
fn closed_loop(
    seconds: f64,
    min_ops: u64,
    first: u64,
    mut op: impl FnMut(u64) -> OpOutcome,
) -> Window {
    let start = Instant::now();
    let cap = Duration::from_secs_f64(3.0 * seconds);
    let target = Duration::from_secs_f64(seconds);
    let mut w = Window {
        latencies: Vec::new(),
        elapsed: 0.0,
        shots: 0,
        failed: 0,
        rss_mb: 0.0,
    };
    let mut i = first;
    loop {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| op(i)));
        w.latencies.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok(o) => {
                w.shots += o.shots;
                w.failed += u64::from(!o.ok);
            }
            Err(_) => w.failed += 1,
        }
        i += 1;
        if w.ops() == min_ops {
            w.rss_mb = peak_rss_mb();
        }
        let el = start.elapsed();
        if (el >= target && w.ops() >= min_ops) || el >= cap {
            break;
        }
    }
    w.elapsed = start.elapsed().as_secs_f64();
    if w.ops() < min_ops {
        w.rss_mb = peak_rss_mb();
    }
    w
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<W: Workload>(args: &Args, ctx: &Ctx) -> RunResult {
    if args.trace {
        traced_run::<W>(args, ctx)
    } else {
        untraced_run::<W>(args, ctx)
    }
}

fn untraced_run<W: Workload>(args: &Args, ctx: &Ctx) -> RunResult {
    let timed_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let w = W::setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut state = None;
    for _ in 0..SETUPS_BEFORE {
        // The previous state is torn down outside the timed interval.
        state = Some(timed_setup(&mut setups));
    }
    let mut w = state.expect("at least one set-up");
    let window = closed_loop(args.seconds, MIN_OPS, 0, |i| w.op(i));
    let verdict = w.verify();
    drop(w);
    for _ in 0..SETUPS_AFTER {
        drop(timed_setup(&mut setups));
    }
    let ops = window.ops();
    if ops < MIN_OPS {
        println!("note: only {ops} ops fit in the window (fewer than {MIN_OPS})");
    }
    let values = [
        quantile(&setups, 0.5),
        ops as f64 / window.elapsed,
        quantile(&window.latencies, 0.5) * 1e3,
        quantile(&window.latencies, 0.9) * 1e3,
        (window.shots + verdict.deferred_shots) as f64 / window.elapsed,
        window.rss_mb,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<20} {value:>14.6} {unit}");
    }
    println!(
        "ops {ops}, window {:.3} s, set-ups {:?} s",
        window.elapsed, setups
    );
    let spread: Vec<String> = [10, 25, 50, 75, 90, 99]
        .iter()
        .map(|&p| {
            format!(
                "p{p} {:.3}",
                quantile(&window.latencies, p as f64 / 100.0) * 1e3
            )
        })
        .collect();
    println!("latency quantiles (ms): {}", spread.join(" "));
    let failed = (window.failed + verdict.failed_ops).min(ops);
    RunResult {
        correct: failed == 0 && verdict.aggregate_ok,
        attempted: ops,
        failed,
        metrics,
    }
}

fn traced_run<W: Workload>(args: &Args, ctx: &Ctx) -> RunResult {
    let mut w = W::setup(ctx);
    let untraced = closed_loop(args.seconds * UNTRACED_SHARE, 10, 0, |i| w.op(i));
    let verdict = w.verify();

    obs::force_enabled(true);
    obs::reset();
    let tr = Tracer::new();
    let traced = closed_loop(
        args.seconds * (1.0 - UNTRACED_SHARE),
        10,
        TRACED_OP_BASE,
        |i| {
            tr.set_op(i);
            w.traced_op(i, &tr)
        },
    );
    let report = obs::report();
    let traced_verdict = unobserved(|| w.verify());
    let mut metrics = Metrics::new();
    w.layer_metrics(&tr, &report, &mut metrics);
    drop(w);

    let accounting = tr.accounting();
    let (op_wall_ns, traced_ops) = tr.op_wall();
    let traced_rate = traced_ops as f64 / (op_wall_ns / 1e9);
    let untraced_rate = untraced.ops() as f64 / untraced.elapsed;
    metrics.insert("trace.unaccounted_frac", accounting.unaccounted_frac());
    metrics.insert("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);

    let (counts, counts_repeat) = count_passes::<W>(ctx);
    obs::force_enabled(false);
    count_metrics(&counts, W::COUNT_OPS, &mut metrics);

    println!(
        "traced ops {traced_ops} (untraced phase {} ops); count pass {} ops",
        untraced.ops(),
        W::COUNT_OPS
    );
    println!("op wall-time accounting ({}):", args.workload);
    print!("{}", accounting.table());
    let adds_up = accounting.check();
    println!(
        "layer self times + unaccounted = op wall: {}; counters repeat across two count passes: {}",
        adds_up, counts_repeat
    );
    write_trace_file(args, &tr, &accounting, &counts);

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, metrics.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<38} {value:>14.6} {unit}");
    }
    let attempted = untraced.ops() + traced.ops();
    let failed = (untraced.failed + verdict.failed_ops + traced.failed + traced_verdict.failed_ops)
        .min(attempted);
    RunResult {
        correct: failed == 0
            && verdict.aggregate_ok
            && traced_verdict.aggregate_ok
            && adds_up
            && counts_repeat,
        attempted,
        failed,
        metrics,
    }
}

/// Runs the fixed count pass twice from fresh set-ups with the counters
/// armed; returns the first pass's counters and whether both passes
/// succeeded with identical counters.
fn count_passes<W: Workload>(ctx: &Ctx) -> (RunReport, bool) {
    let pass = || {
        let mut w = W::setup(ctx);
        obs::reset();
        let ok = (0..W::COUNT_OPS).all(|i| w.op(i).ok);
        (obs::report(), ok)
    };
    let (first, first_ok) = pass();
    let (second, second_ok) = pass();
    let repeat = first.golden_json() == second.golden_json();
    if !repeat {
        println!(
            "counters differ between count passes:\n  {}\n  {}",
            first.golden_json(),
            second.golden_json()
        );
    }
    (first, repeat && first_ok && second_ok)
}

/// Count metrics from the program's own counters over the count pass.
fn count_metrics(report: &RunReport, ops: u64, out: &mut Metrics) {
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let shots = c("stab.decoder.decodes") + c("stab.decoder.empty_fast_path");
    let per_shot = |v: f64| if shots > 0.0 { v / shots } else { 0.0 };
    out.insert(
        "stab.decoder.unions_per_shot",
        per_shot(c("stab.decoder.unions")),
    );
    out.insert(
        "stab.decoder.growth_passes_per_shot",
        per_shot(c("stab.decoder.growth_passes")),
    );
    out.insert(
        "stab.decoder.empty_frac",
        per_shot(c("stab.decoder.empty_fast_path")),
    );
    let ops = ops.max(1) as f64;
    out.insert("qsim.kernel.applies_per_op", c("qsim.kernel.applies") / ops);
    out.insert("exec.rare.strata_per_op", c("exec.rare.strata") / ops);
}

/// Writes the spans and the accounting to `perfbench/traces/`.
fn write_trace_file(args: &Args, tr: &Tracer, acc: &trace::Accounting, counts: &RunReport) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut layers = String::from("{");
    for (i, (name, ns)) in acc.layers.iter().enumerate() {
        if i > 0 {
            layers.push(',');
        }
        let _ = write!(layers, "\"{name}\":{ns:?}");
    }
    layers.push('}');
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"op_wall_ns\":{:?},\"unaccounted_ns\":{:?},\
         \"layer_self_ns\":{layers},\"count_pass\":{},\"spans\":{}}}\n",
        args.workload,
        args.seed,
        acc.wall_ns,
        acc.unaccounted_ns,
        counts.golden_json(),
        tr.spans_json()
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("note: could not write {}: {e}", path.display()),
    }
}

/// Per-op mean of a span name's self time (its share of op wall time), in
/// milliseconds.
pub fn per_op_ms(st: &BTreeMap<&'static str, SelfTime>, name: &str, ops: u64) -> f64 {
    st.get(name)
        .map_or(0.0, |v| v.wall_ns / 1e6 / ops.max(1) as f64)
}

/// Mean self time per span of a name, in microseconds.
pub fn per_call_us(st: &BTreeMap<&'static str, SelfTime>, name: &str) -> f64 {
    st.get(name)
        .filter(|v| v.count > 0)
        .map_or(0.0, |v| v.busy_ns / 1e3 / v.count as f64)
}

/// Seeded generator for workload inputs (SplitMix64 over the program's
/// own seed derivation).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        hetarch::exec::shard_seed(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Runs `f` with the program's counters disarmed, so checks and probes
/// inside a traced op do not count as traced work.
pub fn unobserved<R>(f: impl FnOnce() -> R) -> R {
    obs::force_enabled(false);
    let out = f();
    obs::force_enabled(true);
    out
}

/// The seed of op `i` of a run seeded with `seed`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    hetarch::exec::shard_seed(seed, i)
}
