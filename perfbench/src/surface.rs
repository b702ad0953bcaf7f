//! `surface_memory` and `rare_memory`: the QEC Monte-Carlo workloads.
//!
//! Both run a rotated-surface-code memory through `stab` (frame sampling,
//! detector assembly, union-find decoding) on the sharded `exec` engine;
//! `rare_memory` does so through the weight-stratified estimator of
//! `exec::rare`. The traced op rebuilds each op from the layers' public
//! calls and must reproduce the black-box result bit for bit.

use std::cell::Cell;
use std::time::Instant;

use hetarch::exec::rare::{RareConfig, StratifiedEstimator, StratumEval};
use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::obs::RunReport;
use hetarch::stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
use hetarch::stab::decoder::UnionFindDecoder;
use hetarch::stab::detector::{assemble_detectors, DetectorSamples};
use hetarch::stab::frame::{enumerate_at_weight, sample_at_weight, FaultModel, FrameSampler};

use crate::trace::{Tracer, OP};
use crate::{op_seed, per_op_ms, unobserved, Ctx, Metrics, OpOutcome, Verdict, Workload};

/// Shots per decoding shard, as the memory's own decode loop uses.
const DECODE_SHARD_SHOTS: usize = 1024;

/// Per-op check: an op's failures may stray this many standard deviations
/// from the reference rate (a false alarm is < 1e-9 per op).
const OP_SIGMAS: f64 = 8.0;
/// Whole-window check on the pooled estimate.
const WINDOW_SIGMAS: f64 = 5.0;

const SURFACE_D: usize = 7;
const SURFACE_SHOTS: usize = 8192;
/// Per-shot logical error rate of the d=7, 7-round memory under
/// `SurfaceNoise::default()`, measured over `SURFACE_REF_SHOTS` shots at
/// the reference seed (see README.md).
const SURFACE_REF_RATE: f64 = 0.083_335_161_209_106_45;
const SURFACE_REF_SHOTS: f64 = 4_194_304.0;

/// Runs the union-find decoder over every shot of `samples` on the pool,
/// the way the memory's own decode loop does.
fn count_failures(
    pool: &WorkerPool,
    uf: &UnionFindDecoder,
    samples: &DetectorSamples,
    shots: usize,
    seed: u64,
) -> u64 {
    pool.run_shards(shots, DECODE_SHARD_SHOTS, seed, |shard| {
        let mut scratch = uf.new_scratch();
        uf.count_failures(
            &mut scratch,
            &samples.detectors,
            &samples.observables,
            0,
            shard.start,
            shard.len,
        )
    })
    .into_iter()
    .sum()
}

/// Busy time of pool jobs over the capacity of the pool phases:
/// `exec.compute_ns` ÷ (workers × wall time of the phases that ran on the
/// pool).
fn pool_efficiency(report: &RunReport, workers: usize, pool_wall_ns: f64) -> f64 {
    let busy = report
        .histograms
        .get("exec.compute_ns")
        .map_or(0.0, |h| h.sum as f64);
    if pool_wall_ns > 0.0 {
        busy / (workers as f64 * pool_wall_ns)
    } else {
        0.0
    }
}

fn timed<R>(acc: &Cell<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    acc.set(acc.get() + t.elapsed().as_nanos() as f64);
    out
}

/// `|observed - expected| <= sigmas * sd`, for binomial counts against a
/// reference rate that was itself estimated from `ref_shots` shots.
fn binomial_agrees(failures: f64, shots: f64, rate: f64, ref_shots: f64, sigmas: f64) -> bool {
    let var = shots * rate * (1.0 - rate) * (1.0 + shots / ref_shots);
    (failures - shots * rate).abs() <= sigmas * var.sqrt().max(1.0)
}

/// One op: `SurfaceMemory::new(7, 7, default).logical_error_rate_on(pool,
/// UnionFind, 8192, seed_i)`.
pub struct SurfaceMemoryLoad {
    pool: WorkerPool,
    memory: SurfaceMemory,
    seed: u64,
    failures: Vec<u64>,
    pool_wall_ns: Cell<f64>,
}

impl SurfaceMemoryLoad {
    fn black_box(&self, seed: u64) -> f64 {
        self.memory
            .logical_error_rate_on(&self.pool, SurfaceDecoder::UnionFind, SURFACE_SHOTS, seed)
            .0
    }

    fn check(failures: u64) -> bool {
        binomial_agrees(
            failures as f64,
            SURFACE_SHOTS as f64,
            SURFACE_REF_RATE,
            SURFACE_REF_SHOTS,
            OP_SIGMAS,
        )
    }
}

impl Workload for SurfaceMemoryLoad {
    const COUNT_OPS: u64 = 2;

    fn setup(ctx: &Ctx) -> Self {
        let w = SurfaceMemoryLoad {
            pool: WorkerPool::new(ctx.workers),
            memory: SurfaceMemory::new(SURFACE_D, SURFACE_D, SurfaceNoise::default()),
            seed: ctx.seed,
            failures: Vec::new(),
            pool_wall_ns: Cell::new(0.0),
        };
        w.black_box(op_seed(!ctx.seed, 0));
        w
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let per_shot = self.black_box(op_seed(self.seed, i));
        let failures = (per_shot * SURFACE_SHOTS as f64).round() as u64;
        self.failures.push(failures);
        OpOutcome {
            shots: SURFACE_SHOTS as u64,
            ok: Self::check(failures),
        }
    }

    fn verify(&mut self) -> Verdict {
        let failures: u64 = self.failures.iter().sum();
        let shots = (self.failures.len() * SURFACE_SHOTS) as f64;
        self.failures.clear();
        Verdict {
            failed_ops: 0,
            aggregate_ok: shots == 0.0
                || binomial_agrees(
                    failures as f64,
                    shots,
                    SURFACE_REF_RATE,
                    SURFACE_REF_SHOTS,
                    WINDOW_SIGMAS,
                ),
            deferred_shots: 0,
        }
    }

    fn traced_op(&mut self, i: u64, tr: &Tracer) -> OpOutcome {
        let seed = op_seed(self.seed, i);
        let (pool, memory, wall) = (&self.pool, &self.memory, &self.pool_wall_ns);
        let failures = tr.time(OP, || {
            let circuit = tr.time("stab.memory.circuit", || memory.circuit());
            let uf = tr.time("stab.memory.graph", || {
                UnionFindDecoder::new(&memory.matching_graph())
            });
            let frames = tr.time("stab.frame.sample", || {
                timed(wall, || {
                    FrameSampler::sample(&circuit, SURFACE_SHOTS, seed, pool)
                })
            });
            let samples = tr.time("stab.detector.assemble", || {
                assemble_detectors(&circuit, &frames.meas_flips, SURFACE_SHOTS)
            });
            tr.time("stab.decoder.decode", || {
                timed(wall, || {
                    count_failures(pool, &uf, &samples, SURFACE_SHOTS, seed)
                })
            })
        });
        let rebuilt = failures as f64 / SURFACE_SHOTS as f64;
        let black_box = unobserved(|| self.black_box(seed));
        OpOutcome {
            shots: SURFACE_SHOTS as u64,
            ok: rebuilt.to_bits() == black_box.to_bits() && Self::check(failures),
        }
    }

    fn layer_metrics(&self, tr: &Tracer, report: &RunReport, out: &mut Metrics) {
        let st = tr.self_times();
        let ops = tr.op_wall().1;
        for (metric, span) in [
            ("stab.memory.circuit_ms", "stab.memory.circuit"),
            ("stab.memory.graph_ms", "stab.memory.graph"),
            ("stab.frame.sample_ms", "stab.frame.sample"),
            ("stab.detector.assemble_ms", "stab.detector.assemble"),
            ("stab.decoder.decode_ms", "stab.decoder.decode"),
        ] {
            out.insert(metric, per_op_ms(&st, span, ops));
        }
        out.insert(
            "exec.pool.efficiency",
            pool_efficiency(report, self.pool.workers(), self.pool_wall_ns.get()),
        );
    }
}

const RARE_D: usize = 5;
const RARE_ROUNDS: usize = 2;
/// Conditioned shots per sampled stratum: four sampling shards
/// (`stab::frame::SHARD_SHOTS` is 4096) and sixteen decode shards. At 2048
/// shots (one sampling shard) conditioned sampling ran on one thread and
/// read that CPU's speed swings: the p50 latency of ten runs spread by 29%.
/// At 8192 the op's many short parallel phases, each waiting for its
/// slowest shard, let CPU stalls move p90 by 26% between runs.
const RARE_SHOTS_PER_STRATUM: usize = 16384;
fn rare_config() -> RareConfig {
    RareConfig {
        max_strata: 8,
        shots_per_stratum: RARE_SHOTS_PER_STRATUM,
        ..RareConfig::default()
    }
}
/// Reference logical error rate of the deep-subthreshold d=5 memory,
/// from one estimator run at the reference seed with 131072 conditioned
/// shots per stratum (see README.md).
const RARE_REF_P: f64 = 1.092_436_386_644_025_2e-7;
/// One standard deviation of a single op's estimate, computed from the
/// reference run's per-stratum failure rates at 16384 shots per stratum.
const RARE_OP_SIGMA: f64 = 7.384_880_217_790_966e-9;
/// The reference run's own standard deviation and truncation bound.
const RARE_REF_SIGMA: f64 = 2.610_949_440_125_19e-9;
const RARE_REF_TRUNCATION: f64 = 5.912_320_497_832_42e-10;

fn rare_noise() -> SurfaceNoise {
    SurfaceNoise {
        t_data: 10.0,
        t_anc: 10.0,
        p1: 2e-5,
        p2: 2e-4,
        p_meas: 1e-4,
        ..SurfaceNoise::default()
    }
}

/// One op: `logical_error_rate_rare_on(pool, UnionFind, RareConfig {
/// max_strata: 8, shots_per_stratum: 16384, .. }, seed_i)` on the d=5,
/// 2-round deep-subthreshold memory.
pub struct RareMemoryLoad {
    pool: WorkerPool,
    memory: SurfaceMemory,
    seed: u64,
    /// `(p_L, truncation bound)` per op since the last verify.
    estimates: Vec<(f64, f64)>,
    pool_wall_ns: Cell<f64>,
}

impl RareMemoryLoad {
    fn black_box(&self, seed: u64) -> hetarch::exec::rare::RareOutcome {
        self.memory.logical_error_rate_rare_on(
            &self.pool,
            SurfaceDecoder::UnionFind,
            rare_config(),
            seed,
        )
    }

    fn check(p_l: f64, truncation: f64) -> bool {
        let sd = (RARE_OP_SIGMA.powi(2) + RARE_REF_SIGMA.powi(2)).sqrt();
        (p_l - RARE_REF_P).abs() <= OP_SIGMAS * sd + truncation + RARE_REF_TRUNCATION
    }
}

impl Workload for RareMemoryLoad {
    const COUNT_OPS: u64 = 2;

    fn setup(ctx: &Ctx) -> Self {
        let w = RareMemoryLoad {
            pool: WorkerPool::new(ctx.workers),
            memory: SurfaceMemory::new(RARE_D, RARE_ROUNDS, rare_noise()),
            seed: ctx.seed,
            estimates: Vec::new(),
            pool_wall_ns: Cell::new(0.0),
        };
        let _ = w.black_box(op_seed(!ctx.seed, 0));
        w
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let outcome = self.black_box(op_seed(self.seed, i));
        let report = outcome.report();
        self.estimates.push((report.p_l, report.truncation_bound));
        OpOutcome {
            shots: report.total_shots as u64,
            ok: Self::check(report.p_l, report.truncation_bound),
        }
    }

    fn verify(&mut self) -> Verdict {
        let n = self.estimates.len() as f64;
        let ok = n == 0.0 || {
            let mean = self.estimates.iter().map(|e| e.0).sum::<f64>() / n;
            let truncation = self.estimates.iter().map(|e| e.1).fold(0.0, f64::max);
            let sd = (RARE_OP_SIGMA.powi(2) / n + RARE_REF_SIGMA.powi(2)).sqrt();
            (mean - RARE_REF_P).abs() <= WINDOW_SIGMAS * sd + truncation + RARE_REF_TRUNCATION
        };
        self.estimates.clear();
        Verdict {
            failed_ops: 0,
            aggregate_ok: ok,
            deferred_shots: 0,
        }
    }

    fn traced_op(&mut self, i: u64, tr: &Tracer) -> OpOutcome {
        let seed = op_seed(self.seed, i);
        let (pool, memory, wall) = (&self.pool, &self.memory, &self.pool_wall_ns);
        let config = rare_config();
        let outcome = tr.time(OP, || {
            let circuit = tr.time("stab.memory.circuit", || memory.circuit());
            let uf = tr.time("stab.memory.graph", || {
                UnionFindDecoder::new(&memory.matching_graph())
            });
            let (model, prior) = tr.time("stab.frame.fault_model", || {
                let model = FaultModel::from_circuit(&circuit);
                let prior = model.prior();
                (model, prior)
            });
            tr.time("exec.rare.estimator", || {
                StratifiedEstimator::new(&prior, config).run(|w| {
                    let enumerated = tr.time("stab.frame.enumerate", || {
                        enumerate_at_weight(&circuit, &model, w, config.enumerate_threshold)
                    });
                    match enumerated {
                        Some((configs, frames)) => {
                            let n = configs.len();
                            let samples = tr.time("stab.detector.assemble", || {
                                assemble_detectors(&circuit, &frames.meas_flips, n)
                            });
                            let failure_probability = tr.time("stab.decoder.decode", || {
                                let mut scratch = uf.new_scratch();
                                let mut p = 0.0;
                                uf.decode_shots(
                                    &mut scratch,
                                    &samples.detectors,
                                    &samples.observables,
                                    0,
                                    0,
                                    n,
                                    |shot, failed| {
                                        if failed {
                                            p += configs[shot].weight;
                                        }
                                    },
                                );
                                p
                            });
                            StratumEval::Enumerated {
                                failure_probability,
                                configs: n as u64,
                            }
                        }
                        None => {
                            let shots = config.shots_per_stratum;
                            let stratum_seed = shard_seed(seed, w as u64);
                            let frames = tr.time("stab.frame.sample_at_weight", || {
                                timed(wall, || {
                                    sample_at_weight(&circuit, &model, w, shots, stratum_seed, pool)
                                })
                            });
                            let samples = tr.time("stab.detector.assemble", || {
                                assemble_detectors(&circuit, &frames.meas_flips, shots)
                            });
                            let failures = tr.time("stab.decoder.decode", || {
                                timed(wall, || {
                                    count_failures(pool, &uf, &samples, shots, stratum_seed)
                                })
                            });
                            StratumEval::Sampled { failures, shots }
                        }
                    }
                })
            })
        });
        let black_box = unobserved(|| self.black_box(seed));
        let report = outcome.report();
        let identical = outcome.is_converged() == black_box.is_converged()
            && format!("{report:?}") == format!("{:?}", black_box.report());
        OpOutcome {
            shots: report.total_shots as u64,
            ok: identical && Self::check(report.p_l, report.truncation_bound),
        }
    }

    fn layer_metrics(&self, tr: &Tracer, report: &RunReport, out: &mut Metrics) {
        let st = tr.self_times();
        let ops = tr.op_wall().1;
        for (metric, span) in [
            ("stab.memory.circuit_ms", "stab.memory.circuit"),
            ("stab.memory.graph_ms", "stab.memory.graph"),
            ("stab.frame.fault_model_ms", "stab.frame.fault_model"),
            ("stab.frame.enumerate_ms", "stab.frame.enumerate"),
            (
                "stab.frame.sample_at_weight_ms",
                "stab.frame.sample_at_weight",
            ),
            ("stab.detector.assemble_ms", "stab.detector.assemble"),
            ("stab.decoder.decode_ms", "stab.decoder.decode"),
            ("exec.rare.estimator_self_ms", "exec.rare.estimator"),
        ] {
            out.insert(metric, per_op_ms(&st, span, ops));
        }
        out.insert(
            "exec.pool.efficiency",
            pool_efficiency(report, self.pool.workers(), self.pool_wall_ns.get()),
        );
    }
}
