//! `cell_characterization`: cold density-matrix characterization of all
//! four standard cells.
//!
//! Each worker owns one long-lived `CellLibrary`; an op characterizes all
//! four cells on sixteen fresh `(compute T, storage T)` pairs per worker, the
//! workers running side by side. Every lookup misses and runs the `qsim`
//! gate and channel kernels; library hits are measured in `served_dse`.
//!
//! The op spans every worker because a single thread's speed on the
//! development host changes by up to 1.8× for seconds at a time, per CPU;
//! an op that waits for all workers reads the slower CPU and is far
//! steadier from run to run.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hetarch::cells::{Cell, CellLibrary, ParCheckCell, RegisterCell, SeqOpCell, UscCell};
use hetarch::devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch::devices::DeviceSpec;
use hetarch::exec::WorkerPool;
use hetarch::obs::RunReport;

use crate::trace::{Tracer, OP};
use crate::{op_seed, per_op_ms, Ctx, Metrics, OpOutcome, Rng, Verdict, Workload};

/// Compute coherence range (seconds), drawn log-uniformly per pair.
const COMPUTE_T: (f64, f64) = (0.2e-3, 2e-3);
/// Storage coherence range (seconds), drawn log-uniformly per pair.
const STORAGE_T: (f64, f64) = (2e-3, 200e-3);
/// Span of the parallel section that waits for every worker's pair.
const SECTION: &str = "exec.pool.map";
/// Device pairs each worker characterizes per op. The host takes a CPU
/// away for ~5–10 ms now and then; a worker that loses its CPU delays the
/// op by that much. With one pair (~2 ms) or four pairs (~8 ms) per worker
/// such a stall doubled one op in ten and moved the p90 latency between
/// runs by up to 75%; over sixteen pairs (~30 ms) it stretches the op by a
/// fraction.
const PAIRS_PER_WORKER: usize = 16;
/// Ops of warm-up in set-up: one op fills every lazy cache.
const WARMUP_OPS: u64 = 1;

/// The device pair in slot `slot` of op `i` (worker `slot / PAIRS_PER_WORKER`
/// characterizes it).
fn devices(seed: u64, i: u64, slot: usize) -> (DeviceSpec, DeviceSpec) {
    let mut rng = Rng::new(op_seed(op_seed(seed, i), slot as u64));
    let tc = rng.log_uniform(COMPUTE_T.0, COMPUTE_T.1);
    let ts = rng.log_uniform(STORAGE_T.0, STORAGE_T.1);
    (coherence_limited_compute(tc), coherence_limited_storage(ts))
}

/// The four channels of one pair.
struct Channels {
    register: Arc<<RegisterCell as Cell>::Channel>,
    parcheck: Arc<<ParCheckCell as Cell>::Channel>,
    seqop: Arc<<SeqOpCell as Cell>::Channel>,
    usc: Arc<<UscCell as Cell>::Channel>,
}

fn get_all(lib: &CellLibrary, compute: &DeviceSpec, storage: &DeviceSpec) -> Channels {
    Channels {
        register: lib.get::<RegisterCell>(compute, storage),
        parcheck: lib.get::<ParCheckCell>(compute, compute),
        seqop: lib.get::<SeqOpCell>(compute, storage),
        usc: lib.get::<UscCell>(compute, storage),
    }
}

fn traced_get_all(
    tr: &Tracer,
    lib: &CellLibrary,
    compute: &DeviceSpec,
    storage: &DeviceSpec,
) -> Channels {
    let (c, s) = (compute, storage);
    Channels {
        register: traced_get(tr, lib, "cells.characterize.register", || {
            lib.get::<RegisterCell>(c, s)
        }),
        parcheck: traced_get(tr, lib, "cells.characterize.parcheck", || {
            lib.get::<ParCheckCell>(c, c)
        }),
        seqop: traced_get(tr, lib, "cells.characterize.seqop", || {
            lib.get::<SeqOpCell>(c, s)
        }),
        usc: traced_get(tr, lib, "cells.characterize.usc", || {
            lib.get::<UscCell>(c, s)
        }),
    }
}

/// Direct characterization, bypassing the library.
fn direct<C: Cell>(a: &DeviceSpec, b: &DeviceSpec) -> C::Channel {
    C::build(a.clone(), b.clone())
        .expect("catalog devices pass the design rules")
        .characterize()
}

fn same_bits<T: serde::Serialize>(a: &T, b: &T) -> bool {
    serde::to_bytes(a) == serde::to_bytes(b)
}

/// The library's channels equal a direct characterization bit for bit.
fn matches_direct(compute: &DeviceSpec, storage: &DeviceSpec, ch: &Channels) -> bool {
    same_bits(&*ch.register, &direct::<RegisterCell>(compute, storage))
        && same_bits(&*ch.parcheck, &direct::<ParCheckCell>(compute, compute))
        && same_bits(&*ch.seqop, &direct::<SeqOpCell>(compute, storage))
        && same_bits(&*ch.usc, &direct::<UscCell>(compute, storage))
}

/// The pair slots worker `lane` characterizes.
fn slots(lane: usize) -> std::ops::Range<usize> {
    lane * PAIRS_PER_WORKER..(lane + 1) * PAIRS_PER_WORKER
}

/// Every pair of op `i` matches a direct characterization.
fn matches_all(seed: u64, i: u64, channels: &[Channels]) -> bool {
    channels.iter().enumerate().all(|(slot, ch)| {
        let (compute, storage) = devices(seed, i, slot);
        matches_direct(&compute, &storage, ch)
    })
}

/// A library lookup as a span named after its outcome
/// (`cells.library.hit` or `cells.library.miss`). A miss carries a child
/// span `characterize` for the build and characterization time the
/// library measures itself.
pub fn traced_get<R>(
    tr: &Tracer,
    lib: &CellLibrary,
    characterize: &'static str,
    get: impl FnOnce() -> R,
) -> R {
    let before = lib.stats();
    let start = Instant::now();
    let out = get();
    let duration = start.elapsed();
    let after = lib.stats();
    if after.misses > before.misses {
        let id = tr.record("cells.library.miss", start, duration);
        let sim = (after.sim_seconds_run - before.sim_seconds_run).max(0.0);
        tr.record_under(Some(id), characterize, start, Duration::from_secs_f64(sim));
    } else {
        tr.record("cells.library.hit", start, duration);
    }
    out
}

/// Library metrics from the `cells.library.{hit,miss}` spans, per call.
pub fn library_metrics(tr: &Tracer, out: &mut Metrics) {
    let st = tr.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let (hit, miss) = (get("cells.library.hit"), get("cells.library.miss"));
    let characterize_ns: f64 = st
        .iter()
        .filter(|(name, _)| name.starts_with("cells.characterize."))
        .map(|(_, v)| v.busy_ns)
        .sum();
    if hit.count > 0 {
        out.insert("cells.library.hit_us", hit.busy_ns / 1e3 / hit.count as f64);
    }
    if miss.count > 0 {
        let misses = miss.count as f64;
        out.insert(
            "cells.library.miss_ms",
            (miss.busy_ns + characterize_ns) / 1e6 / misses,
        );
        out.insert(
            "cells.library.miss_overhead_us",
            miss.busy_ns / 1e3 / misses,
        );
    }
    if hit.count + miss.count > 0 {
        out.insert(
            "cells.library.hit_ratio",
            hit.count as f64 / (hit.count + miss.count) as f64,
        );
    }
}

/// One op: `CellLibrary::get` for Register, ParCheck (compute, compute),
/// SeqOp and USC on `PAIRS_PER_WORKER` fresh device pairs per worker, the
/// workers side by side.
pub struct CellCharacterization {
    /// One long-lived library per worker.
    libs: Vec<CellLibrary>,
    pool: WorkerPool,
    seed: u64,
    /// Every op's channels, one entry per worker, since the last verify.
    done: Vec<(u64, Vec<Channels>)>,
}

impl CellCharacterization {
    /// Op `i` of a run seeded `seed`: every worker's pair, side by side.
    fn characterize(&self, seed: u64, i: u64) -> Vec<Channels> {
        let libs = &self.libs;
        self.pool
            .map_indexed(libs.len(), |lane| {
                slots(lane)
                    .map(|slot| {
                        let (compute, storage) = devices(seed, i, slot);
                        get_all(&libs[lane], &compute, &storage)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }
}

impl Workload for CellCharacterization {
    const COUNT_OPS: u64 = 4;

    fn setup(ctx: &Ctx) -> Self {
        let w = CellCharacterization {
            libs: (0..ctx.workers).map(|_| CellLibrary::new()).collect(),
            pool: WorkerPool::new(ctx.workers),
            seed: ctx.seed,
            done: Vec::new(),
        };
        for i in 0..WARMUP_OPS {
            w.characterize(!ctx.seed, i);
        }
        w
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let channels = self.characterize(self.seed, i);
        self.done.push((i, channels));
        OpOutcome {
            shots: (4 * PAIRS_PER_WORKER * self.libs.len()) as u64,
            ok: true,
        }
    }

    fn verify(&mut self) -> Verdict {
        let seed = self.seed;
        let done = std::mem::take(&mut self.done);
        let failed = self
            .pool
            .map_indexed(done.len(), |k| {
                let (i, channels) = &done[k];
                !matches_all(seed, *i, channels)
            })
            .into_iter()
            .filter(|&bad| bad)
            .count();
        Verdict {
            failed_ops: failed as u64,
            aggregate_ok: true,
            deferred_shots: 0,
        }
    }

    fn traced_op(&mut self, i: u64, tr: &Tracer) -> OpOutcome {
        let (libs, seed, pool) = (&self.libs, self.seed, &self.pool);
        let lanes: Vec<Mutex<Tracer>> = libs.iter().map(|_| Mutex::new(tr.lane())).collect();
        let (channels, section) = tr.time(OP, || {
            tr.time_id(SECTION, || {
                pool.map_indexed(libs.len(), |lane| {
                    let lane_tr = lanes[lane].lock().expect("lane tracer not poisoned");
                    slots(lane)
                        .map(|slot| {
                            let (compute, storage) = devices(seed, i, slot);
                            traced_get_all(&lane_tr, &libs[lane], &compute, &storage)
                        })
                        .collect::<Vec<_>>()
                })
            })
        });
        let lanes = lanes
            .into_iter()
            .map(|m| m.into_inner().expect("lane tracer not poisoned"))
            .collect();
        tr.merge_lanes(section, lanes);
        let channels: Vec<Channels> = channels.into_iter().flatten().collect();
        OpOutcome {
            shots: (4 * PAIRS_PER_WORKER * libs.len()) as u64,
            ok: matches_all(seed, i, &channels),
        }
    }

    fn layer_metrics(&self, tr: &Tracer, _report: &RunReport, out: &mut Metrics) {
        let st = tr.self_times();
        let ops = tr.op_wall().1;
        for (metric, span) in [
            (
                "cells.characterize_ms.register",
                "cells.characterize.register",
            ),
            (
                "cells.characterize_ms.parcheck",
                "cells.characterize.parcheck",
            ),
            ("cells.characterize_ms.seqop", "cells.characterize.seqop"),
            ("cells.characterize_ms.usc", "cells.characterize.usc"),
        ] {
            out.insert(metric, per_op_ms(&st, span, ops));
        }
        // The section's self time is the time the workers left idle.
        if let Some(section) = st.get(SECTION).filter(|s| s.total_ns > 0.0) {
            out.insert(
                "exec.pool.efficiency",
                1.0 - section.wall_ns / section.total_ns,
            );
        }
        library_metrics(tr, out);
    }
}
