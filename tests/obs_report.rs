//! Integration checks for the observability layer.
//!
//! Compiled only with the `obs` feature (the file is empty otherwise), and
//! run in CI alongside the determinism and golden suites with
//! `HETARCH_OBS=1` to prove that instrumentation never perturbs results.

#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard, OnceLock};

use hetarch::obs;
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;

/// Serializes tests: the obs registry and runtime gate are process-global.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const UEC_SHOTS: usize = 1500;

fn uec_workload(pool: &WorkerPool) -> UecResult {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(10e-3),
    )
    .expect("valid USC")
    .characterize();
    UecModule::new(steane(), usc, UecNoise::default()).logical_error_rate_on(pool, UEC_SHOTS, 17)
}

fn surface_workload(pool: &WorkerPool) -> (f64, f64) {
    SurfaceMemory::new(3, 3, SurfaceNoise::default()).logical_error_rate_on(
        pool,
        SurfaceDecoder::UnionFind,
        2000,
        23,
    )
}

fn distill_workload(pool: &WorkerPool) -> Vec<usize> {
    let module = DistillModule::new(DistillConfig::heterogeneous(2.5e-3, 1e6, 7));
    module
        .run_batch_on(pool, 500e-6, 4)
        .into_iter()
        .map(|r| r.delivered)
        .collect()
}

/// The golden (counters-only) report is byte-identical for every worker
/// count: counters track simulation events, never scheduling artifacts.
#[test]
fn golden_report_is_worker_count_invariant() {
    let _guard = serialized();
    obs::force_enabled(true);
    struct Baseline {
        golden: String,
        uec: UecResult,
        surface: (f64, f64),
        distill: Vec<usize>,
    }
    let mut baseline: Option<Baseline> = None;
    for workers in [1, 2, 8] {
        obs::reset();
        let pool = WorkerPool::new(workers);
        let uec = uec_workload(&pool);
        let surface = surface_workload(&pool);
        let distill = distill_workload(&pool);
        let golden = obs::report().golden_json();
        match &baseline {
            None => {
                baseline = Some(Baseline {
                    golden,
                    uec,
                    surface,
                    distill,
                })
            }
            Some(b) => {
                assert_eq!(
                    golden, b.golden,
                    "golden report differs at {workers} workers"
                );
                assert_eq!(uec, b.uec, "UEC result differs at {workers} workers");
                assert_eq!(
                    surface, b.surface,
                    "surface result differs at {workers} workers"
                );
                assert_eq!(
                    distill, b.distill,
                    "distill result differs at {workers} workers"
                );
            }
        }
    }
}

/// Counters account for exactly the work submitted.
#[test]
fn counters_track_submitted_work() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let pool = WorkerPool::new(2);
    let result = uec_workload(&pool);
    let report = obs::report();
    assert_eq!(report.counters["modules.uec.shots"], UEC_SHOTS as u64);
    assert_eq!(
        report.counters["modules.uec.failures"],
        (result.logical_error_rate * UEC_SHOTS as f64).round() as u64
    );
    let shards = UEC_SHOTS.div_ceil(512) as u64;
    assert_eq!(report.counters["exec.shards_executed"], shards);
    // Full JSON is well-formed enough to embed: keys appear in sorted order.
    let json = report.to_json();
    assert!(json.starts_with("{\"counters\":{"));
    assert!(json.contains("\"modules.uec.shots\":1500"));
}

/// With the runtime gate off nothing is recorded, and results are
/// bit-identical to an instrumented run.
#[test]
fn runtime_gate_off_records_nothing_and_results_match() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let zeroed = obs::report().golden_json();
    obs::force_enabled(false);
    let pool = WorkerPool::new(4);
    let off = uec_workload(&pool);
    obs::force_enabled(true);
    assert_eq!(
        obs::report().golden_json(),
        zeroed,
        "disabled run must not advance any counter"
    );
    let on = uec_workload(&pool);
    assert_eq!(off, on, "instrumentation must not perturb results");
}

/// `stab.surface.rare.distinct_syndromes` counts the decodes the grouped
/// rare-event strata make: the distinct non-empty syndromes of every
/// evaluated stratum, recounted here from a per-stratum rebuild.
#[test]
fn rare_distinct_syndromes_counter_matches_recount() {
    use std::collections::BTreeSet;

    use hetarch::stab::detector::assemble_detectors;
    use hetarch::stab::frame::{enumerate_at_weight, sample_at_weight, FaultModel};

    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let memory = SurfaceMemory::new(5, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 5,
        rel_tol: 0.5,
        shots_per_stratum: 512,
        enumerate_threshold: 256,
        ..RareConfig::default()
    };
    let seed = 3;
    let pool = WorkerPool::new(2);
    let report = memory
        .logical_error_rate_rare_on(&pool, SurfaceDecoder::UnionFind, config, seed)
        .into_report();
    let counted = obs::report().counters["stab.surface.rare.distinct_syndromes"];

    let circuit = memory.circuit();
    let model = FaultModel::from_circuit(&circuit);
    let mut recount = 0usize;
    for stratum in report.strata.iter().filter(|s| s.prior > 0.0) {
        let w = stratum.weight;
        let (shots, frames) = if stratum.enumerated {
            let (configs, frames) =
                enumerate_at_weight(&circuit, &model, w, config.enumerate_threshold).unwrap();
            (configs.len(), frames)
        } else {
            let frames = sample_at_weight(
                &circuit,
                &model,
                w,
                stratum.shots,
                shard_seed(seed, w as u64),
                &pool,
            );
            (stratum.shots, frames)
        };
        let samples = assemble_detectors(&circuit, &frames.meas_flips, shots);
        let syndromes: BTreeSet<Vec<usize>> = (0..shots)
            .map(|shot| {
                (0..samples.detectors.rows())
                    .filter(|&d| samples.detectors.get(d, shot))
                    .collect()
            })
            .collect();
        recount += syndromes.iter().filter(|s| !s.is_empty()).count();
    }
    assert!(recount > 0, "the run must decode something");
    assert_eq!(counted, recount as u64);
}

/// The decoder counters of a fixed d=7 `count_failures` batch read exactly
/// these values. They depend only on the final cluster partition of every
/// growth pass, not on the order of work inside a pass, so a rewrite of the
/// growth phase that keeps predictions must keep them too.
#[test]
fn decoder_counters_are_pinned_on_a_d7_batch() {
    use hetarch::stab::decoder::UnionFindDecoder;
    use hetarch::stab::detector::sample_detectors_on;

    let _guard = serialized();
    obs::force_enabled(true);
    let memory = SurfaceMemory::new(7, 7, SurfaceNoise::default());
    let circuit = memory.circuit();
    let shots = 1024;
    let samples = sample_detectors_on(&WorkerPool::new(1), &circuit, shots, 7);
    let uf = UnionFindDecoder::new(&memory.matching_graph());
    let mut scratch = uf.new_scratch();
    obs::reset();
    let failures = uf.count_failures(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        shots,
    );
    let counters = obs::report().counters;
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    let got = [
        failures,
        read("stab.decoder.decodes"),
        read("stab.decoder.empty_fast_path"),
        read("stab.decoder.growth_passes"),
        read("stab.decoder.unions"),
        read("stab.decoder.peel_discharges"),
        read("stab.decoder.peel_leaks"),
    ];
    assert_eq!(got, [96, 1024, 0, 6343, 31423, 11797, 0]);
}
