//! Golden-snapshot suite: byte-stable renderings of the characterized cell
//! channels and module-level rate curves at pinned seeds.
//!
//! Regenerate after an intentional model change with
//! `GOLDEN_UPDATE=1 cargo test -q --test golden_snapshots` and review the
//! diff of `tests/golden/*.txt`.

use std::path::{Path, PathBuf};

use hetarch::prelude::*;
use hetarch::stab::codes::{rotated_surface_code, steane};
use hetarch::testkit::prelude::*;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn spec(s: &mut Snapshot, prefix: &str, g: &hetarch::devices::GateSpec) {
    s.f64(&format!("{prefix}.time"), g.time)
        .f64(&format!("{prefix}.error"), g.error);
}

fn op(s: &mut Snapshot, prefix: &str, c: &OpChannel) {
    s.field(&format!("{prefix}.op"), &c.op)
        .f64(&format!("{prefix}.duration"), c.duration)
        .f64(&format!("{prefix}.fidelity"), c.fidelity)
        .field(&format!("{prefix}.concurrency"), c.concurrency);
}

fn idle(s: &mut Snapshot, prefix: &str, i: &IdleParams) {
    s.f64(&format!("{prefix}.t1"), i.t1)
        .f64(&format!("{prefix}.t2"), i.t2);
}

/// Renders every field of the four characterized cell channels, plus their
/// binary serde encodings, for the paper's standard device pairings.
fn cell_channel_snapshot() -> Snapshot {
    let lib = CellLibrary::new();
    let transmon = catalog::fixed_frequency_qubit();
    let resonator = catalog::multimode_resonator_3d();

    let mut s = Snapshot::new(
        "characterized cell channels: fixed-frequency transmon + 3D multimode resonator \
         (ParCheck: + flux-tunable transmon)",
    );

    let reg = lib.get::<RegisterCell>(&transmon, &resonator);
    s.section("register");
    op(&mut s, "load", &reg.load);
    idle(&mut s, "storage_idle", &reg.storage_idle);
    idle(&mut s, "compute_idle", &reg.compute_idle);
    s.field("modes", reg.modes).serde_hex("serde", &*reg);

    let pc = lib.get::<ParCheckCell>(&transmon, &catalog::flux_tunable_qubit());
    s.section("parcheck");
    op(&mut s, "parity", &pc.parity);
    spec(&mut s, "gate_1q", &pc.gate_1q);
    spec(&mut s, "gate_2q", &pc.gate_2q);
    s.f64("readout_time", pc.readout_time);
    idle(&mut s, "idle_a", &pc.idle_a);
    idle(&mut s, "idle_b", &pc.idle_b);
    s.serde_hex("serde", &*pc);

    let seq = lib.get::<SeqOpCell>(&transmon, &resonator);
    s.section("seqop");
    op(&mut s, "seq_cnot", &seq.seq_cnot);
    op(&mut s, "parity", &seq.parity);
    idle(&mut s, "storage_idle", &seq.storage_idle);
    idle(&mut s, "compute_idle", &seq.compute_idle);
    s.field("modes", seq.modes).serde_hex("serde", &*seq);

    let usc = lib.get::<UscCell>(&transmon, &resonator);
    s.section("usc");
    spec(&mut s, "swap", &usc.swap);
    spec(&mut s, "cx", &usc.cx);
    spec(&mut s, "gate_1q", &usc.gate_1q);
    s.f64("readout_time", usc.readout_time);
    idle(&mut s, "storage_idle", &usc.storage_idle);
    idle(&mut s, "compute_idle", &usc.compute_idle);
    s.field("capacity", usc.capacity)
        .field("registers", usc.registers);
    op(&mut s, "check2", &usc.check2);
    s.serde_hex("serde", &*usc);

    s
}

/// UEC logical-error-rate curve over storage coherence, at a pinned seed,
/// computed on the given pool (worker-count invariance is asserted by the
/// caller).
fn uec_rate_snapshot(pool: &WorkerPool) -> Snapshot {
    let shots = 2_000;
    let seed = 61;
    let mut s = Snapshot::new("UEC logical error rates, 2000 shots, seed 61");
    for code in [steane(), rotated_surface_code(3)] {
        for ts_ms in [0.5, 5.0, 50.0] {
            let usc = UscCell::new(
                catalog::coherence_limited_compute(0.5e-3),
                catalog::coherence_limited_storage(ts_ms * 1e-3),
            )
            .unwrap()
            .characterize();
            let r = UecModule::new(code.clone(), usc, UecNoise::default())
                .logical_error_rate_on(pool, shots, seed);
            s.section(&format!("{} ts={}ms", code.name(), ts_ms));
            s.f64("logical_error_rate", r.logical_error_rate)
                .f64("cycle_duration", r.cycle_duration)
                .field("shots", r.shots);
        }
    }
    s
}

/// Distillation module report for the paper's heterogeneous configuration
/// at a pinned seed.
fn distill_snapshot() -> Snapshot {
    let cfg = DistillConfig::heterogeneous(12.5e-3, 1e6, 7);
    let report = DistillModule::new(cfg).run(0.5e-3);
    let mut s = Snapshot::new("distillation report: heterogeneous ts=12.5ms, 1 MHz, seed 7");
    s.section("report");
    s.f64("duration", report.duration)
        .field("arrivals", report.arrivals)
        .field("rounds_attempted", report.rounds_attempted)
        .field("rounds_succeeded", report.rounds_succeeded)
        .field("delivered", report.delivered)
        .f64("delivered_rate_hz", report.delivered_rate_hz)
        .f64("best_fidelity", report.best_fidelity)
        .serde_hex("serde", &report);
    s
}

/// Weight-stratified rare-event report for a d=5 surface memory at a
/// pinned seed: headline estimate, error budget and the full per-stratum
/// tallies (prior, conditional failure rate, shots, enumeration flag).
fn rare_report_snapshot(pool: &WorkerPool) -> Snapshot {
    let memory = SurfaceMemory::new(
        5,
        2,
        SurfaceNoise {
            t_data: 1.0,
            t_anc: 1.0,
            p1: 5e-5,
            p2: 5e-4,
            p_meas: 2e-4,
            ..SurfaceNoise::default()
        },
    );
    let config = RareConfig {
        max_strata: 6,
        rel_tol: 0.5,
        shots_per_stratum: 512,
        enumerate_threshold: 256,
        ..RareConfig::default()
    };
    let outcome = memory.logical_error_rate_rare_on(
        pool,
        hetarch::stab::codes::SurfaceDecoder::UnionFind,
        config,
        41,
    );
    let mut s = Snapshot::new("d=5 rare-event report: stratified estimator, seed 41");
    rare_sections(&mut s, "", outcome);
    s
}

/// Conditioned shots per sampled stratum of [`rare_strata_snapshot`]:
/// enough for the d=5 weight-4 stratum to see more than 50 failures.
const RARE_STRATA_SHOTS: usize = 1536;

/// Per-stratum rare-event reports of the benchmark's deep-subthreshold
/// surface memory (d=5, 2 rounds, `max_strata` 8, enumeration up to 4096
/// configurations) under both decoders, a d=7 memory whose 72 detectors
/// span two 64-bit words, and a 1-round d=3 memory whose failing weight-2
/// stratum is enumerated exactly.
fn rare_strata_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::stab::codes::SurfaceDecoder;

    let noise = SurfaceNoise {
        t_data: 10.0,
        t_anc: 10.0,
        p1: 2e-5,
        p2: 2e-4,
        p_meas: 1e-4,
        ..SurfaceNoise::default()
    };
    let config = RareConfig {
        max_strata: 8,
        shots_per_stratum: RARE_STRATA_SHOTS,
        ..RareConfig::default()
    };
    let mut s = Snapshot::new(&format!(
        "rare-event strata: d=5 and d=7 2-round memories (t=10, p1=2e-5, p2=2e-4, \
         p_meas=1e-4), 8 strata, {RARE_STRATA_SHOTS} shots per sampled stratum, seed 7; \
         1-round d=3 memory enumerated up to 2^20 configurations"
    ));
    for (prefix, d, decoder) in [
        ("d5 union-find ", 5, SurfaceDecoder::UnionFind),
        ("d5 greedy ", 5, SurfaceDecoder::GreedyMatching),
        ("d7 union-find ", 7, SurfaceDecoder::UnionFind),
    ] {
        let memory = SurfaceMemory::new(d, 2, noise);
        let outcome = memory.logical_error_rate_rare_on(pool, decoder, config, 7);
        rare_sections(&mut s, prefix, outcome);
    }
    let enumerated = RareConfig {
        max_strata: 3,
        enumerate_threshold: 1 << 20,
        ..config
    };
    let outcome = SurfaceMemory::new(3, 1, noise).logical_error_rate_rare_on(
        pool,
        SurfaceDecoder::UnionFind,
        enumerated,
        7,
    );
    rare_sections(&mut s, "d3 enumerated ", outcome);
    s
}

/// Renders a rare-event outcome: headline estimate and error budget under
/// `[{prefix}report]`, then one `[{prefix}stratum w=…]` section per stratum.
fn rare_sections(s: &mut Snapshot, prefix: &str, outcome: RareOutcome) {
    let converged = outcome.is_converged();
    let report = outcome.into_report();
    s.section(&format!("{prefix}report"));
    s.f64("p_l", report.p_l)
        .f64("sigma", report.sigma)
        .f64("truncation_bound", report.truncation_bound)
        .field("total_shots", report.total_shots)
        .field("num_sites", report.num_sites)
        .field("converged", converged);
    for stratum in &report.strata {
        s.section(&format!("{prefix}stratum w={}", stratum.weight));
        s.f64("prior", stratum.prior)
            .f64("failure_rate", stratum.failure_rate)
            .field("shots", stratum.shots)
            .field("failures", stratum.failures)
            .field("enumerated", stratum.enumerated);
    }
}

/// Rates of the three UEC-family Monte-Carlo modules that no other golden
/// pins: homogeneous-baseline plain rates and one rare report, chained-UEC
/// plain rates, and single-USC UEC rare reports, computed on `pool`.
fn module_rate_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::modules::uec::ChainUecModule;
    use hetarch::stab::codes::reed_muller_15;

    let shots = 2_000;
    let seed = 61;
    let rare = RareConfig {
        max_strata: 4,
        rel_tol: 0.5,
        shots_per_stratum: 1_024,
        enumerate_threshold: 512,
        ..RareConfig::default()
    };
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(5e-3),
    )
    .unwrap()
    .characterize();
    let noise = UecNoise::default();
    let mut s = Snapshot::new(
        "UEC-family module rates: homogeneous baseline (tc=0.5ms), chained UEC and \
         single-USC UEC (ts=5ms); plain 2000 shots seed 61, rare reports seed 23 \
         (4 strata, 1024 shots per sampled stratum, enumeration up to 512 configs)",
    );
    for code in [steane(), rotated_surface_code(3), reed_muller_15()] {
        let r =
            HomModule::new(code.clone(), 0.5e-3, noise).logical_error_rate_on(pool, shots, seed);
        s.section(&format!("hom {}", code.name()));
        s.f64("logical_error_rate", r.logical_error_rate)
            .f64("cycle_duration", r.cycle_duration)
            .field("swaps_per_cycle", r.swaps_per_cycle);
    }
    let hom = HomModule::new(steane(), 0.5e-3, noise);
    rare_sections(
        &mut s,
        "hom Steane rare ",
        hom.logical_error_rate_rare_on(pool, rare, 23),
    );
    // SC6 (36 qubits) is the one case that spans two chain segments.
    for (code, n_ext) in [(steane(), 1), (steane(), 2), (rotated_surface_code(6), 1)] {
        let name = code.name().to_string();
        let r = ChainUecModule::new(code, usc.clone(), n_ext, noise)
            .logical_error_rate_on(pool, shots, seed);
        s.section(&format!("chain {name} n_ext={n_ext}"));
        s.f64("logical_error_rate", r.logical_error_rate)
            .f64("cycle_duration", r.cycle_duration)
            .field("shots", r.shots);
    }
    for code in [steane(), rotated_surface_code(3)] {
        let uec = UecModule::new(code.clone(), usc.clone(), noise);
        rare_sections(
            &mut s,
            &format!("uec {} rare ", code.name()),
            uec.logical_error_rate_rare_on(pool, rare, 23),
        );
    }
    s
}

/// Serve-layer snapshot: the always-on [`ServerStats`] counters after a
/// deterministic scripted session, plus the byte-exact sweep response.
///
/// Deliberately built from feature-independent pieces only (no `obs`
/// counters): the golden CI job runs without the `obs` feature. The script
/// is fully sequential on one connection, so every counter is exact, and
/// the caller asserts worker-count invariance across server pools.
fn serve_stats_snapshot(workers: usize) -> Snapshot {
    use hetarch::serve::json::Json;
    use hetarch::serve::{Client, Server, ServerConfig};

    let server = Server::start(ServerConfig {
        workers,
        executors: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let sweep = Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        (
            "ts_values",
            Json::Arr(vec![Json::Num(0.5e-3), Json::Num(5e-3)]),
        ),
        ("shots", Json::Int(500)),
        ("seed", Json::Int(61)),
    ]);
    // 1: computed; 2: identical query → cache hit, same bytes.
    let cold = client.request_raw(sweep.render().as_bytes()).expect("cold");
    let warm = client.request_raw(sweep.render().as_bytes()).expect("warm");
    assert_eq!(cold, warm, "cache hit must reuse the exact bytes");
    // 3: malformed body → error reply, connection stays up.
    let bad = client.request_raw(b"not json").expect("malformed reply");
    assert!(String::from_utf8_lossy(&bad).contains("\"status\":\"error\""));
    // 4: contained executor panic.
    let panic_reply = client
        .request_raw(br#"{"query":"test_panic"}"#)
        .expect("panic reply");
    assert!(String::from_utf8_lossy(&panic_reply).contains("panicked"));

    let mut s = Snapshot::new(
        "serve counters + sweep response after a scripted session: \
         sweep, cache hit, malformed body, contained panic",
    );
    s.section("stats");
    s.field("counters", server.stats().to_json().render());
    s.section("sweep_response");
    s.field("bytes", String::from_utf8(cold).expect("UTF-8 response"));
    server.shutdown();
    s
}

#[test]
fn serve_stats_golden_is_worker_count_invariant() {
    let single = serve_stats_snapshot(1);
    let four = serve_stats_snapshot(4);
    assert_eq!(
        single.render(),
        four.render(),
        "serve counters and response bytes must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "serve_stats", &single);
}

#[test]
fn rare_report_golden_is_worker_count_invariant() {
    let single = rare_report_snapshot(&WorkerPool::new(1));
    let eight = rare_report_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "rare-event report must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "rare_report_d5", &single);
}

#[test]
fn rare_strata_golden_is_worker_count_invariant() {
    let single = rare_strata_snapshot(&WorkerPool::new(1));
    let eight = rare_strata_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "rare-event strata must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "rare_strata", &single);
}

#[test]
fn module_rate_goldens_are_worker_count_invariant() {
    let single = module_rate_snapshot(&WorkerPool::new(1));
    let eight = module_rate_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "module rates and rare reports must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "module_rates", &single);
}

#[test]
fn cell_channel_goldens_are_bit_stable() {
    let first = cell_channel_snapshot();
    let second = cell_channel_snapshot();
    assert_eq!(
        first.render(),
        second.render(),
        "cell characterization must render identically across runs"
    );
    assert_golden(&golden_dir(), "cell_channels", &first);
}

#[test]
fn uec_rate_goldens_are_worker_count_invariant() {
    // HETARCH_WORKERS ∈ {1, 8}: the sharded Monte-Carlo seeding makes the
    // rendered curve identical regardless of parallelism.
    let single = uec_rate_snapshot(&WorkerPool::new(1));
    let eight = uec_rate_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "UEC rate curve must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "uec_rates", &single);
}

#[test]
fn distill_report_golden_is_bit_stable() {
    let first = distill_snapshot();
    let second = distill_snapshot();
    assert_eq!(first.render(), second.render());
    assert_golden(&golden_dir(), "distill_report", &first);
}

/// Plain surface-memory decoding at three points: the benchmark's d=7,
/// 7-round memory under default noise, a d=5 X-basis memory with unequal
/// data/ancilla coherence and readout error, and a 3-round d=3 memory at
/// low noise. Each case pins the union-find and greedy failure counts and
/// an FNV-1a digest of the union-find per-shot failure bits.
fn surface_decode_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::stab::codes::SurfaceDecoder;
    use hetarch::stab::decoder::UnionFindDecoder;
    use hetarch::stab::detector::sample_detectors_on;

    let hetero = SurfaceNoise {
        t_data: 0.3e-3,
        t_anc: 0.08e-3,
        p_meas: 2e-3,
        ..SurfaceNoise::default()
    };
    let low = SurfaceNoise {
        t_data: 1e-3,
        t_anc: 1e-3,
        p1: 2e-4,
        p2: 2e-3,
        ..SurfaceNoise::default()
    };
    let cases = [
        (
            "d7 z default",
            SurfaceMemory::new(7, 7, SurfaceNoise::default()),
            8192,
            7,
        ),
        ("d5 x hetero", SurfaceMemory::new_x(5, 5, hetero), 4096, 11),
        ("d3 z low", SurfaceMemory::new(3, 3, low), 4096, 13),
    ];
    let mut s = Snapshot::new(
        "surface-memory decoding: union-find and greedy failure counts and an FNV-1a \
         digest of the union-find per-shot failure bits",
    );
    for (name, memory, shots, seed) in cases {
        let failures = |which| {
            let (rate, _) = memory.logical_error_rate_on(pool, which, shots, seed);
            (rate * shots as f64).round() as u64
        };
        let circuit = memory.circuit();
        let samples = sample_detectors_on(pool, &circuit, shots, seed);
        let uf = UnionFindDecoder::new(&memory.matching_graph());
        let mut scratch = uf.new_scratch();
        let (mut digest, mut failed_shots) = (0xcbf2_9ce4_8422_2325u64, 0u64);
        uf.decode_shots(
            &mut scratch,
            &samples.detectors,
            &samples.observables,
            0,
            0,
            shots,
            |_, failed| {
                digest = (digest ^ u64::from(failed)).wrapping_mul(0x0100_0000_01b3);
                failed_shots += u64::from(failed);
            },
        );
        let uf_failures = failures(SurfaceDecoder::UnionFind);
        assert_eq!(
            failed_shots, uf_failures,
            "{name}: batch and sharded counts"
        );
        s.section(name);
        s.field("shots", shots)
            .field("seed", seed)
            .field("union_find_failures", uf_failures)
            .field("greedy_failures", failures(SurfaceDecoder::GreedyMatching))
            .field("union_find_digest", format!("{digest:016x}"));
    }
    s
}

#[test]
fn surface_decode_golden_is_worker_count_invariant() {
    let single = surface_decode_snapshot(&WorkerPool::new(1));
    let eight = surface_decode_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "surface decoding must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "surface_decode", &single);
}

/// Calibration-snapshot sweep golden: the committed fleet fixture drives a
/// `calib_sweep` through the exact serve evaluation path, side by side with
/// the uncalibrated sweep over the same axes. Pins (a) the strict schema
/// accepting the fixture, (b) the overrides demonstrably reaching
/// characterization (the two responses differ), and (c) byte-stability of
/// the calibrated response.
fn calib_sweep_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::serve::{evaluate, Query};

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fleet_calib_v1.json");
    let text = std::fs::read_to_string(&fixture).expect("read committed fleet fixture");
    let calib = CalibSnapshot::parse(&text).expect("fixture obeys the calib schema");
    assert!(!calib.is_empty(), "the fixture must carry overrides");

    let lib = CellLibrary::new();
    let token = hetarch::exec::CancelToken::new();
    let distances = vec![3, 5];
    let ts_values = vec![0.5e-3, 5e-3];
    let plain = Query::SweepUec {
        distances: distances.clone(),
        ts_values: ts_values.clone(),
        shots: 500,
        seed: 61,
    };
    let fleet = Query::CalibSweep {
        distances,
        ts_values,
        shots: 500,
        seed: 61,
        calib: calib.clone(),
    };
    assert_ne!(plain.key(), fleet.key(), "fleet sweeps must not coalesce");
    let nominal = evaluate(&plain, &lib, pool, &token)
        .expect("uncancelled sweep")
        .render();
    let calibrated = evaluate(&fleet, &lib, pool, &token)
        .expect("uncancelled calib sweep")
        .render();
    assert_ne!(
        nominal, calibrated,
        "fixture overrides must reach characterization and move the sweep"
    );

    let mut s = Snapshot::new(
        "calib_sweep over tests/fixtures/fleet_calib_v1.json vs the uncalibrated sweep, \
         d in {3,5} x ts in {0.5ms, 5ms}, 500 shots, seed 61",
    );
    s.section("snapshot");
    s.field("canonical_json", calib.to_json().render());
    s.section("nominal_response");
    s.field("bytes", nominal);
    s.section("fleet_response");
    s.field("bytes", calibrated);
    s
}

#[test]
fn calib_sweep_golden_is_worker_count_invariant() {
    let single = calib_sweep_snapshot(&WorkerPool::new(1));
    let four = calib_sweep_snapshot(&WorkerPool::new(4));
    assert_eq!(
        single.render(),
        four.render(),
        "calibrated sweep must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "calib_sweep", &single);
}
