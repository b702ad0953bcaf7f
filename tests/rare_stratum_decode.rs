//! Grouped stratum decoding against per-shot decoding (DESIGN.md §5h).
//!
//! The rare-event estimator decodes each distinct syndrome of a stratum
//! once, through `SyndromeGroups`, and shares the prediction among the
//! shots that produced it. These tests hold that routine to the per-shot
//! decoders it replaced on the rare path: `UnionFindDecoder::count_failures`
//! and `decode_shots`, and the dense greedy-matching loop. Failure counts
//! must be equal and enumerated strata's weighted sums bit-equal.

use std::collections::BTreeSet;

use hetarch::prelude::*;
use hetarch::stab::bits::BitTable;
use hetarch::stab::decoder::greedy::GreedyMatchingDecoder;
use hetarch::stab::decoder::unionfind::UnionFindDecoder;
use hetarch::stab::detector::{assemble_detectors, DetectorSamples, SyndromeGroups};
use hetarch::stab::frame::{enumerate_at_weight, sample_at_weight, FaultModel};

/// The benchmark's deep-subthreshold noise.
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

struct Setup {
    circuit: Circuit,
    model: FaultModel,
    uf: UnionFindDecoder,
    greedy: GreedyMatchingDecoder,
}

fn setup(d: usize, rounds: usize) -> Setup {
    let memory = SurfaceMemory::new(d, rounds, rare_noise());
    let circuit = memory.circuit();
    let graph = memory.matching_graph();
    Setup {
        model: FaultModel::from_circuit(&circuit),
        circuit,
        uf: UnionFindDecoder::new(&graph),
        greedy: GreedyMatchingDecoder::new(&graph),
    }
}

/// Each shot's failure bit: its observable flip differs from the grouped
/// prediction.
fn failed(samples: &DetectorSamples, predicted: &BitTable) -> Vec<bool> {
    (0..samples.observables.shots())
        .map(|shot| predicted.get(0, shot) != samples.observables.get(0, shot))
        .collect()
}

fn grouped_uf(pool: &WorkerPool, uf: &UnionFindDecoder, samples: &DetectorSamples) -> Vec<bool> {
    let groups = SyndromeGroups::new(&samples.detectors);
    let predicted = groups.predict(
        pool,
        || uf.new_scratch(),
        |scratch, defects| uf.decode_defects(scratch, defects) & 1 == 1,
    );
    failed(samples, &predicted)
}

fn grouped_greedy(
    pool: &WorkerPool,
    greedy: &GreedyMatchingDecoder,
    samples: &DetectorSamples,
) -> Vec<bool> {
    let n_det = samples.detectors.rows();
    let groups = SyndromeGroups::new(&samples.detectors);
    let predicted = groups.predict(
        pool,
        || vec![false; n_det],
        |syndrome, defects| {
            syndrome.fill(false);
            for &d in defects {
                syndrome[d as usize] = true;
            }
            greedy.decode(syndrome) & 1 == 1
        },
    );
    failed(samples, &predicted)
}

/// The dense per-shot greedy loop.
fn per_shot_greedy(greedy: &GreedyMatchingDecoder, samples: &DetectorSamples) -> Vec<bool> {
    let n_det = samples.detectors.rows();
    (0..samples.detectors.shots())
        .map(|shot| {
            let syndrome: Vec<bool> = (0..n_det).map(|d| samples.detectors.get(d, shot)).collect();
            (greedy.decode(&syndrome) & 1 == 1) != samples.observables.get(0, shot)
        })
        .collect()
}

fn per_shot_uf_count(uf: &UnionFindDecoder, samples: &DetectorSamples) -> u64 {
    let mut scratch = uf.new_scratch();
    let shots = samples.detectors.shots();
    uf.count_failures(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        shots,
    )
}

fn count(failed: &[bool]) -> u64 {
    failed.iter().filter(|&&f| f).count() as u64
}

/// Each shot's syndrome as its ascending list of fired detectors.
fn syndrome(samples: &DetectorSamples, shot: usize) -> Vec<u32> {
    (0..samples.detectors.rows())
        .filter(|&d| samples.detectors.get(d, shot))
        .map(|d| d as u32)
        .collect()
}

/// The groups partition the shots, each group holds one syndrome, no two
/// groups share one, and the decode count is the number of distinct
/// non-empty syndromes.
fn assert_groups_are_exact(samples: &DetectorSamples) {
    let groups = SyndromeGroups::new(&samples.detectors);
    let shots = samples.detectors.shots();
    let mut seen = vec![false; shots];
    let mut keys = BTreeSet::new();
    let mut defects = Vec::new();
    for g in 0..groups.num_groups() {
        groups.defects_into(g, &mut defects);
        assert!(keys.insert(defects.clone()), "group {g} repeats a syndrome");
        for &shot in groups.shots(g) {
            let shot = shot as usize;
            assert!(!seen[shot], "shot {shot} in two groups");
            seen[shot] = true;
            assert_eq!(syndrome(samples, shot), defects, "shot {shot}, group {g}");
        }
    }
    assert!(seen.iter().all(|&s| s), "some shot is in no group");
    let recount: BTreeSet<Vec<u32>> = (0..shots).map(|s| syndrome(samples, s)).collect();
    assert_eq!(groups.num_groups(), recount.len());
    let nonempty = recount.iter().filter(|s| !s.is_empty()).count();
    assert_eq!(groups.num_decoded(), nonempty);
}

#[test]
fn grouped_failures_match_per_shot_decoding_on_sampled_strata() {
    let pool = WorkerPool::new(2);
    let shots = 1024;
    for d in [5, 7] {
        let s = setup(d, 2);
        for w in 1..=6 {
            let seed = shard_seed(d as u64, w as u64);
            let frames = sample_at_weight(&s.circuit, &s.model, w, shots, seed, &pool);
            let samples = assemble_detectors(&s.circuit, &frames.meas_flips, shots);
            assert_groups_are_exact(&samples);
            let uf = grouped_uf(&pool, &s.uf, &samples);
            assert_eq!(
                count(&uf),
                per_shot_uf_count(&s.uf, &samples),
                "union-find, d={d}, w={w}"
            );
            assert_eq!(
                grouped_greedy(&pool, &s.greedy, &samples),
                per_shot_greedy(&s.greedy, &samples),
                "greedy, d={d}, w={w}"
            );
        }
    }
}

#[test]
fn all_empty_stratum_predicts_no_flip_without_decoding() {
    let s = setup(5, 2);
    let shots = 300;
    let n_det = s.circuit.num_detectors();
    let mut observables = BitTable::new(1, shots);
    for shot in (0..shots).step_by(7) {
        observables.set(0, shot, true);
    }
    let samples = DetectorSamples {
        detectors: BitTable::new(n_det, shots),
        observables,
    };
    let groups = SyndromeGroups::new(&samples.detectors);
    assert_eq!(groups.num_groups(), 1);
    assert_eq!(groups.num_decoded(), 0);
    let pool = WorkerPool::new(2);
    let predicted = groups.predict(&pool, || (), |_, _| panic!("empty syndrome decoded"));
    assert_eq!(predicted.count_ones(0), 0);
    let failures = count(&grouped_uf(&pool, &s.uf, &samples));
    assert_eq!(failures, samples.observables.count_ones(0) as u64);
    assert_eq!(failures, per_shot_uf_count(&s.uf, &samples));
}

#[test]
fn shared_syndrome_is_decoded_once() {
    // d=7: 72 detectors, so the shared syndrome spans both key words.
    let s = setup(7, 2);
    let shots = 200;
    let n_det = s.circuit.num_detectors();
    assert!(n_det > 64);
    let mut detectors = BitTable::new(n_det, shots);
    for row in [3, 20, 65, n_det - 1] {
        detectors.fill_row(row);
    }
    let mut observables = BitTable::new(1, shots);
    for shot in (0..shots).step_by(3) {
        observables.set(0, shot, true);
    }
    let samples = DetectorSamples {
        detectors,
        observables,
    };
    let groups = SyndromeGroups::new(&samples.detectors);
    assert_eq!(groups.num_groups(), 1);
    assert_eq!(groups.num_decoded(), 1);
    let mut defects = Vec::new();
    groups.defects_into(0, &mut defects);
    assert_eq!(defects, vec![3, 20, 65, n_det as u32 - 1]);

    let pool = WorkerPool::new(2);
    let decodes = std::sync::atomic::AtomicUsize::new(0);
    groups.predict(
        &pool,
        || s.uf.new_scratch(),
        |scratch, defects| {
            decodes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            s.uf.decode_defects(scratch, defects) & 1 == 1
        },
    );
    assert_eq!(decodes.into_inner(), 1);
    assert_eq!(
        count(&grouped_uf(&pool, &s.uf, &samples)),
        per_shot_uf_count(&s.uf, &samples)
    );
    assert_eq!(
        grouped_greedy(&pool, &s.greedy, &samples),
        per_shot_greedy(&s.greedy, &samples)
    );
}

#[test]
fn enumerated_stratum_weighted_sum_is_bit_equal() {
    // The failing weight-2 stratum of a 1-round d=3 memory, enumerated.
    let s = setup(3, 1);
    let (configs, frames) =
        enumerate_at_weight(&s.circuit, &s.model, 2, 1 << 20).expect("stratum fits the budget");
    let n = configs.len();
    let samples = assemble_detectors(&s.circuit, &frames.meas_flips, n);
    assert_groups_are_exact(&samples);

    let mut per_shot = 0.0f64;
    let mut scratch = s.uf.new_scratch();
    s.uf.decode_shots(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        n,
        |shot, failed| {
            if failed {
                per_shot += configs[shot].weight;
            }
        },
    );
    for workers in [1, 3] {
        let pool = WorkerPool::new(workers);
        let mut grouped = 0.0f64;
        for (config, failed) in configs.iter().zip(grouped_uf(&pool, &s.uf, &samples)) {
            if failed {
                grouped += config.weight;
            }
        }
        assert!(per_shot > 0.0, "the stratum must fail somewhere");
        assert_eq!(grouped.to_bits(), per_shot.to_bits(), "{workers} workers");
    }
}
