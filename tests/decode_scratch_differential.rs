//! Differential suite for the allocation-free union-find decode paths.
//!
//! The scratch (`decode_with`), sparse (`decode_defects`), and batch
//! (`decode_shots` / `count_failures`) paths must be **bitwise-equal** to
//! the pristine per-shot [`UnionFindDecoder::decode_reference`] on every
//! syndrome — that is the DESIGN.md §5k contract. This suite drives the
//! comparison with proptest-generated matching graphs (random topology,
//! weights, and observable masks) under random and adversarial syndromes,
//! checks that a scratch arena stays healthy across thousands of
//! interleaved decodes, sweeps large random graphs (up to 80 nodes) at
//! syndrome densities from 1% to 50% and sampled surface-memory syndromes,
//! and pins worker-count invariance of the surface shard loops that
//! consume the batch path.

use hetarch::exec::WorkerPool;
use hetarch::stab::bits::BitTable;
use hetarch::stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
use hetarch::stab::decoder::{MatchingGraph, UnionFindDecoder};
use hetarch::testkit::decoder::assert_decode_paths_agree;
use hetarch_exec::rare::RareConfig;
use proptest::prelude::*;

/// A random connected matching graph in which every node can reach the
/// boundary: a random spanning tree over `n` nodes, a few extra chords,
/// and 1–4 boundary edges. Connectivity plus at least one boundary edge
/// guarantees `decode_reference` terminates (an odd cluster always has
/// somewhere left to grow until it absorbs the boundary), which the old
/// decoder required and the scratch path now enforces via its stall
/// detector.
fn graph_strategy() -> impl Strategy<Value = MatchingGraph> {
    // The vendored proptest subset has no `prop_flat_map`, so draw
    // max-size ingredient pools and consume only the prefix each sampled
    // `n` needs, folding raw picks into valid node indices by modulus.
    (
        2usize..=10,
        proptest::collection::vec((0u32..u32::MAX, 1u32..=45, 0u64..4), 9),
        proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 1u32..=45, 0u64..4), 0..=6),
        proptest::collection::vec((0u32..u32::MAX, 1u32..=45, 0u64..4), 1..=4),
    )
        .prop_map(|(n, tree, extras, boundaries)| {
            let mut g = MatchingGraph::new(n);
            for (i, &(pick, w, obs)) in tree.iter().take(n - 1).enumerate() {
                let child = (i + 1) as u32;
                let parent = pick % child; // uniform over already-placed nodes
                g.add_edge(parent, Some(child), f64::from(w) / 100.0, obs);
            }
            for &(u, v, w, obs) in &extras {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    g.add_edge(u, Some(v), f64::from(w) / 100.0, obs);
                }
            }
            for &(u, w, obs) in &boundaries {
                g.add_edge(u % n as u32, None, f64::from(w) / 100.0, obs);
            }
            g
        })
}

/// Deterministic syndrome battery for a given node count: the adversarial
/// corners (empty, all-on, alternating, each singleton) plus an LCG sweep
/// of random patterns.
fn syndrome_battery(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut battery = vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect::<Vec<bool>>(),
    ];
    for d in 0..n {
        let mut s = vec![false; n];
        s[d] = true;
        battery.push(s);
    }
    let mut state = seed | 1;
    for _ in 0..24 {
        battery.push(
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) & 1 == 1
                })
                .collect(),
        );
    }
    battery
}

/// Packs syndromes into a detector table (one shot per syndrome) with an
/// LCG-filled observable row, the shape `assert_decode_paths_agree` wants.
fn pack(syndromes: &[Vec<bool>], n: usize, seed: u64) -> (BitTable, BitTable) {
    let mut detectors = BitTable::new(n, syndromes.len());
    let mut observables = BitTable::new(1, syndromes.len());
    let mut state = seed | 1;
    for (shot, syn) in syndromes.iter().enumerate() {
        for (d, &s) in syn.iter().enumerate() {
            detectors.set(d, shot, s);
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        observables.set(0, shot, (state >> 33) & 1 == 1);
    }
    (detectors, observables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every decode path — one fresh scratch reused across the whole
    /// battery, the sparse defect-list entry, and the packed batch path —
    /// reproduces `decode_reference` bit for bit on random graphs under
    /// random and adversarial syndromes.
    fn scratch_and_batch_match_reference(
        graph in graph_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let uf = UnionFindDecoder::new(&graph);
        let n = uf.num_nodes();
        let battery = syndrome_battery(n, seed);
        let mut scratch = uf.new_scratch();
        for syn in &battery {
            let reference = uf.decode_reference(syn);
            prop_assert_eq!(uf.decode_with(&mut scratch, syn), reference);
            let defects: Vec<u32> = syn
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| s.then_some(i as u32))
                .collect();
            prop_assert_eq!(uf.decode_defects(&mut scratch, &defects), reference);
        }
        let (detectors, observables) = pack(&battery, n, seed ^ 0x9e3779b97f4a7c15);
        assert_decode_paths_agree(&uf, &detectors, &observables);
    }

    /// Scratch reuse leaves no residue: a syndrome decodes to the same
    /// answer before and after 1000 interleaved decodes of unrelated
    /// patterns through the same arena (epoch reset discipline).
    fn scratch_is_stateless_across_thousand_decodes(
        graph in graph_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let uf = UnionFindDecoder::new(&graph);
        let n = uf.num_nodes();
        let probe: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let expected = uf.decode_reference(&probe);
        let mut scratch = uf.new_scratch();
        prop_assert_eq!(uf.decode_with(&mut scratch, &probe), expected);
        let mut state = seed | 1;
        let mut syn = vec![false; n];
        for _ in 0..1000 {
            for s in syn.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *s = (state >> 33) & 1 == 1;
            }
            uf.decode_with(&mut scratch, &syn);
        }
        prop_assert_eq!(uf.decode_with(&mut scratch, &probe), expected);
    }
}

/// Minimal LCG for the deterministic large-graph sweep.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random connected matching graph of 2..=80 nodes: a random spanning
/// tree, up to 2n chords and 1–6 boundary edges, with edge probabilities
/// in 0.01..=0.45 (growth lengths from 4 up to about 90, so clusters run
/// many passes before the first edge grows).
fn large_graph(rng: &mut Lcg) -> MatchingGraph {
    let n = 2 + rng.below(79) as u32;
    let p = |rng: &mut Lcg| (1 + rng.below(45)) as f64 / 100.0;
    let mut g = MatchingGraph::new(n as usize);
    for child in 1..n {
        let parent = rng.below(u64::from(child)) as u32;
        let w = p(rng);
        g.add_edge(parent, Some(child), w, rng.below(4));
    }
    for _ in 0..rng.below(2 * u64::from(n) + 1) {
        let (u, v) = (
            rng.below(u64::from(n)) as u32,
            rng.below(u64::from(n)) as u32,
        );
        let w = p(rng);
        if u != v {
            g.add_edge(u, Some(v), w, rng.below(4));
        }
    }
    for _ in 0..1 + rng.below(6) {
        let u = rng.below(u64::from(n)) as u32;
        let w = p(rng);
        g.add_edge(u, None, w, rng.below(4));
    }
    g
}

/// Checks every decode path of `uf` against `decode_reference` on each
/// shot of `detectors`: the dense scratch path, the sparse defect list and
/// the packed batch paths (`decode_shots`, `count_failures`).
fn assert_all_paths_match_reference(
    uf: &UnionFindDecoder,
    detectors: &BitTable,
    observables: &BitTable,
) {
    let mut scratch = uf.new_scratch();
    let mut syndrome = vec![false; detectors.rows()];
    let mut defects = Vec::new();
    for shot in 0..detectors.shots() {
        defects.clear();
        for (d, s) in syndrome.iter_mut().enumerate() {
            *s = detectors.get(d, shot);
            if *s {
                defects.push(d as u32);
            }
        }
        let reference = uf.decode_reference(&syndrome);
        assert_eq!(
            uf.decode_defects(&mut scratch, &defects),
            reference,
            "sparse path diverged at shot {shot}"
        );
    }
    assert_decode_paths_agree(uf, detectors, observables);
}

/// Large random graphs under syndromes of 1, 3, 8, 20 and 50% density:
/// every path reproduces `decode_reference` bit for bit.
#[test]
fn large_random_graphs_match_reference_at_every_density() {
    let mut rng = Lcg(0x5eed_1a7e);
    for _ in 0..120 {
        let graph = large_graph(&mut rng);
        let uf = UnionFindDecoder::new(&graph);
        let n = uf.num_nodes();
        let mut battery = Vec::new();
        for percent in [1, 3, 8, 20, 50] {
            for _ in 0..4 {
                battery.push((0..n).map(|_| rng.below(100) < percent).collect());
            }
        }
        let (detectors, observables) = pack(&battery, n, rng.next());
        assert_all_paths_match_reference(&uf, &detectors, &observables);
    }
}

/// Sampled circuit-level syndromes of three surface memories (the
/// benchmark's d=7 memory, a d=5 X-basis memory with unequal coherence
/// and readout error, a low-noise 3-round d=3 memory): every path
/// reproduces `decode_reference` bit for bit.
#[test]
fn surface_memory_graphs_match_reference() {
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
    for (memory, shots) in [
        (SurfaceMemory::new(7, 7, SurfaceNoise::default()), 512),
        (SurfaceMemory::new_x(5, 5, hetero), 1024),
        (SurfaceMemory::new(3, 3, low), 1024),
    ] {
        let samples = sample_detectors_on(&WorkerPool::new(1), &memory.circuit(), shots, 5);
        let uf = UnionFindDecoder::new(&memory.matching_graph());
        assert_all_paths_match_reference(&uf, &samples.detectors, &samples.observables);
    }
}

/// `decode_defects` rejects a defect list that is not strictly ascending
/// and in range, in release builds too: a duplicate or out-of-order defect
/// would silently change growth.
#[test]
fn decode_defects_rejects_malformed_lists() {
    let mut g = MatchingGraph::new(3);
    g.add_edge(0, Some(1), 0.1, 1);
    g.add_edge(1, Some(2), 0.1, 0);
    g.add_edge(2, None, 0.1, 0);
    let uf = UnionFindDecoder::new(&g);
    for bad in [&[1u32, 0][..], &[1, 1], &[0, 3]] {
        let outcome = std::panic::catch_unwind(|| uf.decode_defects(&mut uf.new_scratch(), bad));
        assert!(outcome.is_err(), "{bad:?} must be rejected");
    }
    let mut scratch = uf.new_scratch();
    assert_eq!(
        uf.decode_defects(&mut scratch, &[0, 2]),
        uf.decode_reference(&[true, false, true])
    );
}

/// The sharded surface decode loop sums per-shard failure counts, so the
/// logical error rate must be bit-identical for every worker count.
#[test]
fn logical_error_rate_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
    let baseline =
        mem.logical_error_rate_on(&WorkerPool::new(1), SurfaceDecoder::UnionFind, 4096, 71);
    for workers in [2, 8] {
        let rate = mem.logical_error_rate_on(
            &WorkerPool::new(workers),
            SurfaceDecoder::UnionFind,
            4096,
            71,
        );
        assert_eq!(rate, baseline, "{workers} workers diverged");
    }
}

/// Same invariance for the rare-event stratified path, which mixes the
/// enumerated per-shot callback with sharded batch counting.
#[test]
fn rare_event_report_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 5,
        shots_per_stratum: 512,
        enumerate_threshold: 128,
        ..RareConfig::default()
    };
    let baseline =
        mem.logical_error_rate_rare_on(&WorkerPool::new(1), SurfaceDecoder::UnionFind, config, 29);
    for workers in [2, 8] {
        let outcome = mem.logical_error_rate_rare_on(
            &WorkerPool::new(workers),
            SurfaceDecoder::UnionFind,
            config,
            29,
        );
        assert_eq!(
            outcome.report(),
            baseline.report(),
            "{workers} workers diverged"
        );
    }
}
