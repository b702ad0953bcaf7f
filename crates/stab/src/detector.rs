//! Detector and observable sampling.
//!
//! A **detector** is a parity of measurement outcomes that is deterministic
//! in the absence of noise; it "fires" when noise flips that parity. A
//! **logical observable** is a parity of measurements encoding the logical
//! state. Both are assembled from the frame sampler's measurement flips
//! (Stim's semantics): because frames record *deviations* from the noiseless
//! reference, a detector fires exactly when the XOR of its measurement flips
//! is one.

use hetarch_exec::WorkerPool;

use crate::bits::BitTable;
use crate::circuit::{Circuit, Gate1, Gate2, Instruction};
use crate::frame::FrameSampler;
use crate::tableau::Tableau;

/// Sampled detector and observable-flip data for a batch of shots.
#[derive(Clone, Debug)]
pub struct DetectorSamples {
    /// `num_detectors × shots` detector firings.
    pub detectors: BitTable,
    /// `num_observables × shots` observable flips.
    pub observables: BitTable,
}

impl DetectorSamples {
    /// Fraction of shots in which observable `k` flipped (the raw logical
    /// error rate when no decoder is applied).
    pub fn observable_flip_rate(&self, k: usize) -> f64 {
        self.observables.count_ones(k) as f64 / self.observables.shots() as f64
    }
}

/// Distinct syndromes per prediction shard of [`SyndromeGroups::predict`];
/// fixed so shard boundaries never depend on the worker count.
const GROUP_SHARD: usize = 256;

/// The shots of a detector table grouped by syndrome, so that each
/// distinct syndrome is decoded once (the rare-event strata, DESIGN.md
/// §5h).
///
/// Each shot's syndrome is packed into a key of `⌈detectors / 64⌉` words
/// (bit `d % 64` of word `d / 64` is detector `d`); the shot indices are
/// sorted by key, so equal syndromes form contiguous groups, the empty
/// syndrome (all-zero key) first.
#[derive(Clone, Debug)]
pub struct SyndromeGroups {
    /// Words per key.
    words: usize,
    /// `keys[shot · words..][..words]`: the shot's packed syndrome.
    keys: Vec<u64>,
    /// Shot indices, sorted by key.
    order: Vec<u32>,
    /// Start of each group in `order`, then `order.len()`.
    bounds: Vec<u32>,
}

impl SyndromeGroups {
    /// Groups the shots of a `detectors × shots` table by syndrome.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than `u32::MAX` shots.
    pub fn new(detectors: &BitTable) -> Self {
        let shots = detectors.shots();
        assert!(u32::try_from(shots).is_ok(), "too many shots to group");
        let words = detectors.rows().div_ceil(64);
        let mut keys = vec![0u64; shots * words];
        for row in 0..detectors.rows() {
            let (word, bit) = (row / 64, 1u64 << (row % 64));
            for shot in detectors.iter_ones(row) {
                keys[shot * words + word] |= bit;
            }
        }
        let key = |shot: u32| &keys[shot as usize * words..][..words];
        let mut order: Vec<u32> = (0..shots as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let mut bounds: Vec<u32> = (0..shots)
            .filter(|&i| i == 0 || key(order[i - 1]) != key(order[i]))
            .map(|i| i as u32)
            .collect();
        bounds.push(shots as u32);
        SyndromeGroups {
            words,
            keys,
            order,
            bounds,
        }
    }

    /// Number of distinct syndromes, the empty one included.
    pub fn num_groups(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of distinct non-empty syndromes: the decodes
    /// [`Self::predict`] makes.
    pub fn num_decoded(&self) -> usize {
        let empty_first = self.num_groups() > 0 && self.key(self.order[0]).iter().all(|&w| w == 0);
        self.num_groups() - usize::from(empty_first)
    }

    /// The shots whose syndrome is group `g`'s, ascending by key order.
    pub fn shots(&self, g: usize) -> &[u32] {
        &self.order[self.bounds[g] as usize..self.bounds[g + 1] as usize]
    }

    /// Writes group `g`'s fired detectors into `out` (cleared first), in
    /// ascending order — the order a dense syndrome scan produces.
    pub fn defects_into(&self, g: usize, out: &mut Vec<u32>) {
        out.clear();
        let key = self.key(self.order[self.bounds[g] as usize]);
        for (w, &word) in key.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Predicts every shot's observable flip: `decode(scratch, defects)`
    /// runs once per distinct non-empty syndrome, and the empty syndrome
    /// predicts no flip without a decode. Groups are sharded over `pool`
    /// in fixed-size chunks, each with a fresh `new_scratch()`.
    ///
    /// `decode` must be a deterministic function of the defect list; the
    /// returned `1 × shots` table is then identical for every worker count.
    pub fn predict<S>(
        &self,
        pool: &WorkerPool,
        new_scratch: impl Fn() -> S + Sync,
        decode: impl Fn(&mut S, &[u32]) -> bool + Sync,
    ) -> BitTable {
        let flips = pool.run_shards(self.num_groups(), GROUP_SHARD, 0, |shard| {
            let mut scratch = new_scratch();
            let mut defects = Vec::new();
            (shard.start..shard.start + shard.len)
                .map(|g| {
                    self.defects_into(g, &mut defects);
                    !defects.is_empty() && decode(&mut scratch, &defects)
                })
                .collect::<Vec<bool>>()
        });
        let mut predicted = BitTable::new(1, self.order.len());
        for (g, flip) in flips.into_iter().flatten().enumerate() {
            if flip {
                for &shot in self.shots(g) {
                    predicted.set(0, shot as usize, true);
                }
            }
        }
        predicted
    }

    fn key(&self, shot: u32) -> &[u64] {
        &self.keys[shot as usize * self.words..][..self.words]
    }
}

/// Computes the noiseless reference measurement sample with the tableau
/// simulator (random outcomes forced to zero, Stim's convention).
pub fn reference_sample(circuit: &Circuit) -> Vec<bool> {
    let mut t = Tableau::new(circuit.num_qubits().max(1) as usize);
    let mut record = Vec::with_capacity(circuit.num_measurements());
    for inst in circuit.instructions() {
        match inst {
            Instruction::Gate1(g, qs) => {
                for &q in qs {
                    let q = q as usize;
                    match g {
                        Gate1::H => t.h(q),
                        Gate1::S => t.s(q),
                        Gate1::SDag => t.s_dag(q),
                        Gate1::X => t.x(q),
                        Gate1::Y => t.y(q),
                        Gate1::Z => t.z(q),
                    }
                }
            }
            Instruction::Gate2(g, pairs) => {
                for &(a, b) in pairs {
                    let (a, b) = (a as usize, b as usize);
                    match g {
                        Gate2::Cx => t.cx(a, b),
                        Gate2::Cz => t.cz(a, b),
                        Gate2::Swap => t.swap(a, b),
                    }
                }
            }
            Instruction::Measure { targets, .. } => {
                for &q in targets {
                    record.push(t.measure_forced(q as usize, false));
                }
            }
            Instruction::MeasureReset { targets, .. } => {
                for &q in targets {
                    let out = t.measure_forced(q as usize, false);
                    record.push(out);
                    if out {
                        t.x(q as usize);
                    }
                }
            }
            Instruction::Reset(qs) => {
                for &q in qs {
                    t.reset_forced(q as usize);
                }
            }
            _ => {}
        }
    }
    record
}

/// Verifies that every detector has even reference parity (i.e. is
/// deterministic-zero under no noise). Returns the indices of violating
/// detectors.
pub fn nondeterministic_detectors(circuit: &Circuit) -> Vec<usize> {
    let reference = reference_sample(circuit);
    let mut bad = Vec::new();
    let mut det = 0usize;
    for inst in circuit.instructions() {
        if let Instruction::Detector(ms) = inst {
            let parity = ms.iter().fold(false, |acc, &m| acc ^ reference[m]);
            if parity {
                bad.push(det);
            }
            det += 1;
        }
    }
    bad
}

/// Samples `shots` noisy executions of `circuit`, returning detector firings
/// and observable flips.
///
/// Runs on the global [`WorkerPool`] via the sharded
/// [`FrameSampler::sample`] path; the output is bit-identical for every
/// worker count (see [`hetarch_exec`]'s `(seed, shard)` contract).
pub fn sample_detectors(circuit: &Circuit, shots: usize, seed: u64) -> DetectorSamples {
    sample_detectors_on(WorkerPool::global(), circuit, shots, seed)
}

/// As [`sample_detectors`] with an explicit worker pool.
pub fn sample_detectors_on(
    pool: &WorkerPool,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> DetectorSamples {
    let result = FrameSampler::sample(circuit, shots, seed, pool);
    assemble(circuit, &result.meas_flips, shots)
}

/// Assembles detector firings and observable flips from a measurement-flip
/// table (e.g. one produced by [`FrameSampler::run_with_faults`] or
/// [`crate::frame::sample_at_weight`] on the rare-event path).
pub fn assemble_detectors(
    circuit: &Circuit,
    meas_flips: &BitTable,
    shots: usize,
) -> DetectorSamples {
    assemble(circuit, meas_flips, shots)
}

fn assemble(circuit: &Circuit, meas_flips: &BitTable, shots: usize) -> DetectorSamples {
    let mut detectors = BitTable::new(circuit.num_detectors(), shots);
    let mut observables = BitTable::new(circuit.num_observables() as usize, shots);
    let mut det = 0usize;
    for inst in circuit.instructions() {
        match inst {
            Instruction::Detector(ms) => {
                for &m in ms {
                    detectors.xor_row(det, meas_flips.row(m));
                }
                det += 1;
            }
            Instruction::Observable(k, ms) => {
                for &m in ms {
                    observables.xor_row(*k as usize, meas_flips.row(m));
                }
            }
            _ => {}
        }
    }
    DetectorSamples {
        detectors,
        observables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::PauliErr;

    /// A tiny 3-qubit repetition-code memory: 2 ancilla parity checks
    /// repeated twice.
    fn rep_code_circuit(px: f64, meas_flip: f64) -> Circuit {
        // Qubits 0,1,2 = data; 3,4 = ancilla.
        let mut c = Circuit::new(5);
        let mut prev: Option<Vec<usize>> = None;
        for _round in 0..2 {
            c.pauli_noise(
                PauliErr {
                    px,
                    py: 0.0,
                    pz: 0.0,
                },
                &[0, 1, 2],
            );
            c.cx(&[(0, 3), (1, 4)]);
            c.cx(&[(1, 3), (2, 4)]);
            let m = c.measure_reset(&[3, 4], meas_flip);
            if let Some(p) = &prev {
                c.detector(&[p[0], m[0]]);
                c.detector(&[p[1], m[1]]);
            } else {
                c.detector(&[m[0]]);
                c.detector(&[m[1]]);
            }
            prev = Some(m);
        }
        let fin = c.measure(&[0, 1, 2], 0.0);
        let p = prev.unwrap();
        c.detector(&[fin[0], fin[1], p[0]]);
        c.detector(&[fin[1], fin[2], p[1]]);
        c.observable(0, &[fin[0]]);
        c
    }

    #[test]
    fn rep_code_detectors_are_deterministic() {
        let c = rep_code_circuit(0.01, 0.01);
        assert!(nondeterministic_detectors(&c).is_empty());
    }

    #[test]
    fn noiseless_run_fires_nothing() {
        let c = rep_code_circuit(0.0, 0.0);
        let s = sample_detectors(&c, 512, 11);
        for d in 0..c.num_detectors() {
            assert_eq!(s.detectors.count_ones(d), 0, "detector {d} fired");
        }
        assert_eq!(s.observables.count_ones(0), 0);
    }

    #[test]
    fn data_errors_fire_adjacent_detectors() {
        // Deterministic X on the middle data qubit fires both first-round
        // detectors and both final detectors... it is flipped once before
        // round 0 and once before round 1.
        let mut c = Circuit::new(5);
        c.pauli_noise(
            PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[1],
        );
        c.cx(&[(0, 3), (1, 4)]);
        c.cx(&[(1, 3), (2, 4)]);
        let m = c.measure_reset(&[3, 4], 0.0);
        c.detector(&[m[0]]);
        c.detector(&[m[1]]);
        let s = sample_detectors(&c, 64, 3);
        assert_eq!(s.detectors.count_ones(0), 64);
        assert_eq!(s.detectors.count_ones(1), 64);
    }

    #[test]
    fn observable_flip_rate_tracks_error_rate() {
        let c = rep_code_circuit(0.3, 0.0);
        let s = sample_detectors(&c, 50_000, 17);
        // Qubit 0 flips with probability p per round (2 rounds): net flip
        // probability 2p(1-p).
        let expect = 2.0 * 0.3 * 0.7;
        let rate = s.observable_flip_rate(0);
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate}, expected {expect}"
        );
    }

    #[test]
    fn measurement_flip_fires_time_pair() {
        // Only measurement noise on the first-round ancilla measurement:
        // detectors at rounds 0 and 1 for that ancilla should fire together.
        let c = rep_code_circuit(0.0, 0.2);
        let s = sample_detectors(&c, 20_000, 23);
        let d0 = s.detectors.count_ones(0) as f64 / 20_000.0;
        let d2 = s.detectors.count_ones(2) as f64 / 20_000.0;
        // Detector 0 fires iff round-0 measurement of ancilla 3 flipped.
        assert!((d0 - 0.2).abs() < 0.02, "d0 = {d0}");
        // Detector 2 (same ancilla, next round) fires iff exactly one of the
        // two measurement flips happened: 2p(1-p) = 0.32.
        assert!((d2 - 0.32).abs() < 0.02, "d2 = {d2}");
    }
}
