//! Data-qubit assignment to USC registers, and serialized check schedules.
//!
//! The UEC module stores data qubits in up to three 10-mode Registers around
//! a shared stabilizer ancilla (paper §4.2.2). Each Register has a single
//! compute qubit, so data co-located in one Register must be swapped out
//! *sequentially* during a check; the assignment search spreads each check's
//! support across Registers to maximize swap parallelism, which is the paper's
//! "maximum possible parallelism while minimizing time outside storage".

use serde::{Deserialize, Serialize};

use hetarch_cells::UscChannel;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::pauli::PauliString;

/// A mapping from data qubit index to register index.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    registers: u32,
    of_qubit: Vec<u32>,
}

impl Assignment {
    /// Creates an assignment from an explicit map.
    ///
    /// # Panics
    ///
    /// Panics if any register index is out of range.
    pub fn new(registers: u32, of_qubit: Vec<u32>) -> Self {
        assert!(
            of_qubit.iter().all(|&r| r < registers),
            "register out of range"
        );
        Assignment {
            registers,
            of_qubit,
        }
    }

    /// Register of data qubit `q`.
    pub fn register_of(&self, q: usize) -> u32 {
        self.of_qubit[q]
    }

    /// Number of registers used.
    pub fn registers(&self) -> u32 {
        self.registers
    }

    /// Number of data qubits.
    pub fn num_qubits(&self) -> usize {
        self.of_qubit.len()
    }

    /// For one check support, the largest number of its qubits co-located in
    /// a single register (the swap-serialization factor).
    pub fn max_group(&self, support: &[usize]) -> usize {
        let support_word = |w: usize| {
            support
                .iter()
                .filter(|&&q| q / 64 == w)
                .fold(0u64, |m, &q| m | (1 << (q % 64)))
        };
        self.max_group_of(support_word)
    }

    /// Total swap-serialization cost over all checks of a code.
    pub fn cost(&self, code: &StabilizerCode) -> usize {
        code.stabilizers()
            .iter()
            .map(|s| self.check_max_group(s))
            .sum()
    }

    /// [`Self::max_group`] of the support of `check`.
    fn check_max_group(&self, check: &PauliString) -> usize {
        self.max_group_of(|w| check.x_word(w) | check.z_word(w))
    }

    /// [`Self::max_group`] of the support whose mask word `w` is
    /// `support_word(w)`.
    fn max_group_of(&self, support_word: impl Fn(usize) -> u64) -> usize {
        let words = self.of_qubit.len().div_ceil(64);
        max_group_masked(words, self.registers, support_word, |r, w| {
            self.of_qubit
                .iter()
                .skip(64 * w)
                .take(64)
                .enumerate()
                .fold(0u64, |m, (i, &reg)| m | (((reg == r) as u64) << i))
        })
    }
}

/// The swap-serialization factor of one check: the largest number of its
/// qubits sharing one register. Qubit sets are bit masks, 64 qubits per
/// word: word `w` of the check's support is `support_word(w)` and of
/// register `r`'s members `member_word(r, w)`.
fn max_group_masked(
    words: usize,
    registers: u32,
    support_word: impl Fn(usize) -> u64,
    member_word: impl Fn(u32, usize) -> u64,
) -> usize {
    (0..registers)
        .map(|r| {
            (0..words)
                .map(|w| (support_word(w) & member_word(r, w)).count_ones() as usize)
                .sum()
        })
        .max()
        .unwrap_or(0)
}

/// Searches for a good assignment of `code`'s data qubits to `registers`
/// registers with `modes` modes each.
///
/// Exhaustive for small codes (≤ 10 qubits); greedy placement plus
/// hill-climbing otherwise (the paper's brute force is likewise "a first
/// study" and flags scalable search as future work).
///
/// # Panics
///
/// Panics if the code does not fit (`n > registers × modes`).
pub fn search_assignment(code: &StabilizerCode, registers: u32, modes: u32) -> Assignment {
    let n = code.num_qubits();
    assert!(
        n <= (registers * modes) as usize,
        "code with {n} qubits exceeds capacity {}",
        registers * modes
    );
    let mut search = Search::new(code, registers, modes);
    let of_qubit = if n <= 10 && registers <= 3 {
        search.exhaustive()
    } else {
        search.hill_climb()
    };
    Assignment::new(registers, of_qubit)
}

/// A candidate assignment as register membership masks, costed against
/// the checks' support masks without materialising an [`Assignment`].
struct Search {
    registers: u32,
    modes: u32,
    words: usize,
    /// Register of each data qubit.
    of_qubit: Vec<u32>,
    /// Register `r`'s qubits at `[r · words, (r + 1) · words)`.
    members: Vec<u64>,
    /// Check `s`'s support at `[s · words, (s + 1) · words)`.
    supports: Vec<u64>,
}

impl Search {
    /// Starts with every qubit in register 0.
    fn new(code: &StabilizerCode, registers: u32, modes: u32) -> Self {
        let n = code.num_qubits();
        let words = n.div_ceil(64);
        let supports = code
            .stabilizers()
            .iter()
            .flat_map(|s| (0..words).map(move |w| s.x_word(w) | s.z_word(w)))
            .collect();
        let mut members = vec![0u64; registers as usize * words];
        for q in 0..n {
            members[q / 64] |= 1 << (q % 64);
        }
        Search {
            registers,
            modes,
            words,
            of_qubit: vec![0; n],
            members,
            supports,
        }
    }

    /// Moves qubit `q` to register `r`.
    fn place(&mut self, q: usize, r: u32) {
        let (w, bit) = (q / 64, 1u64 << (q % 64));
        self.members[self.of_qubit[q] as usize * self.words + w] &= !bit;
        self.members[r as usize * self.words + w] |= bit;
        self.of_qubit[q] = r;
    }

    /// Number of qubits in register `r`.
    fn occupancy(&self, r: u32) -> u32 {
        let start = r as usize * self.words;
        self.members[start..start + self.words]
            .iter()
            .map(|m| m.count_ones())
            .sum()
    }

    fn capacity_ok(&self) -> bool {
        (0..self.registers).all(|r| self.occupancy(r) <= self.modes)
    }

    /// [`Assignment::cost`] of the current candidate.
    fn cost(&self) -> usize {
        self.supports
            .chunks_exact(self.words.max(1))
            .map(|support| {
                max_group_masked(
                    self.words,
                    self.registers,
                    |w| support[w],
                    |r, w| self.members[r as usize * self.words + w],
                )
            })
            .sum()
    }

    /// Every assignment with qubit 0 pinned to register 0 (register labels
    /// are symmetric), in lexicographic order; the first of least cost
    /// wins.
    fn exhaustive(&mut self) -> Vec<u32> {
        let mut best = None;
        self.exhaustive_from(1, &mut best);
        best.expect("at least one assignment exists").1
    }

    fn exhaustive_from(&mut self, q: usize, best: &mut Option<(usize, Vec<u32>)>) {
        if q >= self.of_qubit.len() {
            if self.capacity_ok() {
                let cost = self.cost();
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    *best = Some((cost, self.of_qubit.clone()));
                }
            }
            return;
        }
        for r in 0..self.registers {
            self.place(q, r);
            self.exhaustive_from(q + 1, best);
        }
    }

    /// First-improvement hill climbing over single-qubit moves from a
    /// round-robin start.
    fn hill_climb(&mut self) -> Vec<u32> {
        let n = self.of_qubit.len();
        for q in 0..n {
            self.place(q, (q as u32) % self.registers);
        }
        let mut cost = self.cost();
        let mut improved = true;
        while improved {
            improved = false;
            for q in 0..n {
                let original = self.of_qubit[q];
                for r in 0..self.registers {
                    if r == original {
                        continue;
                    }
                    self.place(q, r);
                    // A move that overfills a register is undone like a
                    // move that does not improve the cost.
                    if !self.capacity_ok() {
                        self.place(q, original);
                        continue;
                    }
                    let c = self.cost();
                    if c < cost {
                        cost = c;
                        improved = true;
                        break;
                    }
                    self.place(q, original);
                }
            }
        }
        std::mem::take(&mut self.of_qubit)
    }
}

/// The serialized schedule of one QEC cycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CycleSchedule {
    /// Per-check timing, in stabilizer order.
    pub checks: Vec<CheckSlot>,
    /// Total cycle duration (seconds).
    pub cycle_duration: f64,
}

/// Timing of one serialized stabilizer check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckSlot {
    /// Index of the stabilizer generator.
    pub stabilizer: usize,
    /// Wall-clock duration of the check.
    pub duration: f64,
    /// Time each involved data qubit spends outside storage.
    pub exposure: f64,
    /// Check weight.
    pub weight: usize,
}

/// Builds the cycle schedule for `code` under `assignment` on a USC with
/// channel `usc`: per check, parallel swap-outs across registers (serialized
/// within one register), serial CXs through the shared ancilla, swap-backs,
/// then ancilla readout.
pub fn build_schedule(
    code: &StabilizerCode,
    assignment: &Assignment,
    usc: &UscChannel,
) -> CycleSchedule {
    let mut checks = Vec::new();
    let mut total = 0.0;
    for (i, s) in code.stabilizers().iter().enumerate() {
        let w = s.weight();
        let max_group = assignment.check_max_group(s);
        let duration =
            2.0 * max_group as f64 * usc.swap.time + w as f64 * usc.cx.time + usc.readout_time;
        let exposure = 2.0 * usc.swap.time + w as f64 * usc.cx.time;
        checks.push(CheckSlot {
            stabilizer: i,
            duration,
            exposure,
            weight: w,
        });
        total += duration;
    }
    CycleSchedule {
        checks,
        cycle_duration: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_stab::codes::{rotated_surface_code, steane};

    fn usc_channel() -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(1e-3),
        )
        .unwrap()
        .characterize()
    }

    #[test]
    fn steane_assignment_spreads_checks() {
        let code = steane();
        let a = search_assignment(&code, 3, 10);
        assert_eq!(a.num_qubits(), 7);
        // Optimal: every weight-4 check splits at most 2-2 across registers.
        for s in code.stabilizers() {
            let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
            assert!(a.max_group(&support) <= 2, "check too concentrated");
        }
    }

    #[test]
    fn assignment_respects_capacity() {
        let code = rotated_surface_code(4); // 16 qubits
        let a = search_assignment(&code, 3, 10);
        let mut counts = [0u32; 3];
        for q in 0..16 {
            counts[a.register_of(q) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 10));
        assert_eq!(counts.iter().sum::<u32>(), 16);
    }

    #[test]
    fn hill_climb_beats_or_matches_round_robin() {
        let code = rotated_surface_code(4);
        let rr = Assignment::new(3, (0..16).map(|q| (q as u32) % 3).collect());
        let tuned = search_assignment(&code, 3, 10);
        assert!(tuned.cost(&code) <= rr.cost(&code));
    }

    #[test]
    fn schedule_durations_are_consistent() {
        let code = steane();
        let a = search_assignment(&code, 3, 10);
        let usc = usc_channel();
        let sched = build_schedule(&code, &a, &usc);
        assert_eq!(sched.checks.len(), 6);
        let sum: f64 = sched.checks.iter().map(|c| c.duration).sum();
        assert!((sum - sched.cycle_duration).abs() < 1e-12);
        for c in &sched.checks {
            assert!(c.duration >= c.exposure);
            assert_eq!(c.weight, 4);
        }
    }

    #[test]
    fn better_assignment_shortens_cycle() {
        let code = steane();
        let usc = usc_channel();
        let good = search_assignment(&code, 3, 10);
        // Pathological: everything in one register.
        let bad = Assignment::new(3, vec![0; 7]);
        let t_good = build_schedule(&code, &good, &usc).cycle_duration;
        let t_bad = build_schedule(&code, &bad, &usc).cycle_duration;
        assert!(t_good < t_bad);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_code_rejected() {
        let code = rotated_surface_code(6); // 36 qubits > 30
        search_assignment(&code, 3, 10);
    }
}
