//! Reference builders for UEC module construction (DESIGN.md §5l).
//!
//! `UecModule::new` builds three code-only structures: the minimum-weight
//! lookup table, the first-order circuit-fault table and the data-qubit
//! register assignment. The production builders derive all three from
//! single-site syndromes and bit masks. The functions here are the direct
//! algorithms they replaced, kept as oracles: a breadth-first frontier of
//! `PauliString`s, per-symptom candidate lists, and an assignment search
//! that costs every candidate by materialising it. The differential suite
//! `tests/uec_build_differential.rs` demands that both give identical
//! outputs, entry for entry.
//!
//! [`sample_pauli_into`] is the floating-point fault sampling the UEC-family
//! shot bodies used before their cycles were compiled to integer thresholds
//! (DESIGN.md §5m); `tests/fault_stream_contract.rs` holds the compiled
//! sites' driver to it, draw for draw.

use std::collections::HashMap;

use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::pauli::{Pauli, PauliString};
use rand::Rng;

/// The minimum-weight lookup table over all errors of weight
/// `≤ max_weight`, built breadth-first in error weight: the first
/// correction recorded for a syndrome is the one a `LookupDecoder` must
/// return for it.
///
/// # Panics
///
/// Panics if the code has more than 63 stabilizer generators.
pub fn lookup_table(code: &StabilizerCode, max_weight: usize) -> HashMap<u64, PauliString> {
    let n = code.num_qubits();
    let r = code.stabilizers().len();
    assert!(r < 64, "syndrome must fit in 64 bits");
    let mut table: HashMap<u64, PauliString> = HashMap::new();
    table.insert(0, PauliString::identity(n));
    let mut frontier: Vec<PauliString> = vec![PauliString::identity(n)];
    for _w in 1..=max_weight {
        let mut next = Vec::new();
        for base in &frontier {
            // Extend support beyond the last touched qubit to enumerate
            // each support set exactly once.
            let start = base.iter_support().last().map(|(q, _)| q + 1).unwrap_or(0);
            for q in start..n {
                for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                    let mut e = base.clone();
                    e.set(q, p);
                    let syn = syndrome_bits(code, &e);
                    table.entry(syn).or_insert_with(|| e.clone());
                    next.push(e);
                }
            }
        }
        frontier = next;
    }
    table
}

fn syndrome_bits(code: &StabilizerCode, error: &PauliString) -> u64 {
    code.stabilizers()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, s)| {
            acc | ((!s.commutes_with(error) as u64) << i)
        })
}

/// The first-order circuit-fault decoding table for a temporally ordered
/// syndrome extraction, as `hetarch_modules::uec::sim::first_order_table`
/// must build it: each partial syndrome of one data-qubit fault, and each
/// single measurement flip, maps to its unique weight ≤ 1 cause, or to
/// the identity when several causes share it.
pub fn first_order_table(
    code: &StabilizerCode,
    temporal_groups: &[Vec<usize>],
) -> HashMap<u64, PauliString> {
    let n = code.num_qubits();
    let stabs = code.stabilizers();
    let mut candidates: HashMap<u64, Vec<PauliString>> = HashMap::new();
    // Single measurement flips want the identity correction.
    for s in 0..stabs.len() {
        candidates
            .entry(1u64 << s)
            .or_default()
            .push(PauliString::identity(n));
    }
    for k in 0..temporal_groups.len() {
        for q in 0..n {
            for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                let e = PauliString::from_sparse(n, &[(q, p)]);
                let mut symptom = 0u64;
                for group in &temporal_groups[k..] {
                    for &s in group {
                        if !stabs[s].commutes_with(&e) {
                            symptom |= 1 << s;
                        }
                    }
                }
                let entry = candidates.entry(symptom).or_default();
                if !entry.contains(&e) {
                    entry.push(e);
                }
            }
        }
    }
    let mut table: HashMap<u64, PauliString> = HashMap::new();
    table.insert(0, PauliString::identity(n));
    for (symptom, cands) in candidates {
        if symptom == 0 {
            continue;
        }
        let correction = if cands.len() == 1 {
            cands.into_iter().next().expect("one candidate")
        } else {
            PauliString::identity(n)
        };
        table.insert(symptom, correction);
    }
    table
}

/// The register of each data qubit that
/// `hetarch_modules::uec::search_assignment` must choose for `code` on
/// `registers` registers of `modes` modes: exhaustive search (qubit 0
/// pinned to register 0, first strict minimum wins) for ≤ 10 qubits on
/// ≤ 3 registers, otherwise first-improvement hill climbing from a
/// round-robin start.
///
/// # Panics
///
/// Panics if the code does not fit (`n > registers × modes`).
pub fn search_assignment(code: &StabilizerCode, registers: u32, modes: u32) -> Vec<u32> {
    let n = code.num_qubits();
    assert!(
        n <= (registers * modes) as usize,
        "code with {n} qubits exceeds capacity {}",
        registers * modes
    );
    if n <= 10 && registers <= 3 {
        exhaustive(code, registers, modes)
    } else {
        hill_climb(code, registers, modes)
    }
}

/// Total swap-serialization cost of `of_qubit`: per check, the largest
/// number of its qubits co-located in one register, summed over checks.
pub fn assignment_cost(code: &StabilizerCode, registers: u32, of_qubit: &[u32]) -> usize {
    code.stabilizers()
        .iter()
        .map(|s| {
            let mut counts = vec![0usize; registers as usize];
            for (q, _) in s.iter_support() {
                counts[of_qubit[q] as usize] += 1;
            }
            counts.into_iter().max().unwrap_or(0)
        })
        .sum()
}

fn capacity_ok(of_qubit: &[u32], registers: u32, modes: u32) -> bool {
    let mut counts = vec![0u32; registers as usize];
    for &r in of_qubit {
        counts[r as usize] += 1;
    }
    counts.into_iter().all(|c| c <= modes)
}

fn exhaustive(code: &StabilizerCode, registers: u32, modes: u32) -> Vec<u32> {
    let n = code.num_qubits();
    let mut best: Option<(usize, Vec<u32>)> = None;
    let mut of_qubit = vec![0u32; n];
    // Qubit 0 pinned to register 0 (register labels are symmetric).
    fn rec(
        q: usize,
        of_qubit: &mut Vec<u32>,
        code: &StabilizerCode,
        registers: u32,
        modes: u32,
        best: &mut Option<(usize, Vec<u32>)>,
    ) {
        let n = of_qubit.len();
        if q == n {
            if !capacity_ok(of_qubit, registers, modes) {
                return;
            }
            let cost = assignment_cost(code, registers, of_qubit);
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                *best = Some((cost, of_qubit.clone()));
            }
            return;
        }
        let limit = if q == 0 { 1 } else { registers };
        for r in 0..limit {
            of_qubit[q] = r;
            rec(q + 1, of_qubit, code, registers, modes, best);
        }
    }
    rec(0, &mut of_qubit, code, registers, modes, &mut best);
    best.expect("at least one assignment exists").1
}

fn hill_climb(code: &StabilizerCode, registers: u32, modes: u32) -> Vec<u32> {
    let n = code.num_qubits();
    // Greedy start: round-robin.
    let mut map: Vec<u32> = (0..n).map(|q| (q as u32) % registers).collect();
    let mut cost = assignment_cost(code, registers, &map);
    let mut improved = true;
    while improved {
        improved = false;
        for q in 0..n {
            let original = map[q];
            for r in 0..registers {
                if r == original {
                    continue;
                }
                map[q] = r;
                if !capacity_ok(&map, registers, modes) {
                    map[q] = original;
                    continue;
                }
                let c = assignment_cost(code, registers, &map);
                if c < cost {
                    cost = c;
                    improved = true;
                    break;
                }
                map[q] = original;
            }
        }
    }
    map
}

/// Samples one fault of the Pauli channel `probs` into qubit `q` of
/// `error` with a single uniform `f64` draw `r`: nothing when `r ≥ total`,
/// else X below `px`, Y below `px + py` and Z otherwise. A channel whose
/// total probability is not positive makes no draw.
pub fn sample_pauli_into<R: Rng + ?Sized>(
    error: &mut PauliString,
    q: usize,
    probs: PauliProbs,
    rng: &mut R,
) {
    let total = probs.total();
    if total <= 0.0 {
        return;
    }
    let r: f64 = rng.gen();
    if r >= total {
        return;
    }
    let p = if r < probs.px {
        Pauli::X
    } else if r < probs.px + probs.py {
        Pauli::Y
    } else {
        Pauli::Z
    };
    let (cx, cz) = error.get(q).xz();
    let (nx, nz) = p.xz();
    error.set(q, Pauli::from_xz(cx ^ nx, cz ^ nz));
}
