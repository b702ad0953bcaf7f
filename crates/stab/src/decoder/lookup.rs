//! Exact minimum-weight lookup-table decoding for small codes.
//!
//! The UEC module (paper §4.2.2) evaluates codes of ≤ 30 qubits; for those,
//! a table mapping each syndrome to its minimum-weight Pauli correction is
//! both exact and fast. The table records, for every syndrome, the first
//! correction in weight-then-lexicographic order of
//! `(q₁, P₁, …, q_w, P_w)` (qubits ascending, `X < Y < Z`): the error of
//! least weight, ties broken by that order.
//!
//! Building it uses syndrome linearity: an error's syndrome is the XOR of
//! its single-site syndromes, so a depth-first walk over supports carries
//! the syndrome incrementally and materialises a correction only when its
//! syndrome is new (DESIGN.md §5l).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::codes::StabilizerCode;
use crate::pauli::{Pauli, PauliString};

const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

/// A minimum-weight lookup decoder for one [`StabilizerCode`].
///
/// # Examples
///
/// ```
/// use hetarch_stab::codes::steane;
/// use hetarch_stab::decoder::lookup::LookupDecoder;
/// use hetarch_stab::pauli::{Pauli, PauliString};
///
/// let code = steane();
/// let decoder = LookupDecoder::new(&code, 2);
/// let err = PauliString::from_sparse(7, &[(3, Pauli::X)]);
/// let syndrome = code.syndrome_of(&err);
/// let correction = decoder.decode(&syndrome);
/// // Correction restores the codespace without a logical flip.
/// let residual = err.xor(&correction);
/// assert!(code.in_normalizer(&residual));
/// assert!(!code.is_logical_error(&residual));
/// ```
#[derive(Clone, Debug)]
pub struct LookupDecoder {
    num_qubits: usize,
    num_stabilizers: usize,
    /// Syndrome → index of its correction in `corrections`.
    table: HashMap<u64, u32>,
    /// Corrections back to back, each as its x words then its z words
    /// (`2 · ⌈n/64⌉` words per correction).
    corrections: Vec<u64>,
    max_weight: usize,
}

impl LookupDecoder {
    /// Builds a table over all errors of weight ≤ `max_weight`.
    ///
    /// `max_weight = ⌊(d−1)/2⌋` suffices for correcting below distance;
    /// larger values fill more of the syndrome space (better behaviour above
    /// threshold) at exponential build cost.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 63 stabilizer generators.
    pub fn new(code: &StabilizerCode, max_weight: usize) -> Self {
        let n = code.num_qubits();
        let r = code.stabilizers().len();
        assert!(r < 64, "syndrome must fit in 64 bits");
        // Syndrome of Pauli `PAULIS[k]` on qubit `q`, at index `3q + k`.
        let site_syndromes: Vec<u64> = (0..n)
            .flat_map(|q| PAULIS.map(|p| code.site_syndrome(q, p)))
            .collect();
        let words = n.div_ceil(64);
        let mut builder = TableBuilder {
            site_syndromes,
            table: HashMap::new(),
            corrections: Vec::new(),
            x: vec![0; words],
            z: vec![0; words],
        };
        builder.record(0);
        // One depth-first pass per weight keeps every lighter error ahead
        // of every heavier one, as a breadth-first frontier would.
        for w in 1..=max_weight.min(n) {
            builder.extend(0, w, 0);
        }
        LookupDecoder {
            num_qubits: n,
            num_stabilizers: r,
            table: builder.table,
            corrections: builder.corrections,
            max_weight,
        }
    }

    /// Number of syndromes with a recorded correction.
    pub fn coverage(&self) -> usize {
        self.table.len()
    }

    /// The weight cap used when building the table.
    pub fn max_weight(&self) -> usize {
        self.max_weight
    }

    /// Decodes a syndrome to a minimum-weight correction. Unknown syndromes
    /// (weight above the table cap) return the identity, i.e. "detected but
    /// uncorrected".
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length is wrong.
    pub fn decode(&self, syndrome: &[bool]) -> PauliString {
        assert_eq!(
            syndrome.len(),
            self.num_stabilizers,
            "syndrome length mismatch"
        );
        let bits = syndrome
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
        self.decode_bits(bits)
    }

    /// Decodes a syndrome given as packed bits.
    ///
    /// This is the hot entry point: the UEC shard loop extracts packed
    /// syndrome words straight from its [`crate::bits::BitTable`] and
    /// never materialises a `&[bool]` per shot, mirroring the sparse
    /// extraction discipline of the union-find batch path (DESIGN.md §5k).
    #[inline]
    pub fn decode_bits(&self, bits: u64) -> PauliString {
        match self.table.get(&bits) {
            Some(&index) => {
                let words = self.num_qubits.div_ceil(64);
                let start = index as usize * 2 * words;
                let (x, z) = self.corrections[start..start + 2 * words].split_at(words);
                PauliString::from_words(self.num_qubits, x, z)
            }
            None => PauliString::identity(self.num_qubits),
        }
    }

    /// As [`Self::decode_bits`] for codes of at most 64 qubits, returning
    /// the correction as its `(x, z)` words without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits.
    #[inline]
    pub fn decode_word(&self, bits: u64) -> (u64, u64) {
        assert!(self.num_qubits <= 64, "decode_word needs at most 64 qubits");
        match self.table.get(&bits) {
            Some(&index) => {
                let start = 2 * index as usize;
                (self.corrections[start], self.corrections[start + 1])
            }
            None => (0, 0),
        }
    }
}

/// State of the depth-first table build: the error under construction as
/// x/z words, and the table and correction arena it fills.
struct TableBuilder {
    site_syndromes: Vec<u64>,
    table: HashMap<u64, u32>,
    corrections: Vec<u64>,
    x: Vec<u64>,
    z: Vec<u64>,
}

impl TableBuilder {
    /// Visits, in lexicographic order, every extension of the current
    /// error (syndrome `syndrome`) by `depth` more sites on qubits
    /// `≥ start`, recording each completed error whose syndrome is new.
    fn extend(&mut self, start: usize, depth: usize, syndrome: u64) {
        let n = self.site_syndromes.len() / 3;
        for q in start..=n - depth {
            let (w, bit) = (q / 64, 1u64 << (q % 64));
            for (k, p) in PAULIS.into_iter().enumerate() {
                let syn = syndrome ^ self.site_syndromes[3 * q + k];
                let (px, pz) = p.xz();
                if px {
                    self.x[w] |= bit;
                }
                if pz {
                    self.z[w] |= bit;
                }
                if depth == 1 {
                    self.record(syn);
                } else {
                    self.extend(q + 1, depth - 1, syn);
                }
                self.x[w] &= !bit;
                self.z[w] &= !bit;
            }
        }
    }

    /// Stores the current error as the correction of `syndrome` unless an
    /// earlier error already claimed it.
    fn record(&mut self, syndrome: u64) {
        let index = self.table.len() as u32;
        if let Entry::Vacant(slot) = self.table.entry(syndrome) {
            slot.insert(index);
            self.corrections.extend_from_slice(&self.x);
            self.corrections.extend_from_slice(&self.z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{color_17, reed_muller_15, steane};

    #[test]
    fn all_single_errors_corrected_exactly() {
        for code in [steane(), color_17(), reed_muller_15()] {
            let dec = LookupDecoder::new(&code, 1);
            for q in 0..code.num_qubits() {
                for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                    let e = PauliString::from_sparse(code.num_qubits(), &[(q, p)]);
                    let c = dec.decode(&code.syndrome_of(&e));
                    let residual = e.xor(&c);
                    assert!(code.in_normalizer(&residual), "{}: {e}", code.name());
                    assert!(
                        !code.is_logical_error(&residual),
                        "{}: single error {e} miscorrected",
                        code.name()
                    );
                }
            }
        }
    }

    #[test]
    fn color17_corrects_all_weight_two_errors() {
        let code = color_17();
        let dec = LookupDecoder::new(&code, 2);
        // Distance 5 => every weight-2 error must decode without logical
        // flip. Sample the full set.
        for q1 in 0..17 {
            for q2 in (q1 + 1)..17 {
                for p1 in [Pauli::X, Pauli::Z] {
                    for p2 in [Pauli::X, Pauli::Z] {
                        let e = PauliString::from_sparse(17, &[(q1, p1), (q2, p2)]);
                        let c = dec.decode(&code.syndrome_of(&e));
                        let residual = e.xor(&c);
                        assert!(code.in_normalizer(&residual));
                        assert!(
                            !code.is_logical_error(&residual),
                            "weight-2 error {e} miscorrected"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn steane_weight_two_errors_are_detected() {
        // Distance 3: weight-2 errors may be miscorrected but never produce
        // an *undetected* logical error (their syndrome is nonzero).
        let code = steane();
        for q1 in 0..7 {
            for q2 in (q1 + 1)..7 {
                let e = PauliString::from_sparse(7, &[(q1, Pauli::X), (q2, Pauli::X)]);
                assert!(!code.in_normalizer(&e));
            }
        }
    }

    #[test]
    fn unknown_syndrome_returns_identity() {
        let code = steane();
        let dec = LookupDecoder::new(&code, 0); // only the trivial entry
        let e = PauliString::from_sparse(7, &[(0, Pauli::X)]);
        let c = dec.decode(&code.syndrome_of(&e));
        assert!(c.is_identity());
    }

    #[test]
    fn coverage_grows_with_weight() {
        let code = steane();
        let c1 = LookupDecoder::new(&code, 1).coverage();
        let c2 = LookupDecoder::new(&code, 2).coverage();
        assert!(c2 > c1);
        assert_eq!(LookupDecoder::new(&code, 0).coverage(), 1);
        // Steane: weight ≤ 1 gives 1 + 21 = 22 syndromes, all distinct.
        assert_eq!(c1, 22);
    }
}
