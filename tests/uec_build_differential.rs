//! Differential suite for UEC module construction (DESIGN.md §5l).
//!
//! `UecModule::new` builds a minimum-weight lookup table, a first-order
//! circuit-fault table and a register assignment from single-site
//! syndromes and bit masks. Each must be **identical** — not merely
//! equivalent — to the direct algorithm kept in
//! [`hetarch::testkit::uec_oracle`]: the same syndromes covered, the same
//! correction for every syndrome, the same register for every qubit.

use hetarch::modules::uec::search_assignment;
use hetarch::modules::uec::sim::first_order_table;
use hetarch::stab::codes::{
    color_17, reed_muller_15, repetition_code, rotated_surface_code, steane, StabilizerCode,
};
use hetarch::stab::decoder::LookupDecoder;
use hetarch::testkit::uec_oracle;
use proptest::prelude::*;

fn codes() -> Vec<StabilizerCode> {
    vec![
        steane(),
        color_17(),
        reed_muller_15(),
        rotated_surface_code(3),
        rotated_surface_code(4),
        rotated_surface_code(5),
        repetition_code(7),
    ]
}

fn assert_lookup_matches(code: &StabilizerCode, max_weight: usize) {
    let oracle = uec_oracle::lookup_table(code, max_weight);
    let decoder = LookupDecoder::new(code, max_weight);
    let name = code.name();
    assert_eq!(
        decoder.coverage(),
        oracle.len(),
        "{name} w≤{max_weight}: coverage"
    );
    for (&syndrome, correction) in &oracle {
        assert_eq!(
            &decoder.decode_bits(syndrome),
            correction,
            "{name} w≤{max_weight}: correction of syndrome {syndrome:#x}"
        );
    }
}

#[test]
fn lookup_tables_match_breadth_first_oracle() {
    for code in codes() {
        for max_weight in 0..=3 {
            assert_lookup_matches(&code, max_weight);
        }
    }
    assert_lookup_matches(&rotated_surface_code(4), 4);
}

/// One check per step, in stabilizer order or reversed, and two layers
/// splitting the checks in half.
fn fixed_groupings(r: usize) -> Vec<Vec<Vec<usize>>> {
    let serial: Vec<Vec<usize>> = (0..r).map(|s| vec![s]).collect();
    let reversed: Vec<Vec<usize>> = serial.iter().rev().cloned().collect();
    let two_layers = vec![(0..r / 2).collect(), (r / 2..r).collect()];
    vec![serial, reversed, two_layers]
}

fn assert_fault_table_matches(code: &StabilizerCode, groups: &[Vec<usize>]) {
    assert_eq!(
        first_order_table(code, groups),
        uec_oracle::first_order_table(code, groups),
        "{} with temporal groups {groups:?}",
        code.name()
    );
}

#[test]
fn fault_tables_match_candidate_list_oracle() {
    for code in codes() {
        for groups in fixed_groupings(code.stabilizers().len()) {
            assert_fault_table_matches(&code, &groups);
        }
    }
}

/// Splits the stabilizers `0..r`, ordered by `keys`, into consecutive
/// groups, starting a new group after position `i` when `cuts[i]` is 1.
fn permuted_groups(r: usize, keys: &[u64], cuts: &[u8]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..r).collect();
    order.sort_by_key(|&s| keys[s]);
    let mut groups = vec![Vec::new()];
    for (i, s) in order.into_iter().enumerate() {
        groups.last_mut().expect("non-empty").push(s);
        if cuts[i] == 1 && i + 1 < r {
            groups.push(Vec::new());
        }
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any order and grouping of the checks gives the oracle's table.
    fn fault_tables_match_oracle_under_random_groupings(
        code_index in 0usize..7,
        keys in proptest::collection::vec(0u64..u64::MAX, 24),
        cuts in proptest::collection::vec(0u8..2, 24),
    ) {
        let code = &codes()[code_index];
        let groups = permuted_groups(code.stabilizers().len(), &keys, &cuts);
        prop_assert_eq!(
            first_order_table(code, &groups),
            uec_oracle::first_order_table(code, &groups)
        );
    }
}

#[test]
fn assignments_match_materialising_oracle() {
    // d=6 fills 3×12 exactly, so the hill climb tries moves into full
    // registers and must undo each of them, as the oracle does.
    let cases = codes()
        .into_iter()
        .flat_map(|code| [(3, 10), (2, 15), (3, 12)].map(|shape| (code.clone(), shape)))
        .chain([(rotated_surface_code(6), (3, 12))]);
    for (code, (registers, modes)) in cases {
        let assignment = search_assignment(&code, registers, modes);
        let oracle = uec_oracle::search_assignment(&code, registers, modes);
        let chosen: Vec<u32> = (0..code.num_qubits())
            .map(|q| assignment.register_of(q))
            .collect();
        let name = code.name();
        assert_eq!(chosen, oracle, "{name} on {registers}×{modes}");
        for r in 0..registers {
            let held = chosen.iter().filter(|&&c| c == r).count();
            assert!(
                held <= modes as usize,
                "{name} on {registers}×{modes}: register {r} holds {held} qubits"
            );
        }
        assert_eq!(
            assignment.cost(&code),
            uec_oracle::assignment_cost(&code, registers, &oracle),
            "{name} on {registers}×{modes}: cost"
        );
    }
}
