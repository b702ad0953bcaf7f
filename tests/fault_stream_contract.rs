//! The plain Monte-Carlo driver's stream contract (DESIGN.md §5m).
//!
//! UEC-family cycles compile each Pauli fault site to exact integer
//! thresholds. `RngFaults` must still deposit the same Pauli, and consume
//! the same draws, as the floating-point sampling the shot bodies used
//! before — kept as the oracle `uec_oracle::sample_pauli_into` — so that
//! every seed's failure count is unchanged.

use hetarch::modules::faults::{FaultDriver, PauliSite, RngFaults};
use hetarch::prelude::*;
use hetarch::testkit::uec_oracle::sample_pauli_into;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runs `draws` sites of channel `probs` on qubit `q` through `RngFaults`
/// and through the oracle from the same seed; the deposited Paulis must
/// agree site by site and the two streams must end aligned.
fn assert_stream_matches(q: usize, probs: PauliProbs, seed: u64, draws: usize) {
    let site = PauliSite::new(q, probs);
    let mut compiled = RngFaults::new(StdRng::seed_from_u64(seed));
    let mut oracle = StdRng::seed_from_u64(seed);
    for i in 0..draws {
        let fired = compiled.pauli_site(&site);
        let mut error = PauliString::identity(q + 1);
        sample_pauli_into(&mut error, q, probs, &mut oracle);
        assert_eq!(fired, error.get(q), "{probs:?}, seed {seed}, site {i}");
    }
    assert_eq!(
        compiled.into_inner().next_u64(),
        oracle.next_u64(),
        "{probs:?}, seed {seed}: streams diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Random channels, with any subset of the three components zeroed
    /// (including the all-zero channel, which must draw nothing).
    #[test]
    fn rng_faults_match_float_sampling(
        px in 0.0f64..0.4,
        py in 0.0f64..0.4,
        pz in 0.0f64..0.4,
        zeroed in 0u8..8,
        q in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        let keep = |bit: u8, p: f64| if zeroed & bit == 0 { p } else { 0.0 };
        let probs = PauliProbs { px: keep(1, px), py: keep(2, py), pz: keep(4, pz) };
        assert_stream_matches(q, probs, seed, 256);
    }
}

#[test]
fn degenerate_channels_match_float_sampling() {
    let ulp = 1.0 / (1u64 << 53) as f64;
    for (px, py, pz) in [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.5, 0.5, 0.5),
        (ulp, ulp, ulp),
        (5e-324, 0.0, 0.0),
        (1.0 - ulp, 0.0, ulp),
        (-0.1, 0.05, 0.1),
    ] {
        assert_stream_matches(3, PauliProbs { px, py, pz }, 17, 512);
    }
}

/// A mixed sequence of Pauli and flip sites through one driver, against
/// the oracle plus a raw `f64` flip draw: the interleaving keeps the
/// streams aligned.
#[test]
fn mixed_pauli_and_flip_sites_stay_aligned() {
    let channels = [
        PauliProbs {
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        },
        PauliProbs {
            px: 0.02,
            py: 0.0,
            pz: 0.005,
        },
        PauliProbs {
            px: 0.0,
            py: 0.0,
            pz: 0.0,
        },
    ];
    let sites = channels.map(|p| PauliSite::new(0, p));
    let mut driver = RngFaults::new(StdRng::seed_from_u64(99));
    let mut oracle = StdRng::seed_from_u64(99);
    for _ in 0..2000 {
        let mut x = false;
        for site in &sites {
            x ^= driver.pauli_site(site).xz().0;
        }
        let via_driver = driver.flip_site(0.03) || x;

        let mut error = PauliString::identity(1);
        for probs in channels {
            sample_pauli_into(&mut error, 0, probs, &mut oracle);
        }
        let direct = oracle.gen::<f64>() < 0.03 || error.get(0).xz().0;
        assert_eq!(via_driver, direct);
    }
    assert_eq!(driver.into_inner().next_u64(), oracle.next_u64());
}
