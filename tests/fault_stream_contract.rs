//! The plain Monte-Carlo driver's stream contract (DESIGN.md §5m).
//!
//! UEC-family cycles compile each Pauli fault site to exact integer
//! thresholds. `RngFaults` must still deposit the same Pauli, and consume
//! the same draws, as the floating-point sampling the shot bodies used
//! before — kept as the oracle `uec_oracle::sample_pauli_into` — so that
//! every seed's failure count is unchanged.
//!
//! The rare-event estimator's `ConditionalSampler` makes the same move for
//! its conditioned subset walk (DESIGN.md §5h): it must return the same
//! subset, from the same number of draws, as the floating-point walk kept
//! as the oracle `rare_oracle::FloatConditionalSampler`.

use hetarch::exec::rare::ConditionalSampler;
use hetarch::modules::faults::{FaultDriver, PauliSite, RngFaults};
use hetarch::prelude::*;
use hetarch::testkit::rare_oracle::FloatConditionalSampler;
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

/// Draws `shots` weight-`weight` subsets of `probs` through the threshold
/// walk and through the float oracle from the same seed; the subsets must
/// agree shot by shot and the two streams must end aligned.
fn assert_subsets_match(probs: &[f64], weight: usize, seed: u64, shots: usize) {
    let sampler = ConditionalSampler::new(probs, weight);
    let oracle = FloatConditionalSampler::new(probs, weight);
    assert_eq!(
        sampler.is_feasible(),
        oracle.is_feasible(),
        "{probs:?}, weight {weight}: feasibility differs"
    );
    if !sampler.is_feasible() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let (mut subset, mut expect) = (Vec::new(), Vec::new());
    for shot in 0..shots {
        sampler.sample_into(|| rng.next_u64(), &mut subset);
        oracle.sample_into(&mut || oracle_rng.gen::<f64>(), &mut expect);
        assert_eq!(
            subset, expect,
            "{probs:?}, weight {weight}, seed {seed}, shot {shot}"
        );
    }
    assert_eq!(
        rng.next_u64(),
        oracle_rng.next_u64(),
        "{probs:?}, weight {weight}, seed {seed}: streams diverged"
    );
}

/// One site probability: ordinary, tiny, or one of the edge values the
/// integer thresholds must get exactly right.
fn site_probability() -> impl Strategy<Value = f64> {
    let ulp = 1.0 / (1u64 << 53) as f64;
    prop_oneof![
        0.0f64..0.3,
        1e-9f64..1e-3,
        Just(0.0),
        Just(1.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 2.0),
        Just(ulp),
        Just(1.0 - ulp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Random probability vectors mixing ordinary values with 0, 1 (forced
    /// sites), subnormals, `2⁻⁵³` and `1 − 2⁻⁵³`, at every weight up to
    /// `min(n, 8)`.
    #[test]
    fn threshold_walk_matches_float_walk(
        probs in proptest::collection::vec(site_probability(), 1..40),
        seed in 0u64..1_000_000,
    ) {
        for weight in 0..=probs.len().min(8) {
            assert_subsets_match(&probs, weight, seed, 64);
        }
    }
}

#[test]
fn threshold_walk_matches_float_walk_on_surface_sites() {
    // The fault sites of the deep-subthreshold d=5 memory: 478 sites, at
    // the weights the rare-event estimator samples.
    let circuit = SurfaceMemory::new(
        5,
        2,
        SurfaceNoise {
            t_data: 10.0,
            t_anc: 10.0,
            p1: 2e-5,
            p2: 2e-4,
            p_meas: 1e-4,
            ..SurfaceNoise::default()
        },
    )
    .circuit();
    let model = hetarch::stab::frame::FaultModel::from_circuit(&circuit);
    for weight in 1..=6 {
        assert_subsets_match(model.trigger_probs(), weight, 11 + weight as u64, 256);
    }
}
