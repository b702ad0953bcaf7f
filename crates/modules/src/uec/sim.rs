//! Monte-Carlo simulation of the universal error correction module
//! (paper §4.2.2, Fig. 9, Table 3).
//!
//! Checks are serialized: the error accumulates *while* the syndrome is
//! being read out check by check, which is exactly the flexibility-for-time
//! trade the UEC makes. Decoding uses the exact minimum-weight lookup table,
//! followed by a perfect round to resolve measurement-error-induced
//! miscorrections (the standard pseudothreshold methodology for small
//! codes).

use hetarch_exec::rare::{RareConfig, RareOutcome};
use hetarch_exec::{CancelToken, Cancelled, WorkerPool};
use hetarch_obs as obs;
use serde::{Deserialize, Serialize};

use crate::program::{CycleProgram, ProgramBuilder};

use hetarch_cells::UscChannel;
use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::decoder::LookupDecoder;
use hetarch_stab::pauli::{Pauli, PauliString};

use crate::uec::assign::{build_schedule, search_assignment, Assignment, CycleSchedule};

use std::collections::HashMap;

// UEC Monte-Carlo metrics, shared with the chained variant through
// `run_plain` (no-ops unless the `obs` feature is on and `HETARCH_OBS=1`).
static UEC_SHOTS: obs::Counter = obs::Counter::new("modules.uec.shots");
static UEC_FAILURES: obs::Counter = obs::Counter::new("modules.uec.failures");
static UEC_RUN_NS: obs::Histogram = obs::Histogram::new("modules.uec.run_ns");

/// Gate-level noise settings for the UEC study (§4.2: two-qubit gates at
/// 1%).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UecNoise {
    /// Two-qubit (CX) depolarizing probability.
    pub p2q: f64,
    /// Storage SWAP depolarizing probability.
    pub p_swap: f64,
    /// Classical readout flip probability.
    pub meas_flip: f64,
}

impl Default for UecNoise {
    /// §4.2 calibration: CX gates at 1%; the storage SWAP at 0.5% —
    /// per §3.1 its fidelity is limited only by the SWAP time and the
    /// transmon's T2, i.e. roughly half a full compute-compute gate's error.
    fn default() -> Self {
        UecNoise {
            p2q: 1e-2,
            p_swap: 5e-3,
            meas_flip: 0.0,
        }
    }
}

/// Results of a UEC Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UecResult {
    /// Logical error probability per QEC cycle.
    pub logical_error_rate: f64,
    /// Cycle duration (seconds).
    pub cycle_duration: f64,
    /// Shots simulated.
    pub shots: usize,
}

/// The UEC module simulator for one code on one USC.
#[derive(Clone, Debug)]
pub struct UecModule {
    code: StabilizerCode,
    assignment: Assignment,
    schedule: CycleSchedule,
    program: CycleProgram,
}

impl UecModule {
    /// Builds the module: searches the qubit assignment, builds the
    /// serialized schedule, and constructs the lookup decoder (weight cap
    /// `⌈d/2⌉` capped at 3 for table-size reasons).
    ///
    /// # Panics
    ///
    /// Panics if the code exceeds the USC capacity.
    pub fn new(code: StabilizerCode, usc: UscChannel, noise: UecNoise) -> Self {
        let assignment = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
        let schedule = build_schedule(&code, &assignment, &usc);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
        let decoder = LookupDecoder::new(&code, weight_cap);
        // Serialized extraction: one stabilizer per temporal step, in
        // schedule order.
        let groups: Vec<Vec<usize>> = schedule.checks.iter().map(|c| vec![c.stabilizer]).collect();
        let fault_table = first_order_words(&code, &groups);
        let program = compile(&code, &usc, noise, &schedule).finish(decoder, fault_table);
        UecModule {
            code,
            assignment,
            schedule,
            program,
        }
    }

    /// The code under test.
    pub fn code(&self) -> &StabilizerCode {
        &self.code
    }

    /// The serialized cycle schedule.
    pub fn schedule(&self) -> &CycleSchedule {
        &self.schedule
    }

    /// The chosen register assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Runs `shots` Monte-Carlo cycles and returns the per-cycle logical
    /// error rate.
    ///
    /// Shots are sharded over the global [`WorkerPool`]; shard boundaries
    /// and the per-shard RNG streams depend only on `(shots, seed)`, so the
    /// result is **bit-identical for every worker count** and across
    /// repeated runs. `shots == 0` reports a rate of zero.
    pub fn logical_error_rate(&self, shots: usize, seed: u64) -> UecResult {
        self.logical_error_rate_on(WorkerPool::global(), shots, seed)
    }

    /// As [`Self::logical_error_rate`] with an explicit worker pool.
    pub fn logical_error_rate_on(&self, pool: &WorkerPool, shots: usize, seed: u64) -> UecResult {
        match run_plain(
            &self.program,
            self.schedule.cycle_duration,
            pool,
            shots,
            seed,
            None,
        ) {
            Ok(result) => result,
            Err(Cancelled) => unreachable!("no token, no cancellation"),
        }
    }

    /// As [`Self::logical_error_rate_on`] with a cooperative
    /// [`CancelToken`] checked between shards; a fired token returns
    /// [`Cancelled`] instead of finishing the run. An uncancelled call is
    /// bit-identical to [`Self::logical_error_rate_on`].
    pub fn try_logical_error_rate_on(
        &self,
        pool: &WorkerPool,
        shots: usize,
        seed: u64,
        token: &CancelToken,
    ) -> Result<UecResult, Cancelled> {
        let duration = self.schedule.cycle_duration;
        run_plain(&self.program, duration, pool, shots, seed, Some(token))
    }

    /// Estimates the per-cycle logical error rate with the weight-stratified
    /// rare-event estimator (see [`hetarch_exec::rare`]) on the global
    /// [`WorkerPool`].
    ///
    /// Unlike [`Self::logical_error_rate`], this resolves deep-subthreshold
    /// rates far below `1/shots`: low-weight strata are enumerated exactly,
    /// higher ones conditionally sampled, and the report carries an explicit
    /// statistical sigma and truncation bound. The outcome is bit-identical
    /// for every worker count.
    pub fn logical_error_rate_rare(&self, config: RareConfig, seed: u64) -> RareOutcome {
        self.logical_error_rate_rare_on(WorkerPool::global(), config, seed)
    }

    /// As [`Self::logical_error_rate_rare`] with an explicit worker pool.
    pub fn logical_error_rate_rare_on(
        &self,
        pool: &WorkerPool,
        config: RareConfig,
        seed: u64,
    ) -> RareOutcome {
        match self.run_rare(pool, config, seed, None) {
            Ok(outcome) => outcome,
            Err(Cancelled) => unreachable!("no token, no cancellation"),
        }
    }

    /// As [`Self::logical_error_rate_rare_on`] with a cooperative
    /// [`CancelToken`] threaded into the stratified estimator: it is
    /// checked between shards of sampled strata and periodically inside
    /// enumerated ones.
    pub fn try_logical_error_rate_rare_on(
        &self,
        pool: &WorkerPool,
        config: RareConfig,
        seed: u64,
        token: &CancelToken,
    ) -> Result<RareOutcome, Cancelled> {
        self.run_rare(pool, config, seed, Some(token))
    }

    fn run_rare(
        &self,
        pool: &WorkerPool,
        config: RareConfig,
        seed: u64,
        token: Option<&CancelToken>,
    ) -> Result<RareOutcome, Cancelled> {
        let span = obs::span!(UEC_RUN_NS);
        let outcome = self.program.rare_rate(pool, config, seed, token)?;
        drop(span);
        UEC_SHOTS.add(outcome.report().total_shots as u64);
        Ok(outcome)
    }
}

/// Runs `shots` plain Monte-Carlo cycles of `program` under the UEC
/// metrics and reports the per-cycle logical error rate (zero for
/// `shots == 0`).
pub(crate) fn run_plain(
    program: &CycleProgram,
    cycle_duration: f64,
    pool: &WorkerPool,
    shots: usize,
    seed: u64,
    token: Option<&CancelToken>,
) -> Result<UecResult, Cancelled> {
    let span = obs::span!(UEC_RUN_NS);
    let failures = program.count_failures(pool, shots, seed, token)?;
    drop(span);
    UEC_SHOTS.add(shots as u64);
    UEC_FAILURES.add(failures as u64);
    Ok(UecResult {
        logical_error_rate: if shots == 0 {
            0.0
        } else {
            failures as f64 / shots as f64
        },
        cycle_duration,
        shots,
    })
}

/// Lists one serialized UEC cycle's fault sites, in the order a shot
/// visits them: per check, every data qubit's storage idle (plus its
/// compute exposure when involved), then each involved qubit's two storage
/// SWAPs and CX, then the check's readout.
fn compile(
    code: &StabilizerCode,
    usc: &UscChannel,
    noise: UecNoise,
    schedule: &CycleSchedule,
) -> ProgramBuilder {
    let n = code.num_qubits();
    let stabs = code.stabilizers();
    let mut program = ProgramBuilder::new(code);
    // Gate noise: the data-side marginal of two-qubit depolarizing noise.
    let p_sw = noise.p_swap * 4.0 / 15.0;
    let p_cx = noise.p2q * 4.0 / 15.0;
    for slot in &schedule.checks {
        let support: Vec<usize> = stabs[slot.stabilizer]
            .iter_support()
            .map(|(q, _)| q)
            .collect();
        let storage_uninvolved = usc.storage_idle.twirl_probs(slot.duration);
        let storage_involved = usc
            .storage_idle
            .twirl_probs((slot.duration - slot.exposure).max(0.0));
        let compute_exposure = usc.compute_idle.twirl_probs(slot.exposure);
        for q in 0..n {
            if support.contains(&q) {
                program.pauli(q, storage_involved);
                program.pauli(q, compute_exposure);
            } else {
                program.pauli(q, storage_uninvolved);
            }
        }
        for &q in &support {
            program.pauli(q, depolarizing(p_sw));
            program.pauli(q, depolarizing(p_sw));
            program.pauli(q, depolarizing(p_cx));
        }
        // X/Y on the ancilla flips its Z readout; each CX can also deposit
        // a flipping component (8 of 15 depolarizing terms).
        let anc_idle = usc.compute_idle.twirl_probs(slot.duration);
        let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(slot.weight as i32);
        let anc_flip = combine(
            combine(anc_idle.px + anc_idle.py, p_gate_anc),
            noise.meas_flip,
        );
        program.readout(slot.stabilizer, anc_flip);
    }
    program
}

/// The symmetric Pauli channel with probability `p` per Pauli.
pub(crate) fn depolarizing(p: f64) -> PauliProbs {
    PauliProbs {
        px: p,
        py: p,
        pz: p,
    }
}

/// Builds the first-order circuit-fault decoding table for a temporally
/// ordered syndrome extraction.
///
/// `temporal_groups` lists the stabilizer indices measured at each step, in
/// order. A single data-qubit fault occurring before step `k` is seen only
/// by the checks at steps ≥ k, producing a *partial* syndrome; this table
/// maps every such partial syndrome (and every single measurement flip) to
/// a correction of weight ≤ 1, so that **every** single circuit fault
/// decodes without a logical error — the property circuit-level decoding
/// gives the paper's Stim pipeline, recovered here for lookup decoding.
///
/// A fault's partial syndrome is its single-site syndrome masked to the
/// checks of steps ≥ k (DESIGN.md §5l).
pub fn first_order_table(
    code: &StabilizerCode,
    temporal_groups: &[Vec<usize>],
) -> HashMap<u64, PauliString> {
    let n = code.num_qubits();
    first_order_corrections(code, temporal_groups, |cause| match cause {
        Some(site) => PauliString::from_sparse(n, &[site]),
        None => PauliString::identity(n),
    })
}

/// [`first_order_table`] with each correction as its `(x, z)` words, for
/// codes of at most 64 qubits.
pub(crate) fn first_order_words(
    code: &StabilizerCode,
    temporal_groups: &[Vec<usize>],
) -> HashMap<u64, (u64, u64)> {
    first_order_corrections(code, temporal_groups, |cause| match cause {
        Some((q, p)) => {
            let (x, z) = p.xz();
            ((x as u64) << q, (z as u64) << q)
        }
        None => (0, 0),
    })
}

/// The first-order table with each symptom's correction made by
/// `correction` from its cause: a single-site fault, or `None` for the
/// identity.
fn first_order_corrections<C>(
    code: &StabilizerCode,
    temporal_groups: &[Vec<usize>],
    correction: impl Fn(Option<(usize, Pauli)>) -> C,
) -> HashMap<u64, C> {
    let n = code.num_qubits();
    let stabs = code.stabilizers();
    // Gather every single fault's symptom, then resolve: a symptom claimed
    // by exactly one correction decodes to it; a symptom shared by several
    // distinct faults (or by a measurement flip, which wants "identity")
    // decodes to identity — the weight <= 1 residual is then fixed exactly
    // by the perfect round, so *every* single fault is harmless.
    let mut claims: HashMap<u64, Claim> = HashMap::new();
    let mut claim = |symptom: u64, cause: Option<(usize, Pauli)>| {
        claims
            .entry(symptom)
            .and_modify(|c| {
                if *c != Claim::Unique(cause) {
                    *c = Claim::Ambiguous;
                }
            })
            .or_insert(Claim::Unique(cause));
    };
    // Single measurement flips want the identity correction.
    for s in 0..stabs.len() {
        claim(1u64 << s, None);
    }
    // Checks measured at step k or later, for each step k.
    let mut suffix_masks = vec![0u64; temporal_groups.len()];
    let mut later = 0u64;
    for (mask, group) in suffix_masks.iter_mut().zip(temporal_groups).rev() {
        later |= group.iter().fold(0u64, |m, &s| m | (1 << s));
        *mask = later;
    }
    let sites: Vec<((usize, Pauli), u64)> = (0..n)
        .flat_map(|q| [Pauli::X, Pauli::Y, Pauli::Z].map(|p| ((q, p), code.site_syndrome(q, p))))
        .collect();
    for mask in suffix_masks {
        for &(site, syndrome) in &sites {
            claim(syndrome & mask, Some(site));
        }
    }
    let mut table: HashMap<u64, C> = claims
        .into_iter()
        .filter(|&(symptom, _)| symptom != 0)
        .map(|(symptom, c)| {
            let cause = match c {
                Claim::Unique(cause) => cause,
                Claim::Ambiguous => None,
            };
            (symptom, correction(cause))
        })
        .collect();
    table.insert(0, correction(None));
    table
}

/// Who claims one symptom in [`first_order_table`]: a single cause (a
/// one-site fault, or `None` for a measurement flip), or several.
#[derive(Clone, Copy, PartialEq)]
enum Claim {
    Unique(Option<(usize, Pauli)>),
    Ambiguous,
}

pub(crate) fn combine(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_stab::codes::{rotated_surface_code, steane};

    fn usc(ts: f64) -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(ts),
        )
        .unwrap()
        .characterize()
    }

    #[test]
    fn noiseless_uec_never_fails() {
        let noise = UecNoise {
            p2q: 0.0,
            p_swap: 0.0,
            meas_flip: 0.0,
        };
        // Effectively infinite coherence everywhere.
        let ch = UscCell::new(
            coherence_limited_compute(1e3),
            coherence_limited_storage(1e3),
        )
        .unwrap()
        .characterize();
        let m = UecModule::new(steane(), ch, noise);
        let r = m.logical_error_rate(500, 3);
        assert_eq!(r.logical_error_rate, 0.0);
    }

    #[test]
    fn longer_storage_reduces_logical_error() {
        let noise = UecNoise::default();
        let short = UecModule::new(steane(), usc(0.5e-3), noise).logical_error_rate(4000, 7);
        let long = UecModule::new(steane(), usc(50e-3), noise).logical_error_rate(4000, 7);
        assert!(
            long.logical_error_rate < short.logical_error_rate,
            "Ts=50ms ({}) should beat Ts=0.5ms ({})",
            long.logical_error_rate,
            short.logical_error_rate
        );
    }

    #[test]
    fn cycle_duration_reported() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let r = m.logical_error_rate(10, 1);
        assert!(
            r.cycle_duration > 5e-6 && r.cycle_duration < 50e-6,
            "cycle duration {}",
            r.cycle_duration
        );
    }

    #[test]
    fn surface_code_runs_on_uec() {
        let m = UecModule::new(rotated_surface_code(3), usc(50e-3), UecNoise::default());
        let r = m.logical_error_rate(2000, 11);
        assert!(r.logical_error_rate < 0.2, "rate {}", r.logical_error_rate);
    }

    #[test]
    fn results_deterministic_for_seed() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let a = m.logical_error_rate(1000, 42);
        let b = m.logical_error_rate(1000, 42);
        assert_eq!(a.logical_error_rate, b.logical_error_rate);
    }

    #[test]
    fn word_table_matches_pauli_string_table() {
        for code in [steane(), rotated_surface_code(3), rotated_surface_code(5)] {
            let serial: Vec<Vec<usize>> = (0..code.stabilizers().len()).map(|s| vec![s]).collect();
            let layered = vec![(0..code.stabilizers().len()).collect::<Vec<_>>()];
            for groups in [serial, layered] {
                let words = first_order_words(&code, &groups);
                let table = first_order_table(&code, &groups);
                assert_eq!(words.len(), table.len());
                for (s, c) in &table {
                    assert_eq!(words[s], (c.x_word(0), c.z_word(0)), "{}", code.name());
                }
            }
        }
    }

    #[test]
    fn every_single_circuit_fault_is_corrected() {
        // The first-order table's promise, checked through the compiled
        // cycle: any one fault, at any site, with any variant, decodes
        // without a logical error, and every replay visits every site.
        for code in [steane(), rotated_surface_code(3)] {
            let m = UecModule::new(code, usc(1e-3), UecNoise::default());
            let sites = m.program.sites();
            let mut driver = crate::faults::ForcedFaults::new(sites.len(), &[]);
            for (i, site) in sites.iter().enumerate() {
                for v in 0..site.variant_count() {
                    driver.reset(&[(i, v)]);
                    assert!(!m.program.run(&mut driver), "site {i} variant {v}");
                    assert_eq!(driver.sites_visited(), sites.len());
                }
            }
        }
    }

    #[test]
    fn rare_estimator_tracks_plain_estimator() {
        // At the default (high) noise the plain estimator is a trustworthy
        // oracle; the stratified estimate must agree within combined error
        // bars.
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let shots = 20_000;
        let plain = m.logical_error_rate(shots, 17).logical_error_rate;
        let plain_sigma = (plain * (1.0 - plain) / shots as f64).sqrt();
        let config = RareConfig {
            max_strata: 24,
            rel_tol: 0.02,
            shots_per_stratum: 4_000,
            ..RareConfig::default()
        };
        let outcome = m.logical_error_rate_rare(config, 19);
        let report = outcome.report();
        assert!(report.p_l > 0.0, "default noise must fail sometimes");
        let tolerance = 5.0 * (plain_sigma + report.sigma) + report.truncation_bound;
        assert!(
            (report.p_l - plain).abs() <= tolerance,
            "stratified {} vs plain {plain} (tolerance {tolerance})",
            report.p_l
        );
    }

    #[test]
    fn rare_estimator_is_worker_count_invariant() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let config = RareConfig {
            max_strata: 4,
            rel_tol: 0.5,
            shots_per_stratum: 1_024,
            enumerate_threshold: 64,
            ..RareConfig::default()
        };
        let reports: Vec<_> = [1usize, 3, 8]
            .iter()
            .map(|&w| {
                let pool = WorkerPool::new(w);
                m.logical_error_rate_rare_on(&pool, config, 23)
                    .into_report()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }
}
