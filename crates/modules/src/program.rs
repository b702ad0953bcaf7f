//! One QEC cycle of a UEC-family module compiled to a flat fault-site
//! program (DESIGN.md §5m).
//!
//! `UecModule`, `ChainUecModule` and `HomModule` differ only in *which*
//! fault sites a cycle visits and in what order; the order never depends on
//! sampled outcomes. Each module therefore lists its sites once, at
//! construction, into a [`CycleProgram`]: Pauli sites on one data qubit
//! with exact integer thresholds, and stabilizer readouts with a flip
//! probability. One interpreter, [`CycleProgram::run`], executes that list
//! over a single `u64` x mask and z mask and then decodes through one
//! allocation-free tail, for every [`FaultDriver`]: plain Monte Carlo and
//! the forced-fault replays of the rare-event estimator alike.

use std::collections::HashMap;

use hetarch_exec::rare::{RareConfig, RareOutcome};
use hetarch_exec::{CancelToken, Cancelled, Shard, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::decoder::LookupDecoder;
use hetarch_stab::pauli::PauliString;

use crate::faults::{try_stratified_rate, FaultDriver, PauliSite, RngFaults, SiteProbs};

/// Shots per shard of every module Monte-Carlo loop. Fixed (never derived
/// from the worker count) so shard boundaries — and therefore results —
/// are identical for every worker count.
pub(crate) const MC_SHARD_SHOTS: usize = 512;

/// A compiled QEC cycle: its fault sites in visit order, plus the decoder
/// that judges the final error.
#[derive(Clone, Debug)]
pub(crate) struct CycleProgram {
    /// Pauli sites in visit order.
    sites: Vec<PauliSite>,
    /// Readouts in visit order; readout `r` follows `sites[..r.after]`.
    readouts: Vec<Readout>,
    /// Every fault site, Pauli and flip, in visit order: the table the
    /// rare-event estimator indexes.
    table: Vec<SiteProbs>,
    decode: DecodeTail,
}

/// A stabilizer measurement: the error's overlap with `(x, z)` sets
/// syndrome `bit`, and a classical flip of probability `p` toggles it.
#[derive(Clone, Copy, Debug)]
struct Readout {
    x: u64,
    z: u64,
    bit: u64,
    p: f64,
    after: usize,
}

/// The decode tail shared by every UEC-family module, on packed words.
#[derive(Clone, Debug)]
struct DecodeTail {
    /// First-order circuit-fault table ([`crate::uec::sim::first_order_table`]):
    /// measured syndrome → correction `(x, z)`.
    first_order: HashMap<u64, (u64, u64)>,
    decoder: LookupDecoder,
    /// Stabilizer generators as `(x, z)` masks, in syndrome-bit order.
    stabilizers: Vec<(u64, u64)>,
    /// Logical X then logical Z operators as `(x, z)` masks.
    logicals: Vec<(u64, u64)>,
}

/// Collects a cycle's fault sites in visit order.
pub(crate) struct ProgramBuilder {
    sites: Vec<PauliSite>,
    readouts: Vec<Readout>,
    table: Vec<SiteProbs>,
    stabilizers: Vec<(u64, u64)>,
    logicals: Vec<(u64, u64)>,
}

/// Packs a Pauli string on at most 64 qubits into its `(x, z)` words.
fn words(p: &PauliString) -> (u64, u64) {
    (p.x_word(0), p.z_word(0))
}

/// True when the Paulis with masks `(x1, z1)` and `(x2, z2)` anticommute.
#[inline]
fn anticommutes(x1: u64, z1: u64, x2: u64, z2: u64) -> bool {
    ((x1 & z2) ^ (z1 & x2)).count_ones() & 1 == 1
}

impl ProgramBuilder {
    /// Starts a program for `code`.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits: the error lives in one
    /// `u64` word per Pauli component.
    pub(crate) fn new(code: &StabilizerCode) -> Self {
        let n = code.num_qubits();
        assert!(n <= 64, "a cycle program holds at most 64 qubits, got {n}");
        let k = code.num_logical();
        ProgramBuilder {
            sites: Vec::new(),
            readouts: Vec::new(),
            table: Vec::new(),
            stabilizers: code.stabilizers().iter().map(words).collect(),
            logicals: code.logical_x()[..k]
                .iter()
                .chain(&code.logical_z()[..k])
                .map(words)
                .collect(),
        }
    }

    /// Appends a Pauli fault site on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is not finite.
    pub(crate) fn pauli(&mut self, q: usize, probs: PauliProbs) {
        self.sites.push(PauliSite::new(q, probs));
        self.table.push(SiteProbs::Pauli(probs));
    }

    /// Appends the readout of stabilizer `s` with classical flip
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not finite.
    pub(crate) fn readout(&mut self, s: usize, p: f64) {
        assert!(p.is_finite(), "flip probability {p} is not finite");
        let (x, z) = self.stabilizers[s];
        self.readouts.push(Readout {
            x,
            z,
            bit: 1 << s,
            p,
            after: self.sites.len(),
        });
        self.table.push(SiteProbs::Flip(p));
    }

    /// Finishes the program with its decoder and first-order fault table
    /// ([`crate::uec::sim::first_order_words`]).
    pub(crate) fn finish(
        self,
        decoder: LookupDecoder,
        first_order: HashMap<u64, (u64, u64)>,
    ) -> CycleProgram {
        CycleProgram {
            sites: self.sites,
            readouts: self.readouts,
            table: self.table,
            decode: DecodeTail {
                first_order,
                decoder,
                stabilizers: self.stabilizers,
                logicals: self.logicals,
            },
        }
    }
}

impl CycleProgram {
    /// Every fault site, Pauli and flip, in visit order.
    pub(crate) fn sites(&self) -> &[SiteProbs] {
        &self.table
    }

    /// Runs one cycle against `driver`; returns whether it ends in a
    /// logical failure.
    pub(crate) fn run<D: FaultDriver>(&self, driver: &mut D) -> bool {
        let (mut x, mut z, mut syndrome) = (0u64, 0u64, 0u64);
        let mut start = 0;
        for r in &self.readouts {
            apply_sites(&self.sites[start..r.after], driver, &mut x, &mut z);
            start = r.after;
            if anticommutes(x, z, r.x, r.z) ^ driver.flip_site(r.p) {
                syndrome |= r.bit;
            }
        }
        apply_sites(&self.sites[start..], driver, &mut x, &mut z);
        self.decode.fails(x, z, syndrome)
    }

    /// Counts failed cycles among `shots` plain Monte-Carlo shots, sharded
    /// over `pool` at [`MC_SHARD_SHOTS`] with per-shard seeds derived from
    /// `seed`. With a `token`, it is checked between shards.
    pub(crate) fn count_failures(
        &self,
        pool: &WorkerPool,
        shots: usize,
        seed: u64,
        token: Option<&CancelToken>,
    ) -> Result<usize, Cancelled> {
        let body = |shard: &Shard| {
            let mut driver = RngFaults::new(StdRng::seed_from_u64(shard.seed));
            (0..shard.len).filter(|_| self.run(&mut driver)).count()
        };
        let add = |acc: usize, f: usize| acc + f;
        match token {
            None => Ok(pool.fold_shards(shots, MC_SHARD_SHOTS, seed, body, 0, add)),
            Some(t) => pool.try_fold_shards(shots, MC_SHARD_SHOTS, seed, t, body, 0, add),
        }
    }

    /// Runs the weight-stratified rare-event estimator over this program's
    /// site table; see [`crate::faults::stratified_rate`].
    pub(crate) fn rare_rate(
        &self,
        pool: &WorkerPool,
        config: RareConfig,
        seed: u64,
        token: Option<&CancelToken>,
    ) -> Result<RareOutcome, Cancelled> {
        try_stratified_rate(
            pool,
            self.sites(),
            config,
            seed,
            MC_SHARD_SHOTS,
            token,
            |driver| self.run(driver),
        )
    }
}

/// Visits `sites` in order, XOR-ing each Pauli the driver fires into the
/// error masks `(x, z)`.
#[inline]
fn apply_sites<D: FaultDriver>(sites: &[PauliSite], driver: &mut D, x: &mut u64, z: &mut u64) {
    for site in sites {
        let (px, pz) = driver.pauli_site(site).xz();
        if px {
            *x ^= site.bit();
        }
        if pz {
            *z ^= site.bit();
        }
    }
}

impl DecodeTail {
    /// Packed syndrome of the error `(x, z)`.
    #[inline]
    fn syndrome(&self, x: u64, z: u64) -> u64 {
        self.stabilizers
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &(sx, sz))| {
                acc | ((anticommutes(x, z, sx, sz) as u64) << i)
            })
    }

    /// Decodes the measured `syndrome` of the error `(x, z)` with the
    /// first-order table (falling back to the lookup decoder), then resolves
    /// any leftover syndrome with a perfect round. The cycle fails if the
    /// final error has a non-zero syndrome or anticommutes with a logical.
    ///
    /// Both tables map syndrome 0 to the identity, so an error-free,
    /// flip-free cycle returns before any lookup.
    fn fails(&self, x: u64, z: u64, syndrome: u64) -> bool {
        if x | z | syndrome == 0 {
            return false;
        }
        let (cx, cz) = match syndrome {
            0 => (0, 0),
            s => match self.first_order.get(&s) {
                Some(&c) => c,
                None => self.decoder.decode_word(s),
            },
        };
        let (rx, rz) = (x ^ cx, z ^ cz);
        let (dx, dz) = match self.syndrome(rx, rz) {
            0 => (0, 0),
            s => self.decoder.decode_word(s),
        };
        let (fx, fz) = (rx ^ dx, rz ^ dz);
        self.syndrome(fx, fz) != 0
            || self
                .logicals
                .iter()
                .any(|&(lx, lz)| anticommutes(fx, fz, lx, lz))
    }
}
