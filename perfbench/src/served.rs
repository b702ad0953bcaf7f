//! `served_dse`: an in-process query server answering one closed-loop
//! client that runs a seeded design-space query script.
//!
//! The script mixes, per block of 20 queries: 11 `sweep_uec` over
//! distances [3, 5] × two storage coherences from a fixed set of four
//! (characterization-cache hits), 3 of the same with one coherence drawn
//! fresh (a miss that runs density-matrix characterization), 2
//! `calib_sweep` against the committed fleet snapshot, 2 exact repeats of
//! a recent query (result-cache hits) and 2 `rare_uec`. Every query but a
//! repeat carries a fresh seed.

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use hetarch::cells::{CellLibrary, UscCell};
use hetarch::devices::calib::CalibSnapshot;
use hetarch::devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch::dse::pareto_front;
use hetarch::exec::{CancelToken, WorkerPool};
use hetarch::modules::uec::sim::first_order_table;
use hetarch::modules::uec::{build_schedule, search_assignment, UecModule, UecNoise};
use hetarch::obs::{self, RunReport};
use hetarch::serve::json::{self, Json};
use hetarch::serve::server::ok_response;
use hetarch::serve::{evaluate, parse_query, Client, Query, Server, ServerConfig};
use hetarch::stab::codes::rotated_surface_code;
use hetarch::stab::decoder::LookupDecoder;

use crate::cells::{library_metrics, traced_get};
use crate::trace::{Tracer, OP, PROBE};
use crate::{op_seed, per_call_us, per_op_ms, unobserved, Ctx, Metrics, OpOutcome, Rng};
use crate::{Verdict, Workload};

/// The fleet snapshot `calib_sweep` queries carry, read at set-up.
const FIXTURE: &str = "tests/fixtures/fleet_calib_v1.json";
/// Compute coherence the server pins for every query.
const COMPUTE_TC: f64 = 0.5e-3;
/// The fixed storage coherences (seconds) cache-hitting sweeps draw from.
const FIXED_TS: [f64; 4] = [1e-3, 3e-3, 10e-3, 30e-3];
/// Range (seconds) of the fresh coherence in a cache-missing sweep.
const FRESH_TS: (f64, f64) = (1e-3, 30e-3);
const DISTANCES: [u32; 2] = [3, 5];
/// Shots per sweep point: with them a sweep computes for 70–140 ms across
/// the host's speed swings. The server answers a query that computes past
/// its 50 ms liveness poll only at the next 100 ms mark, so a sweep
/// computing near 50 ms would read 50 or 100 ms depending on the host's
/// speed; from 100 ms on the latency follows the compute time again.
const SWEEP_SHOTS: i64 = 6144;
const RARE_MAX_STRATA: i64 = 4;
const RARE_SHOTS_PER_STRATUM: i64 = 512;
/// Shots of the warm-up queries.
const WARMUP_SHOTS: i64 = 64;
/// Repeats pick among this many most recent distinct queries (all still
/// in the server's result cache).
const RECENT: usize = 8;

#[derive(Clone, Copy)]
enum Kind {
    Sweep,
    SweepMiss,
    Calib,
    Repeat,
    Rare,
}

/// One block of the script, before shuffling.
const DECK: [Kind; 20] = {
    use Kind::*;
    [
        Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, Sweep, SweepMiss,
        SweepMiss, SweepMiss, Calib, Calib, Repeat, Repeat, Rare, Rare,
    ]
};

/// A query as sent, and the server's reply.
struct Exchange {
    body: String,
    reply: Vec<u8>,
}

pub struct ServedDse {
    server: Option<Server>,
    client: Option<Client>,
    seed: u64,
    calib_json: Json,
    /// Request bodies of the most recent distinct queries.
    recent: Vec<String>,
    /// Exchanges since the last verify.
    log: Vec<Exchange>,
    /// Verified reply bytes by query key.
    verified: HashMap<Vec<u8>, Vec<u8>>,
    /// Probe-side library and pool: the library sees the same lookups as
    /// the server's, so its hits and misses mirror the server's.
    probe_lib: CellLibrary,
    pool: WorkerPool,
    /// Server counters `(requests, cache hits)` when the traced phase began.
    traced_from: Option<(u64, u64)>,
}

fn ts_array(ts: &[f64]) -> Json {
    Json::Arr(ts.iter().map(|&t| Json::Num(t)).collect())
}

fn sweep_body(kind: &str, ts: &[f64], shots: i64, seed: u64, calib: Option<&Json>) -> String {
    let mut fields = vec![
        ("query", Json::Str(kind.to_string())),
        (
            "distances",
            Json::Arr(DISTANCES.iter().map(|&d| Json::Int(i64::from(d))).collect()),
        ),
        ("ts_values", ts_array(ts)),
        ("shots", Json::Int(shots)),
        ("seed", Json::Int((seed >> 2) as i64)),
    ];
    if let Some(calib) = calib {
        fields.push(("calib", calib.clone()));
    }
    Json::obj(fields).render()
}

fn rare_body(distance: u32, ts: f64, seed: u64) -> String {
    Json::obj([
        ("query", Json::Str("rare_uec".to_string())),
        ("distance", Json::Int(i64::from(distance))),
        ("ts", Json::Num(ts)),
        ("max_strata", Json::Int(RARE_MAX_STRATA)),
        ("shots_per_stratum", Json::Int(RARE_SHOTS_PER_STRATUM)),
        ("seed", Json::Int((seed >> 2) as i64)),
    ])
    .render()
}

/// Two distinct entries of the fixed coherence set.
fn two_fixed(rng: &mut Rng) -> [f64; 2] {
    let a = rng.below(FIXED_TS.len());
    let b = (a + 1 + rng.below(FIXED_TS.len() - 1)) % FIXED_TS.len();
    [FIXED_TS[a], FIXED_TS[b]]
}

/// Monte-Carlo shots a reply answers.
fn reply_shots(reply: &Json) -> Option<u64> {
    let result = reply.get("result")?;
    if let Some(total) = result.get("total_shots") {
        return total.as_u64();
    }
    let points = result.get("points")?.as_arr()?.len() as u64;
    Some(points * result.get("shots")?.as_u64()?)
}

impl ServedDse {
    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client connected")
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server running")
    }

    /// The kind of op `i`: block `i / 20` of the script is the deck
    /// shuffled with the block's own seed.
    fn kind(&self, i: u64) -> Kind {
        let mut deck = DECK;
        let mut rng = Rng::new(op_seed(!self.seed, i / DECK.len() as u64));
        for k in (1..deck.len()).rev() {
            deck.swap(k, rng.below(k + 1));
        }
        deck[(i % DECK.len() as u64) as usize]
    }

    /// The request body of op `i`.
    fn request(&mut self, i: u64) -> String {
        let kind = self.kind(i);
        let mut rng = Rng::new(op_seed(self.seed, i));
        let seed = rng.next_u64();
        let body = match kind {
            Kind::Sweep => sweep_body("sweep_uec", &two_fixed(&mut rng), SWEEP_SHOTS, seed, None),
            Kind::SweepMiss => {
                let fixed = FIXED_TS[rng.below(FIXED_TS.len())];
                let fresh = rng.log_uniform(FRESH_TS.0, FRESH_TS.1);
                sweep_body("sweep_uec", &[fixed, fresh], SWEEP_SHOTS, seed, None)
            }
            Kind::Calib => sweep_body(
                "calib_sweep",
                &two_fixed(&mut rng),
                SWEEP_SHOTS,
                seed,
                Some(&self.calib_json),
            ),
            Kind::Rare => rare_body(
                DISTANCES[rng.below(DISTANCES.len())],
                FIXED_TS[rng.below(FIXED_TS.len())],
                seed,
            ),
            Kind::Repeat => {
                let n = self.recent.len();
                return self.recent[n - 1 - rng.below(n)].clone();
            }
        };
        self.recent.push(body.clone());
        if self.recent.len() > RECENT {
            self.recent.remove(0);
        }
        body
    }

    fn exchange(&mut self, body: String) -> std::io::Result<()> {
        let reply = self.client().request_raw(body.as_bytes())?;
        self.log.push(Exchange { body, reply });
        Ok(())
    }

    /// Checks one reply: status `ok`, and the bytes identical to `evaluate`
    /// plus render on a fresh library (once per distinct query; later
    /// replies to the same query must repeat those bytes). Returns the
    /// Monte-Carlo shots the reply answers.
    fn check_reply(&mut self, ex: &Exchange) -> Option<u64> {
        let reply = json::parse(std::str::from_utf8(&ex.reply).ok()?).ok()?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return None;
        }
        let query = parse_query(&json::parse(&ex.body).ok()?).ok()?;
        let key = query.key().as_bytes().to_vec();
        if !self.verified.contains_key(&key) {
            let lib = CellLibrary::new();
            let value = evaluate(&query, &lib, &self.pool, &CancelToken::new()).ok()?;
            let bytes = ok_response(value).render().into_bytes();
            self.verified.insert(key.clone(), bytes);
        }
        (self.verified[&key] == ex.reply)
            .then(|| reply_shots(&reply))
            .flatten()
    }

    /// Rebuilds a compute query's result from the layers' public calls,
    /// inside the current probe span, and compares it with the reply.
    fn rebuild(&self, tr: &Tracer, query: &Query, result: &Json) -> bool {
        match query {
            Query::SweepUec {
                distances,
                ts_values,
                shots,
                seed,
            } => self.rebuild_sweep(
                tr,
                distances,
                ts_values,
                *shots,
                *seed,
                &CalibSnapshot::default(),
                result,
            ),
            Query::CalibSweep {
                distances,
                ts_values,
                shots,
                seed,
                calib,
            } => self.rebuild_sweep(tr, distances, ts_values, *shots, *seed, calib, result),
            Query::RareUec {
                distance, ts, seed, ..
            } => {
                let config = query.rare_config().expect("rare query");
                let module = self.build_module(tr, *distance, *ts, &CalibSnapshot::default());
                let outcome = tr.time("modules.uec.rare", || {
                    module.logical_error_rate_rare_on(&self.pool, config, *seed)
                });
                let r = outcome.report();
                let num = |k: &str| result.get(k).and_then(Json::as_f64).map(f64::to_bits);
                num("p_l") == Some(r.p_l.to_bits())
                    && num("sigma") == Some(r.sigma.to_bits())
                    && num("truncation_bound") == Some(r.truncation_bound.to_bits())
                    && result.get("total_shots").and_then(Json::as_u64)
                        == Some(r.total_shots as u64)
                    && result.get("converged") == Some(&Json::Bool(outcome.is_converged()))
            }
            _ => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rebuild_sweep(
        &self,
        tr: &Tracer,
        distances: &[u32],
        ts_values: &[f64],
        shots: u32,
        seed: u64,
        calib: &CalibSnapshot,
        result: &Json,
    ) -> bool {
        let Some(points) = result.get("points").and_then(Json::as_arr) else {
            return false;
        };
        let mut objectives = Vec::new();
        let mut ok = points.len() == distances.len() * ts_values.len();
        for (k, point) in points.iter().enumerate() {
            let d = distances[(k / ts_values.len()).min(distances.len() - 1)];
            let ts = ts_values[k % ts_values.len()];
            let module = self.build_module(tr, d, ts, calib);
            let r = tr.time("modules.uec.mc", || {
                module.logical_error_rate_on(&self.pool, shots as usize, seed)
            });
            let num = |k: &str| point.get(k).and_then(Json::as_f64).map(f64::to_bits);
            ok &= point.get("d").and_then(Json::as_u64) == Some(u64::from(d))
                && num("ts") == Some(ts.to_bits())
                && num("p_l") == Some(r.logical_error_rate.to_bits())
                && num("cycle_duration") == Some(r.cycle_duration.to_bits());
            objectives.push(vec![r.logical_error_rate, ts]);
        }
        let front = tr.time("dse.pareto", || pareto_front(&objectives));
        let front: Vec<Json> = front.into_iter().map(|i| Json::Int(i as i64)).collect();
        ok && result.get("pareto") == Some(&Json::Arr(front))
    }

    /// Characterizes (through the probe library) and builds the UEC module
    /// of one design point; beside the build, times the three public
    /// building blocks it is made of.
    fn build_module(&self, tr: &Tracer, d: u32, ts: f64, calib: &CalibSnapshot) -> UecModule {
        let compute = coherence_limited_compute(COMPUTE_TC);
        let storage = coherence_limited_storage(ts);
        let usc = traced_get(tr, &self.probe_lib, "cells.characterize.usc", || {
            self.probe_lib
                .get_with_calib::<UscCell>(&compute, &storage, calib)
        });
        let module = tr.time("modules.uec.build", || {
            UecModule::new(
                rotated_surface_code(d as usize),
                (*usc).clone(),
                UecNoise::default(),
            )
        });
        let code = rotated_surface_code(d as usize);
        let schedule = tr.time("modules.uec.assign", || {
            let assignment = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
            build_schedule(&code, &assignment, &usc)
        });
        tr.time("modules.uec.lookup_build", || {
            LookupDecoder::new(&code, code.distance().div_ceil(2).clamp(1, 3))
        });
        tr.time("modules.uec.fault_table", || {
            let groups: Vec<Vec<usize>> =
                schedule.checks.iter().map(|c| vec![c.stabilizer]).collect();
            first_order_table(&code, &groups)
        });
        module
    }

    /// Server-side queue wait and compute, in ns, from the server's
    /// histograms.
    fn server_ns(report: &RunReport) -> (u64, u64) {
        let sum = |name: &str| report.histograms.get(name).map_or(0, |h| h.sum);
        (sum("serve.queue_wait_ns"), sum("serve.compute_ns"))
    }
}

impl Drop for ServedDse {
    fn drop(&mut self) {
        // Hang up first so the connection handler exits, then drain.
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServedDse {
    const COUNT_OPS: u64 = DECK.len() as u64;

    fn setup(ctx: &Ctx) -> Self {
        let text = std::fs::read_to_string(FIXTURE)
            .unwrap_or_else(|e| panic!("cannot read {FIXTURE}: {e}"));
        let calib_json = json::parse(&text).expect("fixture is JSON");
        let calib = CalibSnapshot::from_json(&calib_json).expect("fixture is a valid snapshot");
        let server = Server::start(ServerConfig {
            workers: ctx.workers,
            executors: 1,
            ..ServerConfig::default()
        })
        .expect("server binds an ephemeral local port");
        let client = Client::connect(server.local_addr()).expect("client connects");
        let mut w = ServedDse {
            server: Some(server),
            client: Some(client),
            seed: ctx.seed,
            calib_json,
            recent: Vec::new(),
            log: Vec::new(),
            verified: HashMap::new(),
            probe_lib: CellLibrary::new(),
            pool: WorkerPool::new(ctx.workers),
            traced_from: None,
        };
        // Warm-up: characterize the fixed coherences, with and without the
        // snapshot, and run each query kind once.
        let warm_seed = op_seed(!ctx.seed, 0);
        let warmup = [
            sweep_body("sweep_uec", &FIXED_TS, WARMUP_SHOTS, warm_seed, None),
            sweep_body(
                "calib_sweep",
                &FIXED_TS,
                WARMUP_SHOTS,
                warm_seed,
                Some(&w.calib_json),
            ),
            rare_body(DISTANCES[0], FIXED_TS[0], warm_seed),
        ];
        for body in warmup {
            w.exchange(body.clone()).expect("warm-up query answered");
            w.recent.push(body);
        }
        let compute = coherence_limited_compute(COMPUTE_TC);
        for ts in FIXED_TS {
            let storage = coherence_limited_storage(ts);
            w.probe_lib.get::<UscCell>(&compute, &storage);
            w.probe_lib
                .get_with_calib::<UscCell>(&compute, &storage, &calib);
        }
        w
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let body = self.request(i);
        let ok = self.exchange(body).is_ok();
        // Shots are read from the replies when they are verified.
        OpOutcome { shots: 0, ok }
    }

    /// Checks every reply since the last call: status `ok`, and the bytes
    /// identical to `evaluate` plus render on a fresh library (once per
    /// distinct query; later replies to the same query must repeat those
    /// bytes).
    fn verify(&mut self) -> Verdict {
        let mut failed = 0;
        let mut shots = 0;
        for ex in std::mem::take(&mut self.log) {
            match self.check_reply(&ex) {
                Some(n) => shots += n,
                None => failed += 1,
            }
        }
        Verdict {
            failed_ops: failed,
            aggregate_ok: true,
            deferred_shots: shots,
        }
    }

    fn traced_op(&mut self, i: u64, tr: &Tracer) -> OpOutcome {
        if self.traced_from.is_none() {
            let stats = self.server().stats();
            self.traced_from = Some((stats.requests.load(Relaxed), stats.cache_hits.load(Relaxed)));
        }
        let body = self.request(i);
        let hits_before = self.server().stats().cache_hits.load(Relaxed);
        let (qw0, c0) = Self::server_ns(&obs::report());
        let sent_body = body.clone();
        let start = Instant::now();
        let (sent, op_span) = tr.time_id(OP, || self.exchange(sent_body));
        let (qw1, c1) = Self::server_ns(&obs::report());
        let queue_wait = Duration::from_nanos(qw1.saturating_sub(qw0));
        tr.record_under(Some(op_span), "serve.queue_wait", start, queue_wait);
        tr.record_under(
            Some(op_span),
            "serve.compute",
            start + queue_wait,
            Duration::from_nanos(c1.saturating_sub(c0)),
        );
        if sent.is_err() {
            return OpOutcome {
                shots: 0,
                ok: false,
            };
        }
        let reply = self.log.last().expect("logged").reply.clone();
        let cache_hit = self.server().stats().cache_hits.load(Relaxed) > hits_before;

        // Attribution probe: the op's layer calls, re-run beside it.
        let ok = unobserved(|| {
            tr.time(PROBE, || {
                let parsed = tr.time("serve.parse", || {
                    let request = json::parse(&body).ok()?;
                    let query = parse_query(&request).ok()?;
                    Some((request, query))
                });
                let Some((request, query)) = parsed else {
                    return false;
                };
                if let Some(calib) = request.get("calib") {
                    tr.time("devices.calib.parse", || {
                        CalibSnapshot::from_json(calib).ok()
                    });
                }
                tr.time("serve.key", || query.key());
                let Some(reply_json) = std::str::from_utf8(&reply)
                    .ok()
                    .and_then(|t| json::parse(t).ok())
                else {
                    return false;
                };
                let rendered = tr.time("serve.render", || reply_json.render());
                let Some(result) = reply_json.get("result") else {
                    return false;
                };
                rendered.as_bytes() == reply.as_slice()
                    && (cache_hit || self.rebuild(tr, &query, result))
            })
        });
        OpOutcome { shots: 0, ok }
    }

    fn layer_metrics(&self, tr: &Tracer, _report: &RunReport, out: &mut Metrics) {
        let st = tr.self_times();
        let ops = tr.op_wall().1;
        for (metric, span) in [
            ("modules.uec.assign_ms", "modules.uec.assign"),
            ("modules.uec.lookup_build_ms", "modules.uec.lookup_build"),
            ("modules.uec.fault_table_ms", "modules.uec.fault_table"),
            ("modules.uec.build_ms", "modules.uec.build"),
            ("modules.uec.mc_ms", "modules.uec.mc"),
            ("modules.uec.rare_ms", "modules.uec.rare"),
            ("serve.queue_wait_ms", "serve.queue_wait"),
            ("serve.compute_ms", "serve.compute"),
        ] {
            out.insert(metric, per_op_ms(&st, span, ops));
        }
        for (metric, span) in [
            ("dse.pareto_us", "dse.pareto"),
            ("devices.calib.parse_us", "devices.calib.parse"),
            ("serve.parse_us", "serve.parse"),
            ("serve.key_us", "serve.key"),
            ("serve.render_us", "serve.render"),
        ] {
            out.insert(metric, per_call_us(&st, span));
        }
        let (wall_ns, _) = tr.op_wall();
        let compute_ns = st.get("serve.compute").map_or(0.0, |v| v.wall_ns);
        out.insert(
            "serve.overhead_ms",
            (wall_ns - compute_ns) / 1e6 / ops.max(1) as f64,
        );
        let stats = self.server().stats();
        let (req0, hit0) = self.traced_from.unwrap_or((0, 0));
        let requests = stats.requests.load(Relaxed) - req0;
        let hits = stats.cache_hits.load(Relaxed) - hit0;
        if requests > 0 {
            out.insert(
                "serve.result_cache_hit_ratio",
                hits as f64 / requests as f64,
            );
        }
        out.insert(
            "serve.busy_rejects",
            stats.busy_rejects.load(Relaxed) as f64,
        );
        library_metrics(tr, out);
    }
}
