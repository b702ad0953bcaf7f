//! End-to-end checks for the design-space query server: coalescing,
//! caching, byte-level determinism against the direct evaluation path, and
//! graceful drain-on-shutdown.
//!
//! The obs-feature sections additionally assert the `serve.*` counters; the
//! always-on [`ServerStats`] carry the load in default builds. Every test
//! takes one process-wide lock because the obs registry is global.

use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hetarch::serve::json::Json;
use hetarch::serve::{evaluate, server, Client, Query, Server, ServerConfig};
use hetarch_cells::CellLibrary;
use hetarch_exec::{CancelToken, WorkerPool};

/// Serializes tests: the obs registry (asserted under `--features obs`) is
/// process-global, so concurrent servers would cross-pollute its counters.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(feature = "obs")]
fn obs_fresh() {
    hetarch::obs::force_enabled(true);
    hetarch::obs::reset();
}

#[cfg(not(feature = "obs"))]
fn obs_fresh() {}

fn start(config: ServerConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn sweep_request_sorted() -> Json {
    Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        (
            "ts_values",
            Json::Arr(vec![Json::Num(0.5e-3), Json::Num(5e-3)]),
        ),
        ("shots", Json::Int(256)),
        ("seed", Json::Int(61)),
    ])
}

/// Same canonical query, different bytes: axes reordered.
fn sweep_request_shuffled() -> Json {
    Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        (
            "ts_values",
            Json::Arr(vec![Json::Num(5e-3), Json::Num(0.5e-3)]),
        ),
        ("shots", Json::Int(256)),
        ("seed", Json::Int(61)),
    ])
}

fn block_request(millis: i64) -> Json {
    Json::obj([
        ("query", Json::Str("test_block".to_string())),
        ("millis", Json::Int(millis)),
    ])
}

/// 16 concurrent identical queries perform exactly one execution.
///
/// Determinism trick: a single executor is first occupied by a blocking
/// query, so the identical sweep requests all arrive while the sweep job is
/// still pending — admission order cannot race execution speed. Half the
/// clients send a byte-different but canonically equal body (reordered
/// axes) to prove coalescing keys on the canonical form.
#[test]
fn identical_concurrent_queries_coalesce_to_one_execution() {
    let _guard = serialized();
    obs_fresh();
    let server = start(ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Occupy the lone executor so the sweep job stays queued.
    let mut blocker = Client::connect(addr).expect("connect");
    blocker
        .send_raw_frame(block_request(400).render().as_bytes())
        .expect("send blocker");
    std::thread::sleep(Duration::from_millis(100));

    const CLIENTS: usize = 16;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let responses: Vec<Vec<u8>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let barrier = barrier.clone();
                s.spawn(move || {
                    let request = if i % 2 == 0 {
                        sweep_request_sorted()
                    } else {
                        sweep_request_shuffled()
                    };
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client
                        .request_raw(request.render().as_bytes())
                        .expect("sweep reply")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    blocker.read_reply().expect("blocker reply");

    // All 16 responses are byte-identical.
    for response in &responses[1..] {
        assert_eq!(response, &responses[0]);
    }
    // ... and bit-identical to the direct evaluation path on a fresh
    // library and a different worker count.
    let lib = CellLibrary::new();
    let pool = WorkerPool::new(3);
    let query = Query::SweepUec {
        distances: vec![3],
        ts_values: vec![0.5e-3, 5e-3],
        shots: 256,
        seed: 61,
    };
    let direct = evaluate(&query, &lib, &pool, &CancelToken::new()).expect("direct eval");
    assert_eq!(
        responses[0],
        server::ok_response(direct).render().into_bytes()
    );

    // Exactly one sweep execution; the blocker accounts for the second.
    let stats = server.stats();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(stats.executions.load(Relaxed), 2, "block + one sweep");
    assert_eq!(stats.coalesced.load(Relaxed), CLIENTS as u64 - 1);
    assert_eq!(stats.cache_hits.load(Relaxed), 0);
    assert_eq!(stats.requests.load(Relaxed), CLIENTS as u64 + 1);
    assert_eq!(stats.busy_rejects.load(Relaxed), 0);
    assert_eq!(stats.panics.load(Relaxed), 0);

    #[cfg(feature = "obs")]
    {
        let report = hetarch::obs::report();
        assert_eq!(report.counters["serve.executions"], 2);
        assert_eq!(report.counters["serve.coalesce_hits"], CLIENTS as u64 - 1);
        assert_eq!(report.counters["serve.requests"], CLIENTS as u64 + 1);
    }

    server.shutdown();
}

/// A repeated query after completion is a cache hit: same bytes, no
/// re-execution, visible in the `stats` query.
#[test]
fn completed_queries_are_served_from_cache() {
    let _guard = serialized();
    obs_fresh();
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let request = sweep_request_sorted();

    let mut first = Client::connect(addr).expect("connect");
    let cold = first
        .request_raw(request.render().as_bytes())
        .expect("cold reply");
    // A different connection, byte-different body, same canonical key.
    let mut second = Client::connect(addr).expect("connect");
    let warm = second
        .request_raw(sweep_request_shuffled().render().as_bytes())
        .expect("warm reply");
    assert_eq!(cold, warm);

    let stats = second.stats().expect("stats");
    let serve = stats
        .get("result")
        .and_then(|r| r.get("serve"))
        .expect("serve block");
    assert_eq!(serve.get("executions").and_then(Json::as_u64), Some(1));
    assert_eq!(serve.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(serve.get("coalesced").and_then(Json::as_u64), Some(0));
    assert!(stats
        .get("result")
        .and_then(|r| r.get("queue_depth"))
        .is_some());
    #[cfg(feature = "obs")]
    assert!(
        stats.get("result").and_then(|r| r.get("obs")).is_some(),
        "obs builds surface the global counters in stats"
    );

    server.shutdown();
}

/// One connection can pipeline several different queries, and a rare-event
/// query round-trips with the expected fields.
#[test]
fn connections_pipeline_distinct_queries() {
    let _guard = serialized();
    obs_fresh();
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let rare = Json::obj([
        ("query", Json::Str("rare_uec".to_string())),
        ("distance", Json::Int(3)),
        ("ts", Json::Num(5e-3)),
        ("max_strata", Json::Int(3)),
        ("shots_per_stratum", Json::Int(64)),
        ("seed", Json::Int(9)),
    ]);
    let reply = client.request_json(&rare).expect("rare reply");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    let result = reply.get("result").expect("result");
    assert!(result.get("p_l").and_then(Json::as_f64).is_some());
    assert!(result
        .get("truncation_bound")
        .and_then(Json::as_f64)
        .is_some());
    assert_eq!(result.get("distance").and_then(Json::as_u64), Some(3));

    let block = client.request_json(&block_request(1)).expect("block reply");
    assert_eq!(block.get("status").and_then(Json::as_str), Some("ok"));

    server.shutdown();
}

/// A finished query is answered as soon as it settles, not at the next
/// liveness-probe boundary: the handler's socket probe must not block for
/// the poll interval (50 ms), which would answer a 60 ms query at ~100 ms.
/// Best of three attempts, each on a fresh server so the result cache
/// cannot answer it.
#[test]
fn finished_queries_are_answered_without_poll_quantization() {
    let _guard = serialized();
    obs_fresh();
    let best = (0..3)
        .map(|_| {
            let server = start(ServerConfig::default());
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let sent = Instant::now();
            let reply = client.request_json(&block_request(60)).expect("reply");
            let latency = sent.elapsed();
            assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
            server.shutdown();
            latency
        })
        .min()
        .expect("three attempts");
    assert!(
        best < Duration::from_millis(90),
        "a 60 ms query took {best:?} at best"
    );
}

/// A `shutdown` query drains the server: in-flight work completes, the
/// wait() call returns, and the listener goes away.
#[test]
fn shutdown_query_drains_gracefully() {
    let _guard = serialized();
    obs_fresh();
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // Put one slow job in flight, then request shutdown from another
    // connection: the job must still complete with a real answer.
    let mut slow = Client::connect(addr).expect("connect");
    slow.send_raw_frame(block_request(300).render().as_bytes())
        .expect("send slow");
    std::thread::sleep(Duration::from_millis(50));

    let mut admin = Client::connect(addr).expect("connect");
    let reply = admin.shutdown_server().expect("shutdown reply");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    let waiter = std::thread::spawn(move || {
        let start = Instant::now();
        server.wait();
        start.elapsed()
    });

    let slow_reply = slow.read_reply().expect("in-flight job still answered");
    let text = String::from_utf8(slow_reply).unwrap();
    assert!(text.contains("\"blocked_ms\":300"), "got {text}");
    drop(slow);
    drop(admin);

    let drained_in = waiter.join().expect("wait() returns after drain");
    assert!(
        drained_in < Duration::from_secs(10),
        "drain took {drained_in:?}"
    );
}

/// A server restarted with `--cache PATH` re-answers a prior sweep with
/// zero new characterization simulations: the first server persists its
/// [`CellLibrary`] on graceful drain, the second loads it on boot, and the
/// warm sweep — including a calibrated one — is all cache hits with
/// byte-identical replies.
#[test]
fn restarted_server_answers_prior_sweeps_without_new_simulations() {
    let _guard = serialized();
    obs_fresh();
    let path = std::env::temp_dir().join(format!("hetarch-serve-warm-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let calib_request = Json::obj([
        ("query", Json::Str("calib_sweep".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        ("ts_values", Json::Arr(vec![Json::Num(5e-3)])),
        ("shots", Json::Int(256)),
        ("seed", Json::Int(61)),
        (
            "calib",
            Json::obj([
                ("version", Json::Int(1)),
                ("device", Json::Str("fridge-a".to_string())),
                (
                    "qubits",
                    Json::obj([(
                        "usc/s0",
                        Json::obj([("t1", Json::Num(2e-4)), ("t2", Json::Num(2e-4))]),
                    )]),
                ),
            ]),
        ),
    ]);

    // First life: cold server simulates, answers, drains, persists.
    let (cold_plain, cold_calib, cold_misses) = {
        let server = start(ServerConfig {
            library_path: Some(path.clone()),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let plain = client
            .request_raw(sweep_request_sorted().render().as_bytes())
            .expect("cold sweep");
        let calib = client
            .request_raw(calib_request.render().as_bytes())
            .expect("cold calib sweep");
        let misses = server.library_stats().misses;
        assert!(misses > 0, "the cold server must have simulated something");
        drop(client);
        server.shutdown();
        (plain, calib, misses)
    };
    assert!(path.exists(), "graceful drain persists the library");

    // Second life: the restarted server loads the persisted library and
    // re-answers both sweeps — calibrated and not — without a single new
    // characterization.
    {
        let server = start(ServerConfig {
            library_path: Some(path.clone()),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let warm_plain = client
            .request_raw(sweep_request_sorted().render().as_bytes())
            .expect("warm sweep");
        let warm_calib = client
            .request_raw(calib_request.render().as_bytes())
            .expect("warm calib sweep");
        assert_eq!(warm_plain, cold_plain, "warm replies are byte-identical");
        assert_eq!(
            warm_calib, cold_calib,
            "warm calib replies are byte-identical"
        );
        let stats = server.library_stats();
        assert_eq!(stats.misses, 0, "warm start must not simulate anything");
        assert_eq!(
            stats.hits, cold_misses,
            "every cold-run characterization is re-served from the loaded cache"
        );
        drop(client);
        server.shutdown();
    }

    let _ = std::fs::remove_file(&path);
}
