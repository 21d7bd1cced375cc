//! The split cell: a scheme-independent access stream shared through
//! the process-wide memo, then a per-scheme encode and timing step.
//!
//! - A cell whose stream came from the memo is bit-identical to a cold
//!   `SystemSim::run` / `SnucaSim::run`, for every paper scheme, the
//!   four SECDED configurations, S-NUCA binary and zero-skip DESC, on
//!   both machine models and at shards 1 and 4.
//! - Stream keys see exactly the stream's inputs.
//! - The memo is single-flight: concurrent demands build once, a
//!   panicking leader hands the key to a waiter, and a cancelled
//!   waiter stops waiting.
//! - `workloads.accesses_generated` counts every demanded cell, memo
//!   hit or not.
//!
//! The memo and the telemetry switch are process-global, so the tests
//! serialize on a local mutex.

use desc_core::schemes::SchemeKind;
use desc_core::TransferScheme;
use desc_experiments::cache::{
    self, encode_app_run, encode_snuca, shared_stream, stream_key, Memo,
};
use desc_experiments::common::{price_run, run_custom, run_snuca, scheme_static_overhead, Scale};
use desc_experiments::figures::fig28;
use desc_sim::{SimConfig, SnucaSim, SystemSim};
use desc_workloads::BenchmarkId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Both paper machines with a 1 MB L2, so the 32k-access warmup keeps
/// debug-build tests quick; 1024 sets still give every bank — S-NUCA's
/// 128 included — whole sets.
fn machines() -> [SimConfig; 2] {
    [SimConfig::paper_multithreaded(), SimConfig::paper_out_of_order()].map(|mut cfg| {
        cfg.l2.capacity_bytes = 1 << 20;
        cfg
    })
}

type Builder = Box<dyn Fn() -> Box<dyn TransferScheme>>;

/// Every UCA scheme a figure runs: the eight paper schemes and the
/// four SECDED configurations of Fig. 28, with their leakage overheads.
fn uca_schemes() -> Vec<(String, Builder, f64)> {
    let mut out: Vec<(String, Builder, f64)> = SchemeKind::ALL
        .into_iter()
        .map(|kind| {
            let build: Builder = Box::new(move || kind.build_paper_config());
            (format!("paper:{kind:?}"), build, scheme_static_overhead(kind))
        })
        .collect();
    for name in fig28::CONFIGS {
        let overhead = if name.contains("DESC") { 1.03 } else { 1.0 };
        out.push((format!("ecc:{name}"), Box::new(move || fig28::build_config(name)), overhead));
    }
    out
}

#[test]
fn memo_hit_app_cells_are_bit_identical_to_cold_ones() {
    let _guard = serialize();
    desc_exec::configure(4);
    cache::install(None);
    let profile = BenchmarkId::Ocean.profile();
    let scale = Scale { accesses: 1_500, apps: 1, seed: 41, jobs: 1, shards: 1 };
    for machine in machines() {
        for shards in [1, 4] {
            let scale = scale.with_shards(shards);
            for (id, build, overhead) in uca_schemes() {
                let mut config = machine;
                config.l2.bus_width_bits = build().wires().total();
                config.shards = shards;
                let sim = SystemSim::new(config, profile, scale.seed);
                let cold = price_run(sim.run(build(), scale.accesses), &config, overhead);
                let stream = shared_stream(sim.stream_spec(scale.accesses), shards);
                let warm = price_run(sim.run_on(build(), &stream), &config, overhead);
                let memo = run_custom(build(), machine, &profile, &scale, overhead);
                let what = format!("{id} on {:?} at shards {shards}", machine.core);
                assert_eq!(encode_app_run(&cold), encode_app_run(&warm), "{what}");
                assert_eq!(encode_app_run(&cold), encode_app_run(&memo), "{what}");
                // One stream serves every scheme, bus width and shard
                // count of this machine's app.
                let again = shared_stream(sim.stream_spec(scale.accesses), 1);
                assert!(Arc::ptr_eq(&stream, &again), "{what}: memo missed");
            }
        }
    }
}

#[test]
fn memo_hit_snuca_cells_are_bit_identical_to_cold_ones() {
    let _guard = serialize();
    desc_exec::configure(4);
    cache::install(None);
    let profile = BenchmarkId::Radix.profile();
    let scale = Scale { accesses: 1_500, apps: 1, seed: 43, jobs: 1, shards: 1 };
    for machine in machines() {
        for shards in [1, 4] {
            let mut config = machine;
            config.shards = shards;
            for kind in [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc] {
                let sim = SnucaSim::new(config, profile, scale.seed);
                let cold = sim.run(kind.build_paper_config(), scale.accesses);
                let stream = shared_stream(sim.stream_spec(scale.accesses), shards);
                let warm = sim.run_on(kind.build_paper_config(), &stream);
                let memo = run_snuca(
                    &format!("paper:{kind:?}"),
                    kind.build_paper_config(),
                    config,
                    &profile,
                    &scale,
                );
                let what = format!("{kind:?} on {:?} at shards {shards}", machine.core);
                assert_eq!(encode_snuca(&cold), encode_snuca(&warm), "{what}");
                assert_eq!(encode_snuca(&cold), encode_snuca(&memo), "{what}");
            }
        }
    }
}

#[test]
fn stream_keys_see_exactly_the_stream_inputs() {
    let profile = BenchmarkId::Fft.profile();
    let spec = |cfg: SimConfig, profile, seed, accesses| {
        SystemSim::new(cfg, profile, seed).stream_spec(accesses)
    };
    let base_cfg = SimConfig::paper_multithreaded();
    let base = stream_key(&spec(base_cfg, profile, 5, 4_000));

    // Schemes reach the stream only through the bus width; core model,
    // DRAM, interface cycles and shards never reach it.
    for kind in SchemeKind::ALL {
        let mut cfg = base_cfg;
        cfg.l2.bus_width_bits = kind.build_paper_config().wires().total();
        assert_eq!(base, stream_key(&spec(cfg, profile, 5, 4_000)), "{kind:?}");
    }
    let mut other = SimConfig::paper_out_of_order();
    other.l2.bus_width_bits = 512;
    other.dram_latency_cycles += 7;
    other.desc_interface_cycles += 3;
    other.shards = 8;
    assert_eq!(other.l2.capacity_bytes, base_cfg.l2.capacity_bytes);
    assert_eq!(base, stream_key(&spec(other, profile, 5, 4_000)));

    // Every input the stream reads moves the key.
    let mut bigger = base_cfg;
    bigger.l2.capacity_bytes *= 2;
    let mut more_banks = base_cfg;
    more_banks.l2.banks *= 2;
    for (what, key) in [
        ("capacity", stream_key(&spec(bigger, profile, 5, 4_000))),
        ("banks", stream_key(&spec(more_banks, profile, 5, 4_000))),
        ("seed", stream_key(&spec(base_cfg, profile, 6, 4_000))),
        ("accesses", stream_key(&spec(base_cfg, profile, 5, 4_001))),
        ("profile", stream_key(&spec(base_cfg, BenchmarkId::Lu.profile(), 5, 4_000))),
    ] {
        assert_ne!(base, key, "{what} did not change the stream key");
    }
    // S-NUCA's 128 banks make a different stream from the UCA's 8.
    let snuca = SnucaSim::new(base_cfg, profile, 5).stream_spec(4_000);
    assert_ne!(base, stream_key(&snuca));
}

fn key(n: u64) -> desc_cache::CellKey {
    desc_cache::CellKey { hi: n, lo: !n }
}

#[test]
fn concurrent_demands_build_once() {
    let memo: Memo<u64> = Memo::new(4);
    let builds = AtomicUsize::new(0);
    let barrier = Barrier::new(4);
    let results: Vec<(u64, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (value, built) = memo.get_or_build(&key(1), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(50));
                        7
                    });
                    (*value, built)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    assert!(results.iter().all(|&(v, _)| v == 7));
    assert_eq!(results.iter().filter(|&&(_, built)| built).count(), 1);
}

#[test]
fn memo_evicts_the_least_recently_used_entry() {
    let memo: Memo<u64> = Memo::new(2);
    let _ = memo.get_or_build(&key(1), || 1);
    let _ = memo.get_or_build(&key(2), || 2);
    assert!(!memo.get_or_build(&key(1), || unreachable!()).1, "1 is kept");
    let _ = memo.get_or_build(&key(3), || 3); // evicts 2, the LRU
    assert!(!memo.get_or_build(&key(1), || unreachable!()).1);
    assert!(memo.get_or_build(&key(2), || 22).1, "2 was evicted and rebuilds");
}

/// Starts a leader for `key(n)` whose build blocks until `release`
/// fires, then panics (`fail`) or returns 5.
fn blocked_leader(
    memo: &'static Memo<u64>,
    n: u64,
    fail: bool,
) -> (std::thread::JoinHandle<std::thread::Result<u64>>, mpsc::Sender<()>) {
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let leader = std::thread::spawn(move || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            *memo
                .get_or_build(&key(n), || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    assert!(!fail, "leader build fails");
                    5
                })
                .0
        }))
    });
    started_rx.recv().unwrap();
    (leader, release_tx)
}

#[test]
fn a_panicking_leader_hands_the_build_to_a_waiter() {
    static MEMO: Memo<u64> = Memo::new(4);
    let (leader, release) = blocked_leader(&MEMO, 10, true);
    let waiter = std::thread::spawn(|| MEMO.get_or_build(&key(10), || 9));
    std::thread::sleep(Duration::from_millis(30)); // let the waiter block
    release.send(()).unwrap();
    assert!(leader.join().unwrap().is_err(), "the leader's build panicked");
    let (value, built) = waiter.join().unwrap();
    assert_eq!((*value, built), (9, true), "the waiter took over the build");
    // The key is not wedged: later demands hit the waiter's value.
    assert_eq!(*MEMO.get_or_build(&key(10), || unreachable!()).0, 9);
}

#[test]
fn a_cancelled_waiter_stops_waiting_without_disturbing_the_leader() {
    static MEMO: Memo<u64> = Memo::new(4);
    let (leader, release) = blocked_leader(&MEMO, 20, false);
    let token = desc_exec::CancelToken::new();
    let waiter = {
        let token = token.clone();
        std::thread::spawn(move || {
            let _cancel = desc_exec::install_cancel(Some(token));
            std::panic::catch_unwind(|| *MEMO.get_or_build(&key(20), || 0).0)
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    let cancelled = Instant::now();
    token.cancel();
    assert!(waiter.join().unwrap().is_err(), "a cancelled waiter unwinds");
    assert!(cancelled.elapsed() < Duration::from_secs(2), "the waiter stopped promptly");
    release.send(()).unwrap();
    assert_eq!(leader.join().unwrap().unwrap(), 5);
    assert_eq!(*MEMO.get_or_build(&key(20), || unreachable!()).0, 5);
}

#[test]
fn accesses_generated_counts_every_demanded_cell() {
    let _guard = serialize();
    cache::install(None);
    desc_telemetry::set_enabled(true);
    let profile = BenchmarkId::Cg.profile();
    let scale = Scale { accesses: 1_000, apps: 1, seed: 47, jobs: 1, shards: 1 };
    let config = machines()[0];
    let kinds =
        [SchemeKind::ConventionalBinary, SchemeKind::BusInvertCoding, SchemeKind::BasicDesc];
    let counted = |f: &dyn Fn()| {
        let sink = desc_telemetry::CaptureSink::new();
        desc_telemetry::with_capture(&sink, f);
        sink.snapshot().counter("workloads.accesses_generated").unwrap_or(0)
    };
    // Through the memo: the first cell builds, the rest hit.
    let memoized = counted(&|| {
        for kind in kinds {
            let _ = run_custom(kind.build_paper_config(), config, &profile, &scale, 1.0);
        }
    });
    // Cold: every cell builds its own stream.
    let cold = counted(&|| {
        for kind in kinds {
            let mut cfg = config;
            cfg.l2.bus_width_bits = kind.build_paper_config().wires().total();
            let _ = SystemSim::new(cfg, profile, scale.seed)
                .run(kind.build_paper_config(), scale.accesses);
        }
    });
    desc_telemetry::set_enabled(false);
    let spec = SystemSim::new(config, profile, scale.seed).stream_spec(scale.accesses);
    let per_cell = (spec.warmup() + spec.accesses) as u64;
    assert_eq!(memoized, per_cell * kinds.len() as u64);
    assert_eq!(cold, memoized);
}
