//! Per-layer timings for the perfbench workloads.
//!
//! ```text
//! desc-perfbench-layers run --workload scheme-grid --seed 2013
//! desc-perfbench-layers ping --addr 127.0.0.1:7013 --count 41
//! ```
//!
//! `run` times the calls into each layer's public functions from this
//! file — trace generation, directory, value stream, encoders, whole
//! cells, energy models, cell cache, pool, experiment runners and the
//! service front end — on the inputs of one workload, and prints one
//! JSON object `{"metrics": {...}, "details": {...}}` on stdout.
//! `ping` measures `op: ping` round trips on one otherwise idle
//! connection to a running `serve` and prints them as JSON.
//!
//! Every span here is the benchmark's own: nothing inside the program
//! is instrumented, and program telemetry stays off until the last
//! step (the in-process server turns it on when it binds).

use desc_cache::{CacheStore, KeyHasher};
use desc_cacti::CacheModel;
use desc_core::schemes::SchemeKind;
use desc_core::{BlockSlab, TransferCost, TransferScheme};
use desc_experiments::cache::{self as cell_cache, CELL_SCHEMA_VERSION};
use desc_experiments::common::{run_app, run_custom_keyed, scheme_static_overhead};
use desc_experiments::figures::fig28;
use desc_experiments::{run_experiment, AppRun, Scale};
use desc_mcpat::ProcessorConfig;
use desc_serve::client::{ping_request, shutdown_request, Client, RunRequest};
use desc_serve::proto::Tables;
use desc_serve::{ServeConfig, Server};
use desc_sim::bank::home_bank;
use desc_sim::cache::CacheOutcome;
use desc_sim::{SetAssocCache, SimConfig, SystemSim};
use desc_telemetry::Json;
use desc_workloads::{Access, BenchmarkProfile};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweep-cell concurrency of every workload (`repro --jobs 2`,
/// `serve --jobs 2`).
const JOBS: usize = 2;
/// Blocks per slab handed to `transfer_many`, and slabs per scheme.
const SLAB_BLOCKS: usize = 256;
const SLABS: usize = 16;
/// The secded cell class: the first zero-skipped DESC configuration
/// under SECDED in fig. 28.
const SECDED_CLASS_CONFIG: &str = "128-64 DESC";
/// Idle time between pings, so each one finds the connection idle.
const PING_GAP: Duration = Duration::from_millis(20);

/// The transfer configuration of one sweep cell.
#[derive(Clone, Copy, Debug)]
enum Scheme {
    /// A paper-configured scheme on the multithreaded machine
    /// (fig. 16/20 cells, `run_app`).
    Paper(SchemeKind),
    /// A fig. 28 SECDED configuration.
    Ecc(&'static str),
}

impl Scheme {
    fn build(self) -> Box<dyn TransferScheme> {
        match self {
            Scheme::Paper(kind) => kind.build_paper_config(),
            Scheme::Ecc(name) => fig28::build_config(name),
        }
    }

    /// The cell-cache scheme id the figure runners use.
    fn id(self) -> String {
        match self {
            Scheme::Paper(kind) => format!("paper:{kind:?}"),
            Scheme::Ecc(name) => format!("ecc:{name}"),
        }
    }

    /// Metric-name token.
    fn slug(self) -> String {
        match self {
            Scheme::Paper(kind) => format!("{kind:?}"),
            Scheme::Ecc(name) => name.replace(' ', "-"),
        }
    }

    /// The L2 leakage multiplier the figure runners pass.
    fn overhead(self) -> f64 {
        match self {
            Scheme::Paper(kind) => scheme_static_overhead(kind),
            Scheme::Ecc(name) if name.contains("DESC") => 1.03,
            Scheme::Ecc(_) => 1.0,
        }
    }

    /// The cell exactly as the figure runner demands it, through the
    /// cell cache when one is installed.
    fn run_cell(self, profile: &BenchmarkProfile, scale: &Scale) -> AppRun {
        match self {
            Scheme::Paper(kind) => run_app(kind, profile, scale),
            Scheme::Ecc(_) => run_custom_keyed(
                &self.id(),
                self.build(),
                SimConfig::paper_multithreaded(),
                profile,
                scale,
                self.overhead(),
            ),
        }
    }
}

/// One benchmark workload as the figure runners see it.
struct Workload {
    scale: Scale,
    figures: &'static [&'static str],
}

impl Workload {
    fn named(name: &str, seed: u64) -> Option<Workload> {
        let (scale, figures): (Scale, &'static [&'static str]) = match name {
            "scheme-grid" => (Scale::full(), &["fig16", "fig20"]),
            "ecc-grid" => (Scale::full(), &["fig28"]),
            // The sweep client's request; probes are timed by the
            // load clients of `run.py` against the live server.
            "serve-mixed" => (Scale::quick(), &["fig16", "fig20"]),
            _ => return None,
        };
        let scale = Scale {
            seed,
            jobs: JOBS,
            ..scale
        };
        Some(Workload { scale, figures })
    }

    /// Every cell demand of `figure`, in `run_matrix` order.
    fn cells(&self, figure: &str) -> Vec<(Scheme, BenchmarkProfile)> {
        let schemes: Vec<Scheme> = match figure {
            "fig16" | "fig20" => SchemeKind::ALL.into_iter().map(Scheme::Paper).collect(),
            "fig28" => fig28::CONFIGS.into_iter().map(Scheme::Ecc).collect(),
            other => panic!("no cell list for {other}"),
        };
        let mut out = Vec::new();
        for profile in self.scale.suite() {
            for &s in &schemes {
                out.push((s, profile));
            }
        }
        out
    }
}

/// Median of `samples` (which must be non-empty).
fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nearest-rank percentile of `samples` (which must be non-empty).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-app replay of the scheme-independent half of a cell.
struct HalfTiming {
    /// Accesses generated and looked up: warmup plus the window.
    accesses: u64,
    warmup: u64,
    /// Value blocks the window transfers.
    blocks: u64,
    trace: Duration,
    directory: Duration,
    values: Duration,
}

/// Generates the app's trace, replays it through the banked
/// directory, and draws the value blocks the measured window
/// transfers — the steps `SystemSim::run` performs before encoding —
/// timing each through its own public entry point.
fn replay_half(profile: &BenchmarkProfile, scale: &Scale) -> HalfTiming {
    let l2 = SimConfig::paper_multithreaded().l2;
    let capacity_blocks = l2.capacity_bytes / l2.block_bytes;
    let set_count = capacity_blocks / l2.associativity;
    let parts = if l2.banks.is_power_of_two() && l2.banks <= set_count {
        l2.banks
    } else {
        1
    };
    let warmup = (2 * capacity_blocks).max(scale.accesses);
    let total = warmup + scale.accesses;

    let started = Instant::now();
    let mut gen = profile.trace(scale.seed);
    for _ in 0..total {
        black_box(gen.next_access());
    }
    let trace = started.elapsed();

    // Bucketing is untimed: it is neither generation nor lookup. The
    // buckets have the shape `SystemSim::run` builds.
    let mut gen = profile.trace(scale.seed);
    let mut warm: Vec<Vec<Access>> = vec![Vec::new(); parts];
    let mut measured: Vec<Vec<Access>> = vec![Vec::new(); parts];
    for i in 0..total {
        let a = gen.next_access();
        let p = home_bank(a.addr, l2.block_bytes as u64, l2.banks) % parts;
        if i < warmup {
            &mut warm[p]
        } else {
            &mut measured[p]
        }
        .push(a);
    }

    let mut blocks_per_part = vec![0u64; parts];
    let started = Instant::now();
    for p in 0..parts {
        let mut dir = SetAssocCache::bank_slice(
            l2.capacity_bytes,
            l2.block_bytes,
            l2.associativity,
            parts,
            p,
        );
        for &Access { addr, write, core } in &warm[p] {
            let _ = dir.access(addr, write, core);
        }
        for &Access { addr, write, core } in &measured[p] {
            blocks_per_part[p] += match dir.access(addr, write, core) {
                CacheOutcome::Hit => 1,
                CacheOutcome::Miss { writeback } => 1 + u64::from(writeback),
            };
        }
        black_box(&dir);
    }
    let directory = started.elapsed();

    let started = Instant::now();
    for (p, &n) in blocks_per_part.iter().enumerate() {
        let mut values = profile.value_stream_for_bank(scale.seed, p);
        for _ in 0..n {
            black_box(values.next_block_ref());
        }
    }
    let values = started.elapsed();
    HalfTiming {
        accesses: total as u64,
        warmup: warmup as u64,
        blocks: blocks_per_part.iter().sum(),
        trace,
        directory,
        values,
    }
}

/// Nanoseconds per block of `scheme.transfer_many` over `slabs`,
/// median of three passes from the power-on state.
fn encode_ns_per_block(scheme: Scheme, slabs: &[BlockSlab]) -> f64 {
    let blocks = (slabs.len() * SLAB_BLOCKS) as f64;
    let mut costs: Vec<TransferCost> = Vec::with_capacity(SLAB_BLOCKS);
    let mut passes = Vec::new();
    for _ in 0..3 {
        let mut s = scheme.build();
        s.reset();
        let started = Instant::now();
        for slab in slabs {
            costs.clear();
            s.transfer_many(slab, &mut costs);
            black_box(&costs);
        }
        passes.push(secs(started.elapsed()) * 1e9 / blocks);
    }
    median(&mut passes)
}

/// Microseconds per call of `f`: the median over `samples` timings of
/// `batch` consecutive calls each, so sub-microsecond calls are not
/// lost in the clock's resolution.
fn micros_per_call(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            secs(started.elapsed()) * 1e6 / batch as f64
        })
        .collect();
    median(&mut per_call)
}

struct Out {
    metrics: BTreeMap<String, f64>,
    details: BTreeMap<String, f64>,
}

impl Out {
    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.details.insert(name.into(), value);
    }
}

/// `desc-workloads`, `desc-sim`, `desc-core`/`desc-ecc`,
/// `desc-cacti`/`desc-mcpat` and the `desc-cache` key/codec/store
/// paths, on the workload's apps at the workload's scale.
fn time_layers(w: &Workload, out: &mut Out) {
    let scale = &w.scale;
    let suite = scale.suite();
    let halves: Vec<HalfTiming> = suite.iter().map(|p| replay_half(p, scale)).collect();
    let sum = |f: &dyn Fn(&HalfTiming) -> f64| halves.iter().map(f).sum::<f64>();
    let accesses = sum(&|h| h.accesses as f64);
    let blocks = sum(&|h| h.blocks as f64);
    out.metric(
        "workloads.trace_ns_per_access",
        sum(&|h| secs(h.trace)) * 1e9 / accesses,
    );
    out.metric(
        "workloads.value_ns_per_block",
        sum(&|h| secs(h.values)) * 1e9 / blocks,
    );
    out.metric("workloads.accesses_generated", accesses);
    out.metric(
        "sim.directory_ns_per_access",
        sum(&|h| secs(h.directory)) * 1e9 / accesses,
    );
    out.metric("sim.warmup_accesses", sum(&|h| h.warmup as f64));

    // 256-block slabs drawn from the workload's per-bank value streams.
    let slabs: Vec<BlockSlab> = (0..SLABS)
        .map(|i| {
            let mut values = suite[i % suite.len()].value_stream_for_bank(scale.seed, i);
            let mut slab = BlockSlab::with_capacity(64, SLAB_BLOCKS);
            for _ in 0..SLAB_BLOCKS {
                slab.push(values.next_block_ref());
            }
            slab
        })
        .collect();
    let mut encode_ns = HashMap::new();
    for kind in SchemeKind::ALL {
        let s = Scheme::Paper(kind);
        let ns = encode_ns_per_block(s, &slabs);
        out.metric(format!("core.encode_ns_per_block.{}", s.slug()), ns);
        encode_ns.insert(s.slug(), ns);
    }
    for name in fig28::CONFIGS {
        let s = Scheme::Ecc(name);
        let ns = encode_ns_per_block(s, &slabs);
        out.metric(format!("ecc.encode_ns_per_block.{}", s.slug()), ns);
        encode_ns.insert(s.slug(), ns);
    }

    // Whole cells on two apps picked by the seed, serial (shards 1) so
    // the replayed parts above account for the same work.
    let n = suite.len();
    let mut picks = vec![(scale.seed as usize) % n];
    if (picks[0] + n / 2) % n != picks[0] {
        picks.push((picks[0] + n / 2) % n);
    }
    let classes = [
        ("binary", Scheme::Paper(SchemeKind::ConventionalBinary)),
        ("zs-desc", Scheme::Paper(SchemeKind::ZeroSkippedDesc)),
        ("secded", Scheme::Ecc(SECDED_CLASS_CONFIG)),
    ];
    let mut binary_result = None;
    for (class, s) in classes {
        let mut cell_ms = Vec::new();
        let mut residual_ms = Vec::new();
        for &i in &picks {
            let scheme = s.build();
            let mut config = SimConfig::paper_multithreaded();
            config.l2.bus_width_bits = scheme.wires().total();
            config.shards = 1;
            let sim = SystemSim::new(config, suite[i], scale.seed);
            let started = Instant::now();
            let result = sim.run(scheme, scale.accesses);
            let ms = secs(started.elapsed()) * 1e3;
            let h = &halves[i];
            let parts_ms = secs(h.trace + h.directory + h.values) * 1e3
                + h.blocks as f64 * encode_ns[&s.slug()] / 1e6;
            cell_ms.push(ms);
            residual_ms.push(ms - parts_ms);
            if class == "binary" && binary_result.is_none() {
                binary_result = Some((config, result));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        out.metric(format!("sim.cell_ms.{class}"), mean(&cell_ms));
        out.metric(format!("sim.cell_residual_ms.{class}"), mean(&residual_ms));
    }

    let (config, result) = binary_result.expect("the binary class ran at least one cell");
    let mut l2 = None;
    out.metric(
        "cacti.energy_us",
        micros_per_call(21, 100, || {
            let model = CacheModel::new(config.l2);
            l2 = Some(black_box(model.energy_for(&result.activity)));
        }),
    );
    let l2 = l2.expect("energy computed");
    let cpu = ProcessorConfig::niagara_like();
    let mut processor = None;
    out.metric(
        "mcpat.rollup_us",
        micros_per_call(21, 100, || {
            processor = Some(black_box(cpu.roll_up(
                result.instructions,
                result.exec_time_s,
                l2,
                result.misses + result.writebacks,
            )));
        }),
    );
    let run = AppRun {
        result,
        l2,
        processor: processor.expect("roll-up computed"),
    };

    // Cell keys for every demand of the workload.
    let demands: Vec<(Scheme, BenchmarkProfile)> =
        w.figures.iter().flat_map(|f| w.cells(f)).collect();
    let built: Vec<Box<dyn TransferScheme>> = demands.iter().map(|(s, _)| s.build()).collect();
    let key_us = micros_per_call(5, 1, || {
        for ((s, p), scheme) in demands.iter().zip(&built) {
            black_box(cell_cache::app_key(
                &s.id(),
                scheme.as_ref(),
                &SimConfig::paper_multithreaded(),
                p,
                scale,
                s.overhead(),
            ));
        }
    }) / demands.len() as f64;
    out.metric("cache.key_us", key_us);
    out.metric(
        "cache.codec_us",
        micros_per_call(21, 100, || {
            let bytes = cell_cache::encode_app_run(&run);
            black_box(cell_cache::decode_app_run(&bytes).expect("a fresh payload decodes"));
        }),
    );
    let payload = cell_cache::encode_app_run(&run);
    let store = CacheStore::in_memory(CELL_SCHEMA_VERSION);
    let keys: Vec<_> = (0..2000u64)
        .map(|i| {
            let mut h = KeyHasher::new("perfbench");
            h.write_u64(i);
            h.finish()
        })
        .collect();
    let payloads: Vec<Vec<u8>> = keys.iter().map(|_| payload.clone()).collect();
    let mut payloads = payloads.into_iter();
    let mut it = keys.iter();
    out.metric(
        "cache.store_us",
        micros_per_call(keys.len() / 100, 100, || {
            let k = it.next().expect("one key per call");
            store.store(k, payloads.next().expect("one payload per call"), None);
        }),
    );
    let mut it = keys.iter().cycle();
    out.metric(
        "cache.lookup_hit_us",
        micros_per_call(keys.len() / 100, 100, || {
            let k = it.next().expect("cycled");
            black_box(store.lookup(k, false).expect("stored above"));
        }),
    );
}

/// `desc-experiments`: `run_experiment` per figure, untraced and with
/// no cell store (as `repro` runs without `--cache-dir`).
fn time_experiments(w: &Workload, out: &mut Out) {
    cell_cache::install(None);
    desc_exec::configure(JOBS);
    let mut total = 0.0;
    let mut slowest: f64 = 0.0;
    for &figure in w.figures {
        let started = Instant::now();
        black_box(run_experiment(figure, &w.scale).render());
        let s = secs(started.elapsed());
        out.detail(format!("experiments.{figure}_s"), s);
        total += s;
        slowest = slowest.max(s);
    }
    out.metric("experiments.run_s", total);
    out.metric("experiments.max_figure_s", slowest);
}

/// `desc-exec` and `desc-cache` under the workload's demand sequence:
/// the figures' cells submitted through `desc_exec::run_labeled` as
/// `run_matrix` submits them, with an in-memory cell store installed.
fn time_pool_and_cache(w: &Workload, out: &mut Out) {
    let store = Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION));
    cell_cache::install(Some(Arc::clone(&store)));
    desc_exec::configure(JOBS);
    let mut waits_ms = Vec::new();
    let mut busy = 0.0;
    let mut wall = 0.0;
    // A scheme-independent half is (app, seed, accesses, L2 geometry);
    // within one workload only the app varies.
    let mut halves: HashMap<&str, u64> = HashMap::new();
    for &figure in w.figures {
        let cells = w.cells(figure);
        for (_, p) in &cells {
            *halves.entry(p.name).or_default() += 1;
        }
        let submitted = Instant::now();
        let spans = desc_exec::run_labeled("cells", cells.len(), JOBS, |i| {
            let start = Instant::now();
            let (s, p) = cells[i];
            black_box(s.run_cell(&p, &w.scale));
            (start, Instant::now())
        });
        wall += secs(submitted.elapsed());
        for (start, end) in spans {
            waits_ms.push(secs(start - submitted) * 1e3);
            busy += secs(end - start);
        }
    }
    cell_cache::install(None);
    let stats = store.stats();
    let demands = stats.hits() + stats.misses;
    out.metric("exec.queue_wait_p50_ms", percentile(&mut waits_ms, 0.5));
    out.metric("exec.queue_wait_p90_ms", percentile(&mut waits_ms, 0.9));
    out.metric("exec.busy_fraction", busy / (wall * JOBS as f64));
    out.detail("exec.tasks", waits_ms.len() as f64);
    out.metric(
        "cache.repeat_share",
        stats.hits() as f64 / demands.max(1) as f64,
    );
    out.metric("cache.hits_memory", stats.hits_memory as f64);
    out.metric("cache.inflight_waits", stats.inflight_waits as f64);
    out.metric("cache.evictions", stats.evictions as f64);
    out.detail("cache.demands", demands as f64);
    let total: u64 = halves.values().sum();
    out.metric(
        "cache.demands_per_shared_half",
        total as f64 / halves.len() as f64,
    );
}

fn reply_ok(reply: &Json) -> bool {
    reply.get("status").and_then(Json::as_str) == Some("ok")
}

/// `ping` round trips on one connection: (first, later ones), in ms.
fn ping_rtts(client: &mut Client, count: usize, gap: Duration) -> std::io::Result<(f64, Vec<f64>)> {
    let mut rtts = Vec::with_capacity(count);
    for i in 0..count {
        if i > 0 {
            std::thread::sleep(gap);
        }
        let started = Instant::now();
        let reply = client.request(&ping_request("perfbench-ping"))?;
        if !reply_ok(&reply) {
            return Err(std::io::Error::other("ping answered with an error"));
        }
        rtts.push(secs(started.elapsed()) * 1e3);
    }
    let first = rtts.remove(0);
    Ok((first, rtts))
}

/// `desc-serve` on an in-process server: idle-connection `ping` RTTs,
/// and warm `tiny fig30` probes' RTT minus the reply's `elapsed_ms`.
/// Binding turns program telemetry on, so this runs last.
fn time_serve(seed: u64, out: &mut Out) -> std::io::Result<()> {
    cell_cache::install(Some(Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION))));
    let config = ServeConfig {
        workers: 2,
        default_jobs: JOBS,
        ..ServeConfig::default()
    };
    let server = Server::bind(config)?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr)?;
    let (first, mut rtts) = ping_rtts(&mut client, 21, PING_GAP)?;
    out.detail("serve.first_ping_ms", first);
    out.metric("serve.ping_rtt_ms", median(&mut rtts));

    let probe = RunRequest {
        seed: Some(seed),
        tables: Tables::Text,
        ..RunRequest::new(&["fig30"], "tiny")
    }
    .to_json();
    let cold = client.request(&probe)?;
    let mut overhead = Vec::new();
    for _ in 0..11 {
        let started = Instant::now();
        let warm = client.request(&probe)?;
        let rtt = secs(started.elapsed()) * 1e3;
        if !reply_ok(&warm) || warm.get("tables") != cold.get("tables") {
            return Err(std::io::Error::other(
                "warm probe disagrees with the cold reply",
            ));
        }
        let elapsed = warm.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
        overhead.push(rtt - elapsed);
    }
    out.metric("serve.overhead_ms", median(&mut overhead));
    let stanza = client.request(&ping_request("perfbench-stats"))?;
    let serve = stanza.get("serve");
    let count = |k: &str| {
        serve
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.metric("serve.rejected_busy", count("rejected_busy"));
    out.metric("serve.dedup_cells", count("dedup_cells"));
    client.request(&shutdown_request("perfbench-done"))?;
    handle
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))??;
    cell_cache::install(None);
    Ok(())
}

fn to_json(map: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            };
            format!("\"{k}\": {v}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: desc-perfbench-layers run --workload scheme-grid|ecc-grid|serve-mixed --seed N\n\
         \x20      desc-perfbench-layers ping --addr HOST:PORT --count N"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = arg::<u64>(&args, "--seed").unwrap_or(2013);
            let Some(w) =
                arg::<String>(&args, "--workload").and_then(|n| Workload::named(&n, seed))
            else {
                return usage();
            };
            let mut out = Out {
                metrics: BTreeMap::new(),
                details: BTreeMap::new(),
            };
            let started = Instant::now();
            time_layers(&w, &mut out);
            time_experiments(&w, &mut out);
            time_pool_and_cache(&w, &mut out);
            if let Err(e) = time_serve(seed, &mut out) {
                eprintln!("desc-perfbench-layers: serve layer: {e}");
                return ExitCode::FAILURE;
            }
            out.detail("harness_s", secs(started.elapsed()));
            println!(
                "{{\"metrics\": {}, \"details\": {}}}",
                to_json(&out.metrics),
                to_json(&out.details)
            );
            ExitCode::SUCCESS
        }
        Some("ping") => {
            let (Some(addr), Some(count)) = (
                arg::<String>(&args, "--addr"),
                arg::<usize>(&args, "--count"),
            ) else {
                return usage();
            };
            let result = Client::connect(addr.as_str())
                .and_then(|mut c| ping_rtts(&mut c, count.max(2), PING_GAP));
            match result {
                Ok((first, rtts)) => {
                    let rtts: Vec<String> = rtts.iter().map(|v| format!("{v:?}")).collect();
                    println!(
                        "{{\"first_ms\": {first:?}, \"rtts_ms\": [{}]}}",
                        rtts.join(", ")
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("desc-perfbench-layers: ping {addr}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
