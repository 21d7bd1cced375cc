//! The scheme-independent half of a simulation cell.
//!
//! Everything a cell does before its first block is encoded — trace
//! generation, bucketing by home-bank partition, directory warmup, the
//! measured window's hit/miss/writeback outcomes and the address-bus
//! flips — reads only the app profile, the seed, the window length and
//! the L2 geometry (a [`StreamSpec`]). It never reads the transfer
//! scheme, the bus width, the core model, DRAM or interface cycles.
//! [`AccessStream::build`] computes that half once, and
//! [`crate::SystemSim::run_on`] / [`crate::SnucaSim::run_on`] replay it
//! under any scheme: they draw each bank's values in outcome order,
//! encode them, and run the timing model.
//!
//! Block values are not retained. Re-drawing them from the per-bank
//! value streams is cheaper than keeping 64 B per block, so a stream
//! holds about 16 B per measured access.

use crate::bank::home_bank;
use crate::cache::{CacheOutcome, SetAssocCache};
use crate::shard::run_parts;
use desc_core::wire::Bus;
use desc_workloads::{Access, BenchmarkProfile};
use std::sync::Mutex;

/// Every input an [`AccessStream`] reads, and nothing else: two cells
/// with equal specs replay the identical stream.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StreamSpec {
    /// The app whose trace is generated.
    pub profile: BenchmarkProfile,
    /// Trace seed.
    pub seed: u64,
    /// Measured accesses (after warmup).
    pub accesses: usize,
    /// L2 capacity in bytes.
    pub capacity_bytes: usize,
    /// L2 block size in bytes.
    pub block_bytes: usize,
    /// L2 set associativity.
    pub associativity: usize,
    /// Banks the addresses interleave over.
    pub banks: usize,
}

impl StreamSpec {
    /// Bank partitions the cell decomposes into: one per bank whenever
    /// the geometry allows it (a power-of-two bank count no larger than
    /// the set count — set index and bank id are then both low
    /// block-address bits, so each bank owns whole sets), otherwise a
    /// single partition simulating all banks. Fixed by the geometry,
    /// never by a thread count, so results are shard-count invariant.
    pub(crate) fn partitions(&self) -> usize {
        let set_count = self.capacity_bytes / self.block_bytes / self.associativity;
        if self.banks.is_power_of_two() && self.banks <= set_count {
            self.banks
        } else {
            1
        }
    }

    /// Directory-only accesses replayed before the measured window, so
    /// measurements exclude cold-start compulsory misses (the paper
    /// runs applications to completion; we measure a steady-state
    /// window).
    #[must_use]
    pub fn warmup(&self) -> usize {
        (2 * (self.capacity_bytes / self.block_bytes)).max(self.accesses)
    }
}

/// One measured access and its directory outcome (16 bytes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Outcome {
    pub(crate) addr: u64,
    /// Program-order index within the measured window (global across
    /// partitions — arrivals and DRAM ordering key off it).
    pub(crate) idx: u32,
    pub(crate) write: bool,
    core: u8,
    pub(crate) miss: bool,
    /// The miss displaced a dirty block (never set on a hit).
    pub(crate) writeback: bool,
}

impl Outcome {
    /// Blocks this access transfers: one for a hit or a clean miss
    /// fill, two for a miss with writeback.
    pub(crate) fn blocks(self) -> usize {
        1 + usize::from(self.writeback)
    }
}

/// A warmup access packed into one word: trace addresses are 64-byte
/// aligned, which leaves the low six bits for the core (five bits —
/// the directory tracks at most 32 sharers) and the write flag.
fn pack(a: Access) -> u64 {
    assert!(a.addr & 63 == 0 && a.core < 32, "trace access {a:?} does not pack");
    a.addr | u64::from(a.core) | u64::from(a.write) << 5
}

fn unpack(word: u64) -> (u64, bool, u8) {
    (word & !63, word & 32 != 0, (word & 31) as u8)
}

/// One bank partition's measured window, in program order, with its
/// scheme-independent counters.
#[derive(Debug)]
pub(crate) struct PartStream {
    pub(crate) outcomes: Vec<Outcome>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) writebacks: u64,
    pub(crate) invalidations: u64,
    pub(crate) array_reads: u64,
    pub(crate) array_writes: u64,
    /// Transitions on the partition's 48-wire address bus.
    pub(crate) addr_flips: u64,
}

/// The measured window of one app on one L2 geometry: per-partition
/// outcome sequences plus the counters that no scheme can change.
///
/// # Examples
///
/// ```
/// use desc_core::schemes::SchemeKind;
/// use desc_sim::{AccessStream, SimConfig, SystemSim};
/// use desc_workloads::BenchmarkId;
///
/// let sim = SystemSim::new(SimConfig::paper_multithreaded(), BenchmarkId::Radix.profile(), 2013);
/// let stream = AccessStream::build(sim.stream_spec(2_000), 1);
/// let bin = sim.run_on(SchemeKind::ConventionalBinary.build_paper_config(), &stream);
/// let desc = sim.run_on(SchemeKind::ZeroSkippedDesc.build_paper_config(), &stream);
/// // Paired: both schemes saw the same directory outcomes.
/// assert_eq!((bin.hits, bin.misses), (desc.hits, desc.misses));
/// assert!(desc.activity.htree_transitions < bin.activity.htree_transitions);
/// ```
#[derive(Debug)]
pub struct AccessStream {
    spec: StreamSpec,
    pub(crate) parts: Vec<PartStream>,
}

impl AccessStream {
    /// Generates `spec`'s trace, warms the banked directory, and
    /// records the measured window's outcomes, simulating the bank
    /// partitions on up to `threads` pool workers. The result does not
    /// depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.accesses` is zero or does not fit a `u32`
    /// program index.
    #[must_use]
    pub fn build(spec: StreamSpec, threads: usize) -> Self {
        assert!(spec.accesses > 0, "simulate at least one access");
        assert!(spec.accesses < u32::MAX as usize, "measured window exceeds u32 program indices");
        let parts = spec.partitions();
        let warmup = spec.warmup();
        let accesses = spec.accesses;
        let block_bytes = spec.block_bytes as u64;

        // The trace is generated once (one sequential RNG stream) and
        // bucketed by owning partition during generation, so every
        // access is touched exactly once process-wide. The measured
        // buckets are the retained outcome vectors, allocated before
        // the transient warmup buckets.
        let reserve = |n: usize| n / parts + n / 16 + 8;
        let mut outcomes: Vec<Vec<Outcome>> =
            (0..parts).map(|_| Vec::with_capacity(reserve(accesses))).collect();
        let mut warm_parts: Vec<Vec<u64>> =
            (0..parts).map(|_| Vec::with_capacity(reserve(warmup))).collect();
        let mut trace_gen = spec.profile.trace(spec.seed);
        for i in 0..warmup + accesses {
            let a = trace_gen.next_access();
            let p = home_bank(a.addr, block_bytes, spec.banks) % parts;
            if i < warmup {
                warm_parts[p].push(pack(a));
            } else {
                outcomes[p].push(Outcome {
                    addr: a.addr,
                    idx: (i - warmup) as u32,
                    write: a.write,
                    core: a.core,
                    miss: false,
                    writeback: false,
                });
            }
        }
        // Flushes `workloads.accesses_generated` on the calling thread.
        drop(trace_gen);

        // Each partition owns its bank's directory slice and address
        // bus; partitions share no mutable state.
        let slots: Vec<Mutex<Vec<Outcome>>> = outcomes.into_iter().map(Mutex::new).collect();
        let parts = run_parts(parts, threads.max(1), |p| {
            let mut l2 = SetAssocCache::bank_slice(
                spec.capacity_bytes,
                spec.block_bytes,
                spec.associativity,
                parts,
                p,
            );
            for &word in &warm_parts[p] {
                let (addr, write, core) = unpack(word);
                let _ = l2.access(addr, write, core);
            }
            let invalidations_at_warmup = l2.invalidations();
            let mut addr_bus = Bus::new(48);
            let mut out = PartStream {
                outcomes: std::mem::take(&mut *slots[p].lock().expect("outcome slot poisoned")),
                hits: 0,
                misses: 0,
                writebacks: 0,
                invalidations: 0,
                array_reads: 0,
                array_writes: 0,
                addr_flips: 0,
            };
            for o in &mut out.outcomes {
                match l2.access(o.addr, o.write, o.core) {
                    CacheOutcome::Hit => {
                        out.hits += 1;
                        if o.write {
                            out.array_writes += 1;
                        } else {
                            out.array_reads += 1;
                        }
                    }
                    CacheOutcome::Miss { writeback } => {
                        o.miss = true;
                        o.writeback = writeback;
                        out.misses += 1;
                        out.array_writes += 1;
                        if writeback {
                            out.writebacks += 1;
                            out.array_reads += 1;
                        }
                    }
                }
                out.addr_flips += u64::from(addr_bus.drive((o.addr >> 6) & ((1 << 48) - 1)));
            }
            out.outcomes.shrink_to_fit();
            out.invalidations = l2.invalidations() - invalidations_at_warmup;
            out
        });
        Self { spec, parts }
    }

    /// The inputs this stream was built from.
    #[must_use]
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Trace accesses generated to build this stream (warmup plus the
    /// measured window) — what `workloads.accesses_generated` counted.
    #[must_use]
    pub fn generated(&self) -> u64 {
        (self.spec.warmup() + self.spec.accesses) as u64
    }

    /// L2 hits in the measured window.
    pub(crate) fn hits(&self) -> u64 {
        self.parts.iter().map(|p| p.hits).sum()
    }

    /// L2 misses in the measured window.
    pub(crate) fn misses(&self) -> u64 {
        self.parts.iter().map(|p| p.misses).sum()
    }

    /// Dirty evictions in the measured window.
    pub(crate) fn writebacks(&self) -> u64 {
        self.parts.iter().map(|p| p.writebacks).sum()
    }

    /// L1 invalidations from write sharing in the measured window.
    pub(crate) fn invalidations(&self) -> u64 {
        self.parts.iter().map(|p| p.invalidations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use desc_workloads::BenchmarkId;

    fn spec(banks: usize) -> StreamSpec {
        let l2 = SimConfig::paper_multithreaded().l2;
        StreamSpec {
            profile: BenchmarkId::Ocean.profile(),
            seed: 7,
            accesses: 3_000,
            capacity_bytes: l2.capacity_bytes,
            block_bytes: l2.block_bytes,
            associativity: l2.associativity,
            banks,
        }
    }

    #[test]
    fn outcomes_cover_the_window_once_in_program_order() {
        let stream = AccessStream::build(spec(8), 1);
        assert_eq!(stream.parts.len(), 8);
        let mut seen: Vec<u32> =
            stream.parts.iter().flat_map(|p| p.outcomes.iter().map(|o| o.idx)).collect();
        for p in &stream.parts {
            assert!(p.outcomes.windows(2).all(|w| w[0].idx < w[1].idx));
            assert_eq!(p.outcomes.len() as u64, p.hits + p.misses);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..3_000).collect::<Vec<u32>>());
        assert_eq!(stream.generated(), (spec(8).warmup() + 3_000) as u64);
        assert_eq!(std::mem::size_of::<Outcome>(), 16);
    }

    #[test]
    fn thread_count_never_changes_the_stream() {
        desc_exec::configure(4);
        let serial = AccessStream::build(spec(8), 1);
        let pooled = AccessStream::build(spec(8), 4);
        for (a, b) in serial.parts.iter().zip(&pooled.parts) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn warmup_accesses_pack_losslessly() {
        let mut gen = BenchmarkId::Ocean.profile().trace(3);
        for _ in 0..10_000 {
            let a = gen.next_access();
            assert_eq!(unpack(pack(a)), (a.addr, a.write, a.core));
        }
    }

    #[test]
    fn non_power_of_two_banks_use_one_partition() {
        assert_eq!(spec(3).partitions(), 1);
        assert_eq!(AccessStream::build(spec(3), 2).parts.len(), 1);
    }
}
