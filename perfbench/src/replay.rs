//! The replays of every run: the trace shapes, the three cache
//! systems built over plain or traced devices, and the replay loops, with
//! per-layer accounting when traced.
//!
//! Device sizing and the system configurations come from the repository's
//! own replay set-up ([`ReplaySetup`]), so the benchmark builds the stacks
//! the perf gates build; only the Table 3 trace specs and the cache sizes
//! are chosen here.

use std::time::Instant;

use cachemgr::{
    replay_batched, BatchCtx, CacheSystem, FlashTierWb, FlashTierWt, MgrCounters, NativeCache,
    NativeConsistency, NativeMode,
};
use disksim::Disk;
use flashsim::{DataMode, FlashCounters};
use flashtier_bench::replay::ReplaySetup;
use flashtier_core::{Ssc, SscCounters, SscDevice};
use ftl::{BlockDev, HybridFtl, SsdConfig};
use trace::{generate, Trace, TraceEvent, WorkloadSpec};

use crate::wrap::{self, Probe, Span, SpanLog, TracedFtl, TracedSsc};

/// Events per decoded batch, as in the repository's batched replay gate.
pub const BATCH: usize = 1024;

/// One workload's trace shape and device sizing.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Device sizing and system configurations (Discard data mode, no
    /// faults).
    pub setup: ReplaySetup,
    /// Trace generator parameters (seeded).
    pub spec: WorkloadSpec,
    /// Times the trace is replayed on one stack per measured round.
    pub passes: u32,
}

/// Mixes the command-line seed with a per-workload salt, so two
/// workloads run with the same seed still get unrelated traces.
fn seeded(salt: u64, seed: u64) -> u64 {
    let mut x = seed ^ salt;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Shape {
    /// The trace `spec` over a cache of `cache_bytes`, with the perf
    /// set-up's devices otherwise.
    fn new(spec: WorkloadSpec, cache_bytes: u64, passes: u32) -> Shape {
        Shape {
            setup: ReplaySetup {
                name: "perfbench",
                events: spec.total_ops,
                range_blocks: spec.range_blocks,
                unique_blocks: spec.unique_blocks,
                flash_bytes: cache_bytes,
                seed: spec.seed,
                ..ReplaySetup::perf(spec.total_ops)
            },
            spec,
            passes,
        }
    }

    /// Table 3 *mail* scaled to 128 Ki unique blocks and 1 M events
    /// (88.5% writes, θ 0.99). About 60 Ki blocks are touched; the cache
    /// holds 25% of them (§6.1), so the footprint is 4× the cache.
    pub fn mail(seed: u64) -> Shape {
        let base = WorkloadSpec::mail();
        let mut spec = base.scaled(base.unique_blocks as f64 / (128.0 * 1024.0));
        spec.total_ops = 1_000_000;
        spec.seed = seeded(0x6D61_696C, seed);
        Shape::new(spec, 60 << 20, 1)
    }

    /// Table 3 *usr* scaled to 16 Ki unique blocks (5.9% writes, θ 0.95,
    /// long sequential runs) over a 128 MiB cache: the footprint is well
    /// under the cache, so after the first pass nearly every read hits.
    pub fn usr_hot(seed: u64) -> Shape {
        let base = WorkloadSpec::usr();
        let mut spec = base.scaled(base.unique_blocks as f64 / (16.0 * 1024.0));
        spec.total_ops = 1_000_000;
        spec.seed = seeded(0x7573_7268, seed);
        Shape::new(spec, 128 << 20, 4)
    }

    /// A small shape for tests: *mail* scaled to 4 Ki unique blocks and
    /// 20 k events, with 30% writes so that reads see traffic too, over a
    /// 4 MiB cache, replayed twice.
    pub fn tiny(seed: u64) -> Shape {
        let base = WorkloadSpec::mail();
        let mut spec = base.scaled(base.unique_blocks as f64 / 4096.0);
        spec.total_ops = 20_000;
        spec.write_fraction = 0.30;
        spec.seed = seeded(0x7469_6E79, seed);
        Shape::new(spec, 4 << 20, 2)
    }

    /// Generates the trace.
    pub fn trace(&self) -> Trace {
        generate(&self.spec)
    }

    /// Events one round replays per system.
    pub fn events_per_round(&self, trace: &Trace) -> u64 {
        trace.events.len() as u64 * u64::from(self.passes)
    }

    /// FlashTier write-through over `wrap(Ssc)`.
    pub fn wt<D: SscDevice>(&self, wrap: impl FnOnce(Ssc) -> D) -> FlashTierWt<D> {
        FlashTierWt::new(wrap(Ssc::new(self.setup.wt_config())), self.setup.disk())
    }

    /// FlashTier write-back over `wrap(Ssc)`.
    pub fn wb<D: SscDevice>(&self, wrap: impl FnOnce(Ssc) -> D) -> FlashTierWb<D> {
        FlashTierWb::new(wrap(Ssc::new(self.setup.wb_config())), self.setup.disk())
    }

    /// Native write-back over `wrap(HybridFtl)`: the stack
    /// [`ReplaySetup::native_wb`] builds, with the FTL wrapped. (The
    /// untraced replay uses `native_wb` itself, and every traced run checks
    /// that both give the same simulated results.)
    pub fn native<D: BlockDev>(&self, wrap: impl FnOnce(HybridFtl) -> D) -> NativeCache<D> {
        let ssd = HybridFtl::new(
            SsdConfig::paper_default(self.setup.flash()),
            DataMode::Discard,
        );
        NativeCache::new(
            wrap(ssd),
            self.setup.disk(),
            NativeMode::WriteBack,
            NativeConsistency::Durable,
        )
    }
}

/// The replayed systems, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// FlashTier write-through over the SSC.
    Wt,
    /// FlashTier write-back over the SSC-R.
    Wb,
    /// Native write-back over the hybrid FTL.
    Native,
}

impl System {
    /// All systems, in reporting order.
    pub const ALL: [System; 3] = [System::Wt, System::Wb, System::Native];

    /// Metric prefix.
    pub fn key(self) -> &'static str {
        match self {
            System::Wt => "wt",
            System::Wb => "wb",
            System::Native => "native",
        }
    }
}

/// Everything a replay leaves that must not depend on host speed: the
/// simulated time and every counter of every layer, by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Total simulated time of the replayed events, µs.
    pub sim_time_us: u64,
    /// `(name, value)` counters in a fixed order.
    pub counters: Vec<(&'static str, u64)>,
}

impl SimResult {
    /// A counter by name (panics on an unknown name: a bug here).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no counter {name}"))
    }
}

fn push_mgr(out: &mut Vec<(&'static str, u64)>, c: &MgrCounters) {
    out.extend([
        ("mgr.reads", c.reads),
        ("mgr.writes", c.writes),
        ("mgr.read_hits", c.read_hits),
        ("mgr.read_misses", c.read_misses),
        ("mgr.writebacks", c.writebacks),
        ("mgr.cleans_issued", c.cleans_issued),
        ("mgr.evictions", c.evictions),
        ("mgr.metadata_writes", c.metadata_writes),
        ("mgr.bloom_skips", c.bloom_skips),
        ("mgr.read_fault_fallbacks", c.read_fault_fallbacks),
    ]);
}

fn push_flash(out: &mut Vec<(&'static str, u64)>, c: &FlashCounters) {
    out.extend([
        ("flash.page_reads", c.page_reads),
        ("flash.page_writes", c.page_writes),
        ("flash.erases", c.erases),
        ("flash.invalidations", c.invalidations),
    ]);
}

fn push_disk(out: &mut Vec<(&'static str, u64)>, disk: &Disk) {
    let c = disk.counters();
    out.extend([
        ("disk.reads", c.reads),
        ("disk.writes", c.writes),
        ("disk.sequential_hits", c.sequential_hits),
    ]);
}

fn push_ssc(out: &mut Vec<(&'static str, u64)>, ssc: &Ssc) {
    let c: SscCounters = ssc.counters();
    let wal = ssc.wal_counters();
    let ckpt = ssc.checkpoint_counters();
    out.extend([
        ("ssc.host_reads", c.host_reads),
        ("ssc.read_misses", c.read_misses),
        ("ssc.writes_clean", c.writes_clean),
        ("ssc.writes_dirty", c.writes_dirty),
        ("ssc.evict_ops", c.evict_ops),
        ("ssc.clean_ops", c.clean_ops),
        ("ssc.silent_evictions", c.silent_evictions),
        ("ssc.silently_evicted_pages", c.silently_evicted_pages),
        ("ssc.switch_merges", c.switch_merges),
        ("ssc.full_merges", c.full_merges),
        ("ssc.gc_copies", c.gc_copies),
        ("ssc.checkpoints", c.checkpoints),
        ("ssc.cached_pages", ssc.cached_pages()),
        ("wal.flushes", wal.flushes),
        ("wal.records_flushed", wal.records_flushed),
        ("wal.pages_written", wal.pages_written),
        ("ckpt.written", ckpt.written),
        ("ckpt.pages_written", ckpt.pages_written),
    ]);
    push_flash(out, &ssc.flash_counters());
}

fn push_ftl<D: BlockDev>(out: &mut Vec<(&'static str, u64)>, ftl: &D) {
    let c = ftl.ftl_counters();
    out.extend([
        ("ftl.host_reads", c.host_reads),
        ("ftl.host_writes", c.host_writes),
        ("ftl.gc_copies", c.gc_copies),
        ("ftl.switch_merges", c.switch_merges),
        ("ftl.full_merges", c.full_merges),
        ("ftl.gc_collections", c.gc_collections),
    ]);
    push_flash(out, &ftl.flash_counters());
}

/// Read access to the SSC under a possibly traced device.
pub trait HasSsc: SscDevice {
    /// The concrete SSC.
    fn ssc(&self) -> &Ssc;
}

impl HasSsc for Ssc {
    fn ssc(&self) -> &Ssc {
        self
    }
}

impl HasSsc for TracedSsc<Ssc> {
    fn ssc(&self) -> &Ssc {
        self.inner()
    }
}

/// A replayable system whose every layer's counters can be read.
pub trait Observed: CacheSystem {
    /// Simulated results after a replay that took `sim_time_us`.
    fn sim_result(&self, sim_time_us: u64) -> SimResult;
}

fn base_result<S: CacheSystem>(s: &S, disk: &Disk, sim_time_us: u64) -> SimResult {
    let mut counters = Vec::new();
    push_mgr(&mut counters, &s.counters());
    push_disk(&mut counters, disk);
    counters.push(("mgr.host_map_modeled_bytes", s.host_memory().modeled_bytes));
    counters.push(("dev.map_modeled_bytes", s.device_memory().modeled_bytes));
    SimResult {
        sim_time_us,
        counters,
    }
}

impl<D: HasSsc> Observed for FlashTierWt<D> {
    fn sim_result(&self, sim_time_us: u64) -> SimResult {
        let mut r = base_result(self, self.disk(), sim_time_us);
        push_ssc(&mut r.counters, self.ssc().ssc());
        r
    }
}

impl<D: HasSsc> Observed for FlashTierWb<D> {
    fn sim_result(&self, sim_time_us: u64) -> SimResult {
        let mut r = base_result(self, self.disk(), sim_time_us);
        push_ssc(&mut r.counters, self.ssc().ssc());
        r
    }
}

impl Observed for NativeCache<HybridFtl> {
    fn sim_result(&self, sim_time_us: u64) -> SimResult {
        let mut r = base_result(self, self.disk(), sim_time_us);
        push_ftl(&mut r.counters, self.ssd());
        r
    }
}

impl Observed for NativeCache<TracedFtl<HybridFtl>> {
    fn sim_result(&self, sim_time_us: u64) -> SimResult {
        let mut r = base_result(self, self.disk(), sim_time_us);
        push_ftl(&mut r.counters, self.ssd().inner());
        r
    }
}

/// Host time of one replay, split at the layer boundaries the traced
/// loop can see.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopTimes {
    /// Whole replay, ns.
    pub wall_ns: u64,
    /// CPU time of the replaying thread over the whole replay, ns.
    pub cpu_ns: u64,
    /// Inside `BatchCtx::load`, ns (traced only).
    pub decode_ns: u64,
    /// Inside `CacheSystem::run_batch`, ns (traced only).
    pub run_batch_ns: u64,
}

/// What one replay of one system produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Events replayed (trace length × passes).
    pub events: u64,
    /// Host times.
    pub times: LoopTimes,
    /// Simulated results.
    pub sim: SimResult,
    /// Heap bytes of the manager's host-side metadata at the end. Not
    /// part of [`SimResult`]: hash-table growth depends on the per-process
    /// hash seed, so it may differ between identical replays.
    pub host_map_bytes: u64,
}

impl ReplayOutcome {
    /// Host events per wall-clock second.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / (self.times.wall_ns as f64 / 1e9)
    }

    /// Host events per second of the replaying thread's CPU time.
    pub fn events_per_cpu_s(&self) -> f64 {
        self.events as f64 / (self.times.cpu_ns as f64 / 1e9)
    }

    /// Events per simulated second (the paper's Fig. 3 IOPS).
    pub fn sim_iops(&self) -> f64 {
        self.events as f64 / (self.sim.sim_time_us as f64 / 1e6)
    }
}

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this thread has run, ns (`CLOCK_THREAD_CPUTIME_ID`). It counts
/// time on a CPU, so it leaves out time the thread was preempted. (The
/// same total read from `/proc/thread-self/schedstat` lags by up to one
/// scheduler tick, 4 ms at 250 Hz: a third of a set-up.) 0 when
/// unavailable (the caller's metrics then read as not finite and the run
/// is marked incorrect).
pub fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
        // id is a constant the kernel defines; the call writes only `ts`.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    0
}

fn outcome<S: Observed>(
    system: &S,
    events: u64,
    times: LoopTimes,
    sim_time_us: u64,
) -> ReplayOutcome {
    ReplayOutcome {
        events,
        times,
        sim: system.sim_result(sim_time_us),
        host_map_bytes: system.host_memory().heap_bytes,
    }
}

/// Replays `events` `passes` times through `system` with the program's own
/// batched driver, `cachemgr::replay_batched`, one call per pass.
///
/// # Errors
///
/// The first device failure, as a message.
pub fn replay<S: Observed>(
    system: &mut S,
    events: &[TraceEvent],
    passes: u32,
) -> Result<ReplayOutcome, String> {
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let mut sim_time_us = 0u64;
    for pass in 0..passes {
        let stats = replay_batched(system, events, BATCH)
            .map_err(|e| format!("replay failed in pass {pass}: {e}"))?;
        sim_time_us += stats.sim_time.as_micros();
    }
    let times = LoopTimes {
        wall_ns: start.elapsed().as_nanos() as u64,
        cpu_ns: thread_cpu_ns().saturating_sub(cpu_start),
        ..LoopTimes::default()
    };
    let n = events.len() as u64 * u64::from(passes);
    Ok(outcome(system, n, times, sim_time_us))
}

/// The traced twin of [`replay`]: the same batches as `replay_batched`
/// (loaded with `BatchCtx::load`, run with `CacheSystem::run_batch`),
/// each recorded as a span with its decode and run_batch children. Device
/// calls made during run_batch are parented to the run_batch span. Every
/// traced run checks that its simulated results equal [`replay`]'s.
///
/// # Errors
///
/// The first device failure, as a message.
pub fn replay_traced<S: Observed>(
    system: &mut S,
    events: &[TraceEvent],
    passes: u32,
    log: &mut SpanLog,
) -> Result<ReplayOutcome, String> {
    let mut times = LoopTimes::default();
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let mut sim_time_us = 0u64;
    for pass in 0..passes {
        let mut ctx = BatchCtx::new(system.block_size());
        let mut base = 0u64;
        for chunk in events.chunks(BATCH) {
            let batch_id = wrap::next_span_id();
            let run_id = wrap::next_span_id();
            let t0 = wrap::now_ns();
            ctx.load(chunk, base);
            let t1 = wrap::now_ns();
            wrap::set_parent(run_id);
            let r = system.run_batch(&mut ctx);
            wrap::set_parent(0);
            let t2 = wrap::now_ns();
            r.map_err(|e| format!("replay failed in pass {pass} at event {base}: {e}"))?;
            times.decode_ns += t1 - t0;
            times.run_batch_ns += t2 - t1;
            for (id, parent, name, s, e) in [
                (batch_id, 0, "replay.batch", t0, t2),
                (wrap::next_span_id(), batch_id, "cachemgr.decode", t0, t1),
                (run_id, batch_id, "cachemgr.run_batch", t1, t2),
            ] {
                log.push(Span {
                    id,
                    parent,
                    name,
                    start_ns: s,
                    end_ns: e,
                });
            }
            base += chunk.len() as u64;
        }
        sim_time_us += ctx.accum().sim_time().as_micros();
    }
    times.wall_ns = start.elapsed().as_nanos() as u64;
    times.cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
    let n = events.len() as u64 * u64::from(passes);
    Ok(outcome(system, n, times, sim_time_us))
}

/// Builds `system`'s stack with the repository's own constructors
/// ([`ReplaySetup::flashtier_wt`] and its siblings) and replays the trace
/// through it.
pub fn run_plain(
    system: System,
    shape: &Shape,
    events: &[TraceEvent],
) -> Result<ReplayOutcome, String> {
    let (setup, passes) = (&shape.setup, shape.passes);
    match system {
        System::Wt => replay(&mut setup.flashtier_wt(), events, passes),
        System::Wb => replay(&mut setup.flashtier_wb(), events, passes),
        System::Native => replay(&mut setup.native_wb(), events, passes),
    }
}

/// A traced replay: the outcome plus the device probe and every span.
#[derive(Debug)]
pub struct TracedOutcome {
    /// The replay outcome (simulated results must equal the plain run's).
    pub outcome: ReplayOutcome,
    /// The device wrapper's tallies.
    pub probe: Probe,
    /// Batch spans and sampled device-call spans.
    pub spans: SpanLog,
}

fn traced_run<S: Observed>(
    mut stack: S,
    events: &[TraceEvent],
    passes: u32,
    probe: impl FnOnce(&S) -> &Probe,
) -> Result<TracedOutcome, String> {
    let mut spans = SpanLog::default();
    let outcome = replay_traced(&mut stack, events, passes, &mut spans)?;
    let mut probe = probe(&stack).clone();
    spans.absorb(probe.take_spans());
    Ok(TracedOutcome {
        outcome,
        probe,
        spans,
    })
}

/// Builds `system`'s stack over a traced device and replays the trace.
pub fn run_traced(
    system: System,
    shape: &Shape,
    events: &[TraceEvent],
) -> Result<TracedOutcome, String> {
    let passes = shape.passes;
    match system {
        System::Wt => traced_run(shape.wt(TracedSsc::new), events, passes, |s| {
            s.ssc().probe()
        }),
        System::Wb => traced_run(shape.wb(TracedSsc::new), events, passes, |s| {
            s.ssc().probe()
        }),
        System::Native => traced_run(shape.native(TracedFtl::new), events, passes, |s| {
            s.ssd().probe()
        }),
    }
}
