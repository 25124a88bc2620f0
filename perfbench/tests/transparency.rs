//! The timing wrappers must not change what they measure: a stack built
//! over traced devices must produce the same simulated results as the
//! plain stack, and must take the same data paths. The managers choose
//! their Discard-mode fast paths from `payload_discarded`, `read_sink`
//! and `read_run_sink`; a wrapper that fell back to the trait defaults
//! would still give equal results while running a different program, so
//! the paths are checked with a spy device under both stacks.

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, NativeCache, PageBuf};
use flashtier_core::{Ssc, SscCounters, SscDevice, SscError};
use flashtier_perfbench::replay::{self, Observed, Shape, System};
use flashtier_perfbench::serve;
use flashtier_perfbench::wrap::{TracedFtl, TracedServe, TracedSsc};
use flashtier_server::{BlockClient, ServeSystem, ServerStats};
use ftl::{BlockDev, FtlCounters, HybridFtl};
use simkit::Duration;
use sparsemap::MapMemory;

#[test]
fn traced_replay_matches_plain_replay_for_every_system() {
    let shape = Shape::tiny(7);
    let trace = shape.trace();
    for sys in System::ALL {
        let plain = replay::run_plain(sys, &shape, &trace.events).expect("plain replay");
        let traced = replay::run_traced(sys, &shape, &trace.events).expect("traced replay");
        assert_eq!(plain.sim, traced.outcome.sim, "{} diverged", sys.key());
        let items: u64 = traced.probe.ops().iter().map(|o| o.items).sum();
        assert!(items > 0, "{}: the wrapper saw no device calls", sys.key());
        assert!(
            traced.spans.spans().iter().any(|s| s.parent != 0),
            "{}: sampled device spans carry their batch parent",
            sys.key()
        );
    }
}

/// Which data-path entry points the manager used.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Paths {
    read_into: u64,
    read_sink: u64,
    read_run_sink: u64,
    discard_queries: u64,
}

/// An `SscDevice` that forwards to the SSC and counts which read entry
/// point each call came through.
struct SpySsc {
    inner: Ssc,
    paths: Paths,
    discard_queries: Cell<u64>,
}

impl SpySsc {
    fn new(inner: Ssc) -> Self {
        SpySsc {
            inner,
            paths: Paths::default(),
            discard_queries: Cell::new(0),
        }
    }

    fn paths(&self) -> Paths {
        Paths {
            discard_queries: self.discard_queries.get(),
            ..self.paths.clone()
        }
    }
}

impl SscDevice for SpySsc {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn data_capacity_pages(&self) -> u64 {
        SscDevice::data_capacity_pages(&self.inner)
    }
    fn cached_pages(&self) -> u64 {
        SscDevice::cached_pages(&self.inner)
    }
    fn counters(&self) -> SscCounters {
        SscDevice::counters(&self.inner)
    }
    fn fault_counters(&self) -> flashsim::FaultCounters {
        SscDevice::fault_counters(&self.inner)
    }
    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        SscDevice::set_fault_plan(&mut self.inner, plan)
    }
    fn map_memory(&self) -> MapMemory {
        SscDevice::map_memory(&self.inner)
    }
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> flashtier_core::Result<Duration> {
        self.paths.read_into += 1;
        SscDevice::read_into(&mut self.inner, lba, buf)
    }
    fn read_sink(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        self.paths.read_sink += 1;
        SscDevice::read_sink(&mut self.inner, lba)
    }
    fn payload_discarded(&self) -> bool {
        self.discard_queries.set(self.discard_queries.get() + 1);
        self.inner.payload_discarded()
    }
    fn read_run_sink(
        &mut self,
        lbas: &[u64],
        costs: &mut Vec<Duration>,
    ) -> (usize, Option<SscError>) {
        self.paths.read_run_sink += 1;
        SscDevice::read_run_sink(&mut self.inner, lbas, costs)
    }
    fn write_clean(&mut self, lba: u64, data: &[u8]) -> flashtier_core::Result<Duration> {
        SscDevice::write_clean(&mut self.inner, lba, data)
    }
    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> flashtier_core::Result<Duration> {
        SscDevice::write_dirty(&mut self.inner, lba, data)
    }
    fn evict(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        SscDevice::evict(&mut self.inner, lba)
    }
    fn clean(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        SscDevice::clean(&mut self.inner, lba)
    }
    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        SscDevice::exists(&mut self.inner, start, end)
    }
    fn barrier_flush(&mut self) -> flashtier_core::Result<Duration> {
        SscDevice::barrier_flush(&mut self.inner)
    }
    fn crash(&mut self) -> usize {
        SscDevice::crash(&mut self.inner)
    }
    fn recover(&mut self) -> flashtier_core::Result<Duration> {
        SscDevice::recover(&mut self.inner)
    }
}

/// A `BlockDev` that forwards to the hybrid FTL and counts read paths.
struct SpyFtl {
    inner: HybridFtl,
    paths: Paths,
    discard_queries: Cell<u64>,
}

impl SpyFtl {
    fn new(inner: HybridFtl) -> Self {
        SpyFtl {
            inner,
            paths: Paths::default(),
            discard_queries: Cell::new(0),
        }
    }

    fn paths(&self) -> Paths {
        Paths {
            discard_queries: self.discard_queries.get(),
            ..self.paths.clone()
        }
    }
}

impl BlockDev for SpyFtl {
    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> ftl::Result<Duration> {
        self.paths.read_into += 1;
        self.inner.read_into(lba, buf)
    }
    fn read_sink(&mut self, lba: u64) -> ftl::Result<Duration> {
        self.paths.read_sink += 1;
        self.inner.read_sink(lba)
    }
    fn payload_discarded(&self) -> bool {
        self.discard_queries.set(self.discard_queries.get() + 1);
        self.inner.payload_discarded()
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> ftl::Result<Duration> {
        self.inner.write(lba, data)
    }
    fn trim(&mut self, lba: u64) -> ftl::Result<Duration> {
        self.inner.trim(lba)
    }
    fn ftl_counters(&self) -> FtlCounters {
        self.inner.ftl_counters()
    }
    fn flash_counters(&self) -> flashsim::FlashCounters {
        self.inner.flash_counters()
    }
    fn wear(&self) -> flashsim::WearStats {
        self.inner.wear()
    }
    fn map_memory(&self) -> MapMemory {
        self.inner.map_memory()
    }
}

/// Replays the tiny trace through `system` and returns its simulated time.
fn replay_sim<S: CacheSystem>(system: &mut S, shape: &Shape) -> u64 {
    let trace = shape.trace();
    let mut ctx = cachemgr::BatchCtx::new(system.block_size());
    for _ in 0..shape.passes {
        for (k, chunk) in trace.events.chunks(replay::BATCH).enumerate() {
            ctx.load(chunk, (k * replay::BATCH) as u64);
            system.run_batch(&mut ctx).expect("replay");
        }
    }
    ctx.accum().sim_time().as_micros()
}

#[test]
fn ssc_wrapper_forwards_the_fast_path_entry_points() {
    let shape = Shape::tiny(11);
    let mut plain_wt = shape.wt(SpySsc::new);
    let mut traced_wt = shape.wt(|s| TracedSsc::new(SpySsc::new(s)));
    assert_eq!(
        replay_sim(&mut plain_wt, &shape),
        replay_sim(&mut traced_wt, &shape)
    );
    let (p, t) = (plain_wt.ssc().paths(), traced_wt.ssc().inner().paths());
    assert_eq!(p, t, "write-through read paths differ under the wrapper");
    assert!(
        p.read_run_sink > 0,
        "the write-through hit path batches reads"
    );
    assert!(
        p.discard_queries > 0,
        "the manager asks whether payloads are discarded"
    );

    let mut plain_wb = shape.wb(SpySsc::new);
    let mut traced_wb = shape.wb(|s| TracedSsc::new(SpySsc::new(s)));
    assert_eq!(
        replay_sim(&mut plain_wb, &shape),
        replay_sim(&mut traced_wb, &shape)
    );
    let (p, t) = (plain_wb.ssc().paths(), traced_wb.ssc().inner().paths());
    assert_eq!(p, t, "write-back read paths differ under the wrapper");
    assert!(
        p.read_sink + p.read_run_sink > 0,
        "the write-back hit path sink-reads"
    );
}

#[test]
fn ftl_wrapper_forwards_the_fast_path_entry_points() {
    let shape = Shape::tiny(13);
    let mut plain: NativeCache<SpyFtl> = shape.native(SpyFtl::new);
    let mut traced = shape.native(|d| TracedFtl::new(SpyFtl::new(d)));
    assert_eq!(
        replay_sim(&mut plain, &shape),
        replay_sim(&mut traced, &shape)
    );
    let (p, t) = (plain.ssd().paths(), traced.ssd().inner().paths());
    assert_eq!(p, t, "native read paths differ under the wrapper");
    assert!(p.read_sink > 0, "the native hit path sink-reads");
    assert!(
        p.discard_queries > 0,
        "the manager asks whether payloads are discarded"
    );
}

#[test]
fn wrapped_stacks_are_observable_like_plain_ones() {
    // The wrappers are reachable for counters through the manager.
    let shape = Shape::tiny(17);
    let wt = shape.wt(TracedSsc::new);
    assert_eq!(wt.sim_result(0).get("mgr.reads"), 0);
    let wb: FlashTierWb<TracedSsc<Ssc>> = shape.wb(TracedSsc::new);
    assert!(
        wb.ssc().payload_discarded(),
        "discard mode is visible through the wrapper"
    );
    let native = shape.native(TracedFtl::new);
    assert!(native.ssd().payload_discarded());
}

/// Serves the first `n` trace events one at a time over one connection
/// (so every shard sees the same order on every run) and returns the
/// server counters and each shard's manager counters after shutdown.
fn serve_in_order<S: ServeSystem + 'static>(
    set: cachemgr::ShardSet<S>,
    shape: &Shape,
    n: usize,
) -> (ServerStats, Vec<cachemgr::MgrCounters>) {
    let trace = shape.trace();
    let server = serve::start(set).expect("start server");
    let mut client = BlockClient::connect(server.addr()).expect("connect");
    let block = client.block_size();
    for (i, e) in trace.events.iter().take(n).enumerate() {
        let resp = if e.is_write() {
            let mut data = vec![0u8; block];
            data[..8].copy_from_slice(&(i as u64).to_le_bytes());
            client.put(e.lba, &data)
        } else {
            client.get(e.lba)
        }
        .expect("request");
        assert!(resp.ok(), "request {i} failed");
    }
    drop(client);
    let (down, stacks) = serve::stop(server);
    assert_eq!(down.unhealthy_shards, 0);
    let stacks = stacks.expect("stacks returned");
    (
        down.stats,
        stacks.shards().iter().map(|s| s.counters()).collect(),
    )
}

#[test]
fn wrapped_shard_set_serves_like_the_plain_one() {
    let shape = Shape::tiny(19);
    let n = 3_000;
    let (plain_stats, plain_counters) =
        serve_in_order(serve::shard_set(&shape, |s: FlashTierWt| s), &shape, n);
    let meters: Vec<Arc<AtomicU64>> = (0..serve::SHARDS).map(|_| Arc::default()).collect();
    let mut next = meters.iter();
    let traced_set = serve::shard_set(&shape, |s| {
        TracedServe::new(s, Arc::clone(next.next().expect("meter")))
    });
    let (traced_stats, traced_counters) = serve_in_order(traced_set, &shape, n);
    assert_eq!(plain_stats.gets + plain_stats.puts, n as u64);
    assert_eq!(plain_stats.sim_time_us, traced_stats.sim_time_us);
    assert_eq!(plain_counters, traced_counters);
    let applied: u64 = meters
        .iter()
        .map(|m| m.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert!(applied > 0, "the serve wrapper metered apply time");
}
