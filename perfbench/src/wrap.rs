//! Timing wrappers placed at the trait seams the crates already expose.
//!
//! The benchmark measures layers from outside the program: a wrapper
//! implements the same trait as the device or stack it wraps, forwards
//! every call unchanged, counts every call and the simulated time it
//! returned, and times every call of the heavy-tailed operations and a
//! deterministic sample (about one in [`SAMPLE_EVERY`]) of the cheap
//! frequent ones (see [`OpSpec`]). Sampled calls are recorded as spans
//! whose parent is the enclosing batch (see [`set_parent`]).
//!
//! * [`TracedSsc`] sits under `FlashTierWt<D>`/`FlashTierWb<D>` as the
//!   `SscDevice`; its time includes sparsemap, WAL, checkpoint and flashsim
//!   host time.
//! * [`TracedFtl`] sits under `NativeCache<D>` as the `BlockDev`.
//! * [`TracedServe`] wraps each `ShardSet` stack handed to `Server::start`,
//!   so its time is the shard apply time of the server's workers.
//!
//! Wrappers must be transparent: they forward `read_sink`,
//! `read_run_sink` and `payload_discarded`, because the managers select
//! their Discard-mode fast paths from those; the crate's transparency
//! test checks that wrapped and plain stacks give identical results.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cachemgr::{BatchCtx, CacheSystem, MgrCounters, PageBuf};
use flashtier_core::{SscCounters, SscDevice, SscError};
use flashtier_server::ServeSystem;
use ftl::{BlockDev, FtlCounters};
use simkit::Duration;
use sparsemap::MapMemory;

/// About one call in this many, per operation, is recorded as a span, and
/// for the frequent cheap operations also timed. Timing a call costs two
/// clock reads (about 100 ns on a VM clock), more than a cache-hit read.
pub const SAMPLE_EVERY: u64 = 64;

/// How a wrapper treats one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// Span and metric name, e.g. `core.write_dirty`.
    pub name: &'static str,
    /// Time every call, not only the sampled ones. Used for operations
    /// whose cost is heavy-tailed (writes that may trigger a merge or
    /// garbage collection): a 1-in-64 sample of them misses or over-counts
    /// the rare millisecond calls. Reads are cheap and uniform, and so
    /// frequent that timing every one would distort them.
    pub time_every_call: bool,
}

const fn sampled_op(name: &'static str) -> OpSpec {
    OpSpec {
        name,
        time_every_call: false,
    }
}

const fn every_op(name: &'static str) -> OpSpec {
    OpSpec {
        name,
        time_every_call: true,
    }
}

/// Whether call number `n` of an operation is sampled: a hash of `n`, not
/// `n` itself, because device work is periodic in the call count (a
/// 64-page erase block fills every 64 writes), and a stride would time
/// the same phase of that period every time.
#[inline]
fn sampled(n: u64) -> bool {
    let mut x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 32).is_multiple_of(SAMPLE_EVERY)
}

/// Upper bound on spans kept in memory per recorder; calls past it are
/// still counted and timed, only not kept as spans.
const SPAN_CAP: usize = 1 << 18;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span identifier (never 0; 0 means "no parent").
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Sets the span that calls made on this thread are children of.
pub fn set_parent(id: u64) {
    PARENT.with(|p| p.set(id));
}

fn current_parent() -> u64 {
    PARENT.with(|p| p.get())
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique identifier.
    pub id: u64,
    /// The enclosing span (0 = none).
    pub parent: u64,
    /// Layer and operation, e.g. `core.write_dirty`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

/// A bounded in-memory span buffer.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records one span, unless the cap is reached.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        for s in other.spans {
            self.push(s);
        }
    }
}

/// Per-operation tallies: every call is counted, a sample is timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    /// Calls made.
    pub calls: u64,
    /// Calls timed (sampled, or every call; see [`OpSpec`]).
    pub sampled_calls: u64,
    /// Items handled (LBAs; more than `calls` for batched reads).
    pub items: u64,
    /// Items handled by the timed calls.
    pub sampled_items: u64,
    /// Host ns spent in the timed calls.
    pub sampled_ns: u64,
    /// Simulated time returned by all calls, µs.
    pub sim_us: u64,
}

impl OpStat {
    /// Mean simulated µs per item.
    pub fn sim_us_per_item(&self) -> f64 {
        ratio(self.sim_us as f64, self.items as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The counting and sampling state one wrapper carries.
#[derive(Debug, Clone)]
pub struct Probe {
    specs: &'static [OpSpec],
    ops: Vec<OpStat>,
    spans: SpanLog,
}

/// An in-flight call: whether it is timed and recorded, and when it began.
pub struct Call {
    op: usize,
    start: Option<u64>,
    span: bool,
    parent: u64,
}

impl Probe {
    /// A probe for the operations in `specs` (indexed by operation
    /// number).
    pub fn new(specs: &'static [OpSpec]) -> Self {
        Probe {
            specs,
            ops: vec![OpStat::default(); specs.len()],
            spans: SpanLog::default(),
        }
    }

    /// Starts the next call of `op`: a span if [`sampled`], timed if
    /// sampled or the operation is timed on every call.
    #[inline]
    pub fn begin(&mut self, op: usize) -> Call {
        let stat = &mut self.ops[op];
        stat.calls += 1;
        let span = sampled(stat.calls);
        let timed = span || self.specs[op].time_every_call;
        Call {
            op,
            start: timed.then(now_ns),
            span,
            parent: if span { current_parent() } else { 0 },
        }
    }

    /// Ends a call that handled `items` items and returned `sim` of
    /// simulated time.
    #[inline]
    pub fn end(&mut self, call: Call, items: u64, sim: Duration) {
        let stat = &mut self.ops[call.op];
        stat.items += items;
        stat.sim_us += sim.as_micros();
        if let Some(start) = call.start {
            let end = now_ns();
            stat.sampled_calls += 1;
            stat.sampled_items += items;
            stat.sampled_ns += end - start;
            if call.span {
                self.spans.push(Span {
                    id: next_span_id(),
                    parent: call.parent,
                    name: self.specs[call.op].name,
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
    }

    /// Per-operation tallies, indexed like the name table.
    pub fn ops(&self) -> &[OpStat] {
        &self.ops
    }

    /// The recorded spans.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Takes the recorded spans out of the probe.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.spans)
    }
}

fn sim_of<E>(r: &Result<Duration, E>) -> Duration {
    match r {
        Ok(d) => *d,
        Err(_) => Duration::ZERO,
    }
}

/// SSC operations the managers issue, in probe index order.
pub const SSC_OPS: [OpSpec; 7] = [
    sampled_op("core.read"),
    every_op("core.write_clean"),
    every_op("core.write_dirty"),
    every_op("core.clean"),
    every_op("core.evict"),
    every_op("core.exists"),
    every_op("core.barrier_flush"),
];
const SSC_READ: usize = 0;
const SSC_WRITE_CLEAN: usize = 1;
const SSC_WRITE_DIRTY: usize = 2;
const SSC_CLEAN: usize = 3;
const SSC_EVICT: usize = 4;
const SSC_EXISTS: usize = 5;
const SSC_BARRIER: usize = 6;

/// An `SscDevice` that forwards to `D` and probes every operation.
#[derive(Debug)]
pub struct TracedSsc<D> {
    inner: D,
    probe: Probe,
}

impl<D: SscDevice> TracedSsc<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        TracedSsc {
            inner,
            probe: Probe::new(&SSC_OPS),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The probe's tallies.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    fn timed(
        &mut self,
        op: usize,
        f: impl FnOnce(&mut D) -> flashtier_core::Result<Duration>,
    ) -> flashtier_core::Result<Duration> {
        let call = self.probe.begin(op);
        let r = f(&mut self.inner);
        self.probe.end(call, 1, sim_of(&r));
        r
    }
}

impl<D: SscDevice> SscDevice for TracedSsc<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn data_capacity_pages(&self) -> u64 {
        self.inner.data_capacity_pages()
    }

    fn cached_pages(&self) -> u64 {
        self.inner.cached_pages()
    }

    fn counters(&self) -> SscCounters {
        self.inner.counters()
    }

    fn fault_counters(&self) -> flashsim::FaultCounters {
        self.inner.fault_counters()
    }

    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        self.inner.set_fault_plan(plan)
    }

    fn map_memory(&self) -> MapMemory {
        self.inner.map_memory()
    }

    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> flashtier_core::Result<Duration> {
        self.timed(SSC_READ, |d| d.read_into(lba, buf))
    }

    fn read_sink(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        self.timed(SSC_READ, |d| d.read_sink(lba))
    }

    fn payload_discarded(&self) -> bool {
        self.inner.payload_discarded()
    }

    fn read_run_sink(
        &mut self,
        lbas: &[u64],
        costs: &mut Vec<Duration>,
    ) -> (usize, Option<SscError>) {
        let call = self.probe.begin(SSC_READ);
        let before = costs.len();
        let (served, err) = self.inner.read_run_sink(lbas, costs);
        let sim = costs[before..]
            .iter()
            .fold(Duration::ZERO, |acc, &c| acc + c);
        // The stopping event was attempted too.
        let items = served as u64 + u64::from(err.is_some());
        self.probe.end(call, items, sim);
        (served, err)
    }

    fn write_clean(&mut self, lba: u64, data: &[u8]) -> flashtier_core::Result<Duration> {
        self.timed(SSC_WRITE_CLEAN, |d| d.write_clean(lba, data))
    }

    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> flashtier_core::Result<Duration> {
        self.timed(SSC_WRITE_DIRTY, |d| d.write_dirty(lba, data))
    }

    fn evict(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        self.timed(SSC_EVICT, |d| d.evict(lba))
    }

    fn clean(&mut self, lba: u64) -> flashtier_core::Result<Duration> {
        self.timed(SSC_CLEAN, |d| d.clean(lba))
    }

    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        let call = self.probe.begin(SSC_EXISTS);
        let (dirty, cost) = self.inner.exists(start, end);
        self.probe.end(call, 1, cost);
        (dirty, cost)
    }

    fn barrier_flush(&mut self) -> flashtier_core::Result<Duration> {
        self.timed(SSC_BARRIER, |d| d.barrier_flush())
    }

    fn crash(&mut self) -> usize {
        self.inner.crash()
    }

    fn recover(&mut self) -> flashtier_core::Result<Duration> {
        self.inner.recover()
    }
}

/// FTL operations the Native manager issues, in probe index order.
pub const FTL_OPS: [OpSpec; 3] = [
    sampled_op("ftl.read"),
    every_op("ftl.write"),
    every_op("ftl.trim"),
];
const FTL_READ: usize = 0;
const FTL_WRITE: usize = 1;
const FTL_TRIM: usize = 2;

/// A `BlockDev` that forwards to `D` and probes every operation.
#[derive(Debug)]
pub struct TracedFtl<D> {
    inner: D,
    probe: Probe,
}

impl<D: BlockDev> TracedFtl<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        TracedFtl {
            inner,
            probe: Probe::new(&FTL_OPS),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The probe's tallies.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    fn timed(
        &mut self,
        op: usize,
        f: impl FnOnce(&mut D) -> ftl::Result<Duration>,
    ) -> ftl::Result<Duration> {
        let call = self.probe.begin(op);
        let r = f(&mut self.inner);
        self.probe.end(call, 1, sim_of(&r));
        r
    }
}

impl<D: BlockDev> BlockDev for TracedFtl<D> {
    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> ftl::Result<Duration> {
        self.timed(FTL_READ, |d| d.read_into(lba, buf))
    }

    fn read_sink(&mut self, lba: u64) -> ftl::Result<Duration> {
        self.timed(FTL_READ, |d| d.read_sink(lba))
    }

    fn payload_discarded(&self) -> bool {
        self.inner.payload_discarded()
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> ftl::Result<Duration> {
        self.timed(FTL_WRITE, |d| d.write(lba, data))
    }

    fn trim(&mut self, lba: u64) -> ftl::Result<Duration> {
        self.timed(FTL_TRIM, |d| d.trim(lba))
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

    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        self.inner.set_fault_plan(plan)
    }

    fn fault_counters(&self) -> flashsim::FaultCounters {
        self.inner.fault_counters()
    }
}

/// Stack operations the server's workers apply, in probe index order.
pub const SERVE_OPS: [OpSpec; 3] = [
    sampled_op("server.apply_get"),
    sampled_op("server.apply_put"),
    sampled_op("server.apply_batch"),
];
const SERVE_GET: usize = 0;
const SERVE_PUT: usize = 1;
const SERVE_BATCH: usize = 2;

/// A shard stack that forwards to `S` and probes every applied request.
/// Besides the sampled probe it times *every* call into a shared meter:
/// a shard applies at most ~10^5 requests per second, so the clock cost is
/// small next to a request, and the busy ratio needs the full sum while
/// the stack is owned by a server worker.
#[derive(Debug)]
pub struct TracedServe<S> {
    inner: S,
    probe: Probe,
    apply_ns: Arc<AtomicU64>,
}

impl<S: CacheSystem> TracedServe<S> {
    /// Wraps `inner`; host ns spent inside it accumulate in `apply_ns`.
    pub fn new(inner: S, apply_ns: Arc<AtomicU64>) -> Self {
        TracedServe {
            inner,
            probe: Probe::new(&SERVE_OPS),
            apply_ns,
        }
    }

    /// The probe's tallies.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    fn timed(
        &mut self,
        op: usize,
        f: impl FnOnce(&mut S) -> cachemgr::Result<Duration>,
    ) -> cachemgr::Result<Duration> {
        let call = self.probe.begin(op);
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.apply_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.probe.end(call, 1, sim_of(&r));
        r
    }
}

impl<S: CacheSystem> CacheSystem for TracedServe<S> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> cachemgr::Result<Duration> {
        self.timed(SERVE_GET, |s| s.read_into(lba, buf))
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> cachemgr::Result<Duration> {
        self.timed(SERVE_PUT, |s| s.write(lba, data))
    }

    fn run_batch(&mut self, ops: &mut BatchCtx) -> cachemgr::Result<()> {
        let call = self.probe.begin(SERVE_BATCH);
        let start = Instant::now();
        let r = self.inner.run_batch(ops);
        self.apply_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.probe.end(call, ops.len() as u64, Duration::ZERO);
        r
    }

    fn counters(&self) -> MgrCounters {
        self.inner.counters()
    }

    fn host_memory(&self) -> MapMemory {
        self.inner.host_memory()
    }

    fn device_memory(&self) -> MapMemory {
        self.inner.device_memory()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: ServeSystem> ServeSystem for TracedServe<S> {
    fn barrier_flush(&mut self) -> cachemgr::Result<Duration> {
        self.inner.barrier_flush()
    }
}
