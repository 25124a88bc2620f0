//! The cache-device abstraction the managers program against.
//!
//! [`SscDevice`] captures the slice of the SSC interface (§4.2.1 operations
//! plus the crash/recovery and fault-injection hooks) that the cache
//! managers and the replay harness actually use. [`Ssc`] implements it;
//! so can a wrapper that forwards to an `Ssc` (an instrumented device, for
//! example), and a manager is constructed over either interchangeably.
//! Sharding happens above the managers: a sharded build runs N complete
//! manager stacks, each over its own `Ssc` (see [`crate::shard`]).

use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::device::{Ssc, SscCounters};
use crate::Result;

/// A solid-state cache device: the six interface operations, crash
/// machinery, and the introspection the managers need.
pub trait SscDevice {
    /// Device page size in bytes.
    fn page_size(&self) -> usize;

    /// Advisory data capacity in pages.
    fn data_capacity_pages(&self) -> u64;

    /// Number of pages currently cached.
    fn cached_pages(&self) -> u64;

    /// Cumulative device statistics.
    fn counters(&self) -> SscCounters;

    /// Injected-fault statistics (zeros when no plan is installed).
    fn fault_counters(&self) -> flashsim::FaultCounters;

    /// Installs a deterministic media-fault plan.
    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan);

    /// Device-memory footprint of the mapping structures.
    fn map_memory(&self) -> MapMemory;

    /// `read`: fill `buf` with the cached data for `lba`.
    ///
    /// # Errors
    ///
    /// [`crate::SscError::NotPresent`] on a miss, or a flash fault.
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration>;

    /// `read` without materializing the payload — same lookup, counters,
    /// fault draw and timing as [`SscDevice::read_into`], for callers that
    /// discard the data (the batched replay hit path). The default falls
    /// back to a buffered read; devices override it to skip the fill.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SscDevice::read_into`].
    fn read_sink(&mut self, lba: u64) -> Result<Duration> {
        let mut buf = PageBuf::new();
        self.read_into(lba, &mut buf)
    }

    /// `true` when the device provably ignores payload bytes (discard-mode
    /// emulation): writes retain no data and reads synthesize it. Managers
    /// use this — together with the same property on the disk tier — to
    /// skip materializing payloads the simulation never looks at. The
    /// conservative default keeps store-mode semantics.
    fn payload_discarded(&self) -> bool {
        false
    }

    /// Sink-reads a run of LBAs, pushing each served event's cost onto
    /// `costs` and stopping at the first non-`Ok` event. Returns how many
    /// leading events were fully served plus the error that stopped the
    /// run. Must be exactly equivalent to calling [`SscDevice::read_sink`]
    /// per LBA: the stopping event carries the same side effects its
    /// scalar read would have had, so the caller resumes scalar error
    /// handling at that event.
    fn read_run_sink(
        &mut self,
        lbas: &[u64],
        costs: &mut Vec<Duration>,
    ) -> (usize, Option<crate::SscError>) {
        for (i, &lba) in lbas.iter().enumerate() {
            match self.read_sink(lba) {
                Ok(cost) => costs.push(cost),
                Err(e) => return (i, Some(e)),
            }
        }
        (lbas.len(), None)
    }

    /// `write-clean`: insert or update `lba` with clean data.
    ///
    /// # Errors
    ///
    /// Bad page size, out of space, or a flash fault.
    fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// `write-dirty`: insert or update `lba` with dirty data; durable
    /// before the call returns.
    ///
    /// # Errors
    ///
    /// Bad page size, out of space, or a flash fault.
    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// `evict`: force `lba` out of the cache.
    ///
    /// # Errors
    ///
    /// Flash faults only.
    fn evict(&mut self, lba: u64) -> Result<Duration>;

    /// `clean`: mark `lba` eligible for silent eviction.
    ///
    /// # Errors
    ///
    /// Flash faults only.
    fn clean(&mut self, lba: u64) -> Result<Duration>;

    /// `exists`: the dirty blocks within `[start, end)`, sorted.
    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration);

    /// Durability barrier: synchronously commits any buffered
    /// (group-commit) log records, so every previously acknowledged
    /// operation survives a crash. The server's graceful-shutdown drain
    /// runs every shard stack through it.
    ///
    /// # Errors
    ///
    /// Flash faults, or a scripted power loss armed at the commit site.
    fn barrier_flush(&mut self) -> Result<Duration>;

    /// Simulates a power failure; returns the number of buffered log
    /// records lost.
    fn crash(&mut self) -> usize;

    /// Roll-forward recovery after a crash; returns the simulated recovery
    /// time.
    ///
    /// # Errors
    ///
    /// Flash faults while reconciling block state.
    fn recover(&mut self) -> Result<Duration>;
}

impl SscDevice for Ssc {
    fn page_size(&self) -> usize {
        Ssc::page_size(self)
    }

    fn data_capacity_pages(&self) -> u64 {
        Ssc::data_capacity_pages(self)
    }

    fn cached_pages(&self) -> u64 {
        Ssc::cached_pages(self)
    }

    fn counters(&self) -> SscCounters {
        Ssc::counters(self)
    }

    fn fault_counters(&self) -> flashsim::FaultCounters {
        Ssc::fault_counters(self)
    }

    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        Ssc::set_fault_plan(self, plan)
    }

    fn map_memory(&self) -> MapMemory {
        Ssc::map_memory(self)
    }

    fn payload_discarded(&self) -> bool {
        self.data_mode() == flashsim::DataMode::Discard
    }

    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        Ssc::read_into(self, lba, buf)
    }

    fn read_sink(&mut self, lba: u64) -> Result<Duration> {
        Ssc::read_sink(self, lba)
    }

    fn read_run_sink(
        &mut self,
        lbas: &[u64],
        costs: &mut Vec<Duration>,
    ) -> (usize, Option<crate::SscError>) {
        Ssc::read_run_sink(self, lbas, costs)
    }

    fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        Ssc::write_clean(self, lba, data)
    }

    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        Ssc::write_dirty(self, lba, data)
    }

    fn evict(&mut self, lba: u64) -> Result<Duration> {
        Ssc::evict(self, lba)
    }

    fn clean(&mut self, lba: u64) -> Result<Duration> {
        Ssc::clean(self, lba)
    }

    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        Ssc::exists(self, start, end)
    }

    fn barrier_flush(&mut self) -> Result<Duration> {
        Ssc::commit_log(self)
    }

    fn crash(&mut self) -> usize {
        Ssc::crash(self)
    }

    fn recover(&mut self) -> Result<Duration> {
        Ssc::recover(self)
    }
}
