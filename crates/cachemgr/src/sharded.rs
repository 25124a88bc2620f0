//! Share-nothing shard sets: the concurrent-session surface over the
//! managers.
//!
//! A single manager is a sequential object — every operation takes
//! `&mut self`. To serve thousands of concurrent sessions the stack is
//! partitioned *at the manager level*: N complete manager stacks (each over
//! a `1/N` geometry split of the cache device and its own disk tier), with
//! a [`ShardRouter`] deciding which stack owns each LBA. It is the one
//! shard representation: sharded replay runs each stack on its own
//! thread, and a front-end (the `flashtier-server` crate) hands each shard
//! to a dedicated worker thread and routes requests without locks:
//!
//! * the router is a pure function of the LBA, so all operations on one
//!   logical block always reach the same shard — per-LBA ordering reduces
//!   to FIFO delivery into that shard's queue;
//! * shards share no mutable state, so workers never synchronize on the
//!   data path (the same rule DESIGN.md §10 establishes for sharded
//!   replay).
//!
//! The set is just structured ownership — it has no locks of its own. Use
//! [`ShardSet::into_shards`] to move the stacks onto worker threads and
//! [`ShardSet::from_parts`] to reassemble them afterwards (e.g. to inspect
//! or recover the stacks once a server has drained and stopped).

use flashtier_core::ShardRouter;

use crate::system::CacheSystem;

/// N independent manager stacks plus the router that places LBAs on them.
#[derive(Debug)]
pub struct ShardSet<S> {
    shards: Vec<S>,
    router: ShardRouter,
}

impl<S: CacheSystem> ShardSet<S> {
    /// Packages pre-built shard stacks with their router.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or its length disagrees with the
    /// router's shard count.
    pub fn from_parts(shards: Vec<S>, router: ShardRouter) -> Self {
        assert!(!shards.is_empty(), "need at least one shard stack");
        assert_eq!(
            shards.len(),
            router.num_shards(),
            "router/shard-count mismatch"
        );
        ShardSet { shards, router }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The router placing LBAs onto shards (copyable, lock-free).
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The shard index owning `lba`.
    #[inline]
    pub fn shard_of(&self, lba: u64) -> usize {
        self.router.shard_of(lba)
    }

    /// Immutable access to shard `i`.
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i]
    }

    /// All shards in shard order (post-run probing of counters).
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Mutable access to shard `i` (single-threaded drivers and tests).
    pub fn shard_mut(&mut self, i: usize) -> &mut S {
        &mut self.shards[i]
    }

    /// Routes one operation sequentially (single-threaded driver): returns
    /// the owning shard for the caller to operate on.
    #[inline]
    pub fn route_mut(&mut self, lba: u64) -> &mut S {
        let i = self.router.shard_of(lba);
        &mut self.shards[i]
    }

    /// Decomposes the set so each stack can move onto its worker thread.
    pub fn into_shards(self) -> (Vec<S>, ShardRouter) {
        (self.shards, self.router)
    }

    /// Merged manager counters: the field-wise sum over shards.
    pub fn counters(&self) -> crate::MgrCounters {
        self.shards
            .iter()
            .map(|s| s.counters())
            .fold(crate::MgrCounters::default(), |acc, c| acc.merged(&c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashTierWt;
    use disksim::{Disk, DiskConfig, DiskDataMode};
    use flashtier_core::{shard_config, Ssc, SscConfig};

    fn set(n: usize) -> ShardSet<FlashTierWt> {
        let config = SscConfig::small_test();
        let per_shard = shard_config(&config, n);
        let ppb = config.flash.geometry.pages_per_block();
        let shards = (0..n)
            .map(|_| {
                FlashTierWt::new(
                    Ssc::new(per_shard),
                    Disk::new(DiskConfig::small_test(), DiskDataMode::Store),
                )
            })
            .collect();
        ShardSet::from_parts(shards, ShardRouter::new(n, ppb))
    }

    #[test]
    fn routing_is_stable_and_total() {
        let mut s = set(4);
        for lba in 0..256u64 {
            let i = s.shard_of(lba);
            assert!(i < 4);
            assert_eq!(i, s.shard_of(lba), "routing must be pure");
            // route_mut agrees with shard_of.
            let data = vec![lba as u8; 512];
            s.route_mut(lba).write(lba, &data).unwrap();
            let (got, _) = s.shard_mut(i).read(lba).unwrap();
            assert_eq!(got, data);
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        let mut s = set(2);
        for lba in 0..32u64 {
            let data = vec![1u8; 512];
            s.route_mut(lba).write(lba, &data).unwrap();
        }
        assert_eq!(s.counters().writes, 32);
    }

    #[test]
    fn decompose_and_reassemble_round_trips() {
        let s = set(3);
        let router = s.router();
        let (shards, r2) = s.into_shards();
        assert_eq!(shards.len(), 3);
        assert_eq!(router.num_shards(), r2.num_shards());
        let s2 = ShardSet::from_parts(shards, r2);
        assert_eq!(s2.num_shards(), 3);
    }

    #[test]
    #[should_panic(expected = "router/shard-count mismatch")]
    fn mismatched_router_panics() {
        let (shards, _) = set(2).into_shards();
        ShardSet::from_parts(shards, ShardRouter::new(3, 8));
    }
}
