//! The FlashTier repository benchmark.
//!
//! Two workloads, each replaying one Table 3 trace shape through the three
//! cache systems of the paper's §6 (FlashTier write-through, FlashTier
//! write-back, Native write-back). An untraced run reports end-to-end
//! metrics; a traced run puts timing wrappers at the crates' trait seams
//! ([`wrap`]), also serves the trace over loopback TCP through the
//! in-process cache server, and reports per-layer metrics. See README.md
//! for the workloads, metrics and how to run them.

pub mod bench;
pub mod replay;
pub mod serve;
pub mod wrap;
