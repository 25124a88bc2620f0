//! Batch-vs-scalar replay equivalence.
//!
//! The batched pipeline's contract is *event-accurate equivalence*: at any
//! batch size, replaying a trace through `run_batch` must produce
//! bit-identical simulated time, manager counters, and response
//! distributions to the scalar loop — batching restructures host work
//! only. These tests replay randomized traces (Zipf, scan, and mixed
//! read/write shapes) both ways across all four systems, at batch sizes
//! {1, 7, 64, 1024}, unsharded and at four shards, with and without fault
//! injection.

use cachemgr::{replay, replay_batched, CacheSystem, ReplayStats};
use flashtier_bench::replay::{run_sharded, run_system, ReplaySetup, ReplaySystem};
use trace::{generate, Trace, WorkloadSpec};

const BATCHES: [usize; 4] = [1, 7, 64, 1024];
const EVENTS: u64 = 20_000;

fn setup() -> ReplaySetup {
    ReplaySetup::micro(EVENTS)
}

/// The three trace shapes: the perf-gate Zipf mix, a sequential scan, and
/// a write-heavy mixed pattern with a flatter popularity curve.
fn traces(setup: &ReplaySetup) -> Vec<Trace> {
    let zipf = setup.workload();
    let scan = generate(&WorkloadSpec {
        name: "scan-equiv".into(),
        range_blocks: setup.range_blocks,
        unique_blocks: setup.unique_blocks,
        total_ops: setup.events,
        write_fraction: 0.30,
        zipf_theta: 0.01,
        seq_run_prob: 1.0,
        seq_run_len: 64,
        seed: setup.seed ^ 0x5CA4,
    });
    let mixed = generate(&WorkloadSpec {
        name: "mixed-equiv".into(),
        range_blocks: setup.range_blocks,
        unique_blocks: setup.unique_blocks,
        total_ops: setup.events,
        write_fraction: 0.50,
        zipf_theta: 0.60,
        seq_run_prob: 0.05,
        seq_run_len: 8,
        seed: setup.seed ^ 0x311D,
    });
    vec![zipf, scan, mixed]
}

/// Bit-level equality of everything a replay reports: simulated time,
/// manager counters, the full response histogram, and the Welford summary
/// (count and exact f64 bits of sum/mean).
fn assert_stats_identical(scalar: &ReplayStats, batched: &ReplayStats, label: &str) {
    assert_eq!(scalar.ops, batched.ops, "{label}: ops");
    assert_eq!(
        scalar.sim_time.as_micros(),
        batched.sim_time.as_micros(),
        "{label}: sim_time_us"
    );
    assert_eq!(scalar.counters, batched.counters, "{label}: counters");
    assert_eq!(
        scalar.response_hist.buckets(),
        batched.response_hist.buckets(),
        "{label}: histogram buckets"
    );
    assert_eq!(
        scalar.response_us.count(),
        batched.response_us.count(),
        "{label}: summary count"
    );
    assert_eq!(
        scalar.response_us.sum().to_bits(),
        batched.response_us.sum().to_bits(),
        "{label}: summary sum bits"
    );
    assert_eq!(
        scalar.response_us.mean().to_bits(),
        batched.response_us.mean().to_bits(),
        "{label}: summary mean bits"
    );
}

/// Replays `t` scalar and batched through a fresh system from `build`,
/// asserting bit-identical statistics at every batch size.
fn check_system<S: CacheSystem>(build: impl Fn() -> S, t: &Trace, label: &str) {
    let mut scalar_sys = build();
    let scalar = replay(&mut scalar_sys, &t.events).expect("scalar replay");
    for b in BATCHES {
        let mut sys = build();
        let batched = replay_batched(&mut sys, &t.events, b).expect("batched replay");
        assert_stats_identical(&scalar, &batched, &format!("{label} batch={b}"));
    }
}

#[test]
fn flashtier_wt_batched_matches_scalar() {
    let s = setup();
    for t in traces(&s) {
        check_system(|| s.flashtier_wt(), &t, &format!("wt/{}", t.name));
    }
}

#[test]
fn flashtier_wt_with_bloom_batched_matches_scalar() {
    // The Bloom build exercises run_batch's scalar read fallback.
    let s = setup();
    let t = s.workload();
    check_system(
        || {
            cachemgr::FlashTierWt::new(flashtier_core::Ssc::new(s.wt_config()), s.disk())
                .with_bloom_filter(0.01)
        },
        &t,
        "wt-bloom/zipf",
    );
}

#[test]
fn flashtier_wb_batched_matches_scalar() {
    let s = setup();
    for t in traces(&s) {
        check_system(|| s.flashtier_wb(), &t, &format!("wb/{}", t.name));
    }
}

#[test]
fn native_wb_batched_matches_scalar() {
    let s = setup();
    for t in traces(&s) {
        check_system(|| s.native_wb(), &t, &format!("native/{}", t.name));
    }
}

#[test]
fn faulted_replay_batched_matches_scalar() {
    // Fault injection exercises the stop-event handling in every batched
    // read run: the faulted event's side effects must land exactly once.
    let s = setup().with_faults(800);
    let t = s.workload();
    check_system(|| s.flashtier_wt(), &t, "wt-faults/zipf");
    check_system(|| s.flashtier_wb(), &t, "wb-faults/zipf");
    check_system(|| s.native_wb(), &t, "native-faults/zipf");
}

#[test]
fn store_mode_batched_matches_scalar() {
    // Store mode keeps payload bytes in every tier; the sink-read hit path
    // must not perturb any of it.
    let s = setup().with_stored_data();
    let t = s.workload();
    check_system(|| s.flashtier_wt(), &t, "wt-store/zipf");
    check_system(|| s.flashtier_wb(), &t, "wb-store/zipf");
}

#[test]
fn system_results_batched_match_scalar() {
    // The bench-level runners (including the facade's span loop) report
    // identical events and simulated time batched and scalar.
    let s = setup();
    let t = s.workload();
    for kind in ReplaySystem::ALL {
        let scalar = run_system(kind, &s, &t, None);
        for b in BATCHES {
            let batched = run_system(kind, &s, &t, Some(b));
            assert_eq!(scalar.events, batched.events, "{} batch={b}", kind.name());
            assert_eq!(
                scalar.sim_time_us,
                batched.sim_time_us,
                "{} batch={b}: sim_time_us",
                kind.name()
            );
        }
    }
}

#[test]
fn sharded_batched_matches_scalar() {
    let s = setup();
    let t = s.workload();
    for kind in [ReplaySystem::FlashtierWt, ReplaySystem::FlashtierWb] {
        for shards in [1usize, 4] {
            let scalar = run_sharded(kind, &s, &t, shards, None);
            for b in BATCHES {
                let batched = run_sharded(kind, &s, &t, shards, Some(b));
                let label = format!("{} shards={shards} batch={b}", kind.name());
                assert_eq!(
                    scalar.result.sim_time_us, batched.result.sim_time_us,
                    "{label}: merged sim_time_us"
                );
                assert_eq!(
                    scalar.shard_sim_time_us, batched.shard_sim_time_us,
                    "{label}: per-shard sim_time_us"
                );
                assert_eq!(
                    scalar.shard_counters, batched.shard_counters,
                    "{label}: per-shard device counters"
                );
            }
        }
    }
}
