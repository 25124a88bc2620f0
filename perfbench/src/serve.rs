//! The serve half of a traced run: an in-process `Server` over two
//! write-through shards, driven over loopback TCP first by an open loop
//! (one connection, a sender and a receiver thread, seeded exponential
//! arrivals, latency timed from the scheduled send time) and then by a
//! closed loop (two connections, a window of outstanding requests each).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use cachemgr::{CacheSystem, FlashTierWt, ShardSet};
use flashtier_server::{BlockClient, ServeSystem, Server, ServerConfig, ServerStats};
use simkit::SimRng;
use trace::TraceEvent;

use crate::replay::Shape;
use crate::wrap::TracedServe;

/// Shards (one worker thread each) behind the server.
pub const SHARDS: usize = 2;
/// Open-loop offered rate, ops/s: below half of the closed-loop capacity
/// of every workload's mix on a 2-core host (the write-heavy mail mix,
/// with a 4 KiB payload on 88.5% of requests, saturates near 50k ops/s),
/// and low enough that a scheduling stall rarely fills a shard queue.
pub const OPEN_RATE: f64 = 20_000.0;
/// Closed-loop connections.
pub const CLOSED_CONNS: usize = 2;
/// Outstanding requests per closed-loop connection.
pub const WINDOW: usize = 32;

/// The write-through shard stacks the server fronts
/// ([`ReplaySetup::wt_shard_set`](flashtier_bench::replay::ReplaySetup::wt_shard_set):
/// each a 1/N geometry split of the workload's cache over its own disk),
/// each passed through `wrap`.
pub fn shard_set<S: CacheSystem>(shape: &Shape, wrap: impl FnMut(FlashTierWt) -> S) -> ShardSet<S> {
    let (shards, router) = shape.setup.wt_shard_set(SHARDS).into_shards();
    ShardSet::from_parts(shards.into_iter().map(wrap).collect(), router)
}

/// Starts a loopback server over `set`.
pub fn start<S: ServeSystem + 'static>(set: ShardSet<S>) -> Result<Server<S>, String> {
    Server::start(set, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start failed: {e}"))
}

/// Wraps each shard stack in a [`TracedServe`] sharing a per-shard meter.
pub fn traced_set(shape: &Shape) -> (ShardSet<TracedServe<FlashTierWt>>, Vec<Arc<AtomicU64>>) {
    let meters: Vec<Arc<AtomicU64>> = (0..SHARDS).map(|_| Arc::default()).collect();
    let mut next = meters.iter();
    let set = shard_set(shape, |s| {
        TracedServe::new(s, Arc::clone(next.next().expect("one meter per shard")))
    });
    (set, meters)
}

/// Client-side outcome of one load phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub completed: u64,
    /// Responses that were not OK (errors, `BUSY`, failed shards).
    pub failed: u64,
    /// GET latencies, µs (failed requests as `u64::MAX`).
    pub get_us: Vec<u64>,
    /// PUT latencies, µs (failed requests as `u64::MAX`).
    pub put_us: Vec<u64>,
    /// How late the sender issued each request past its schedule, µs.
    pub lateness_us: Vec<u64>,
    /// First send to last response, seconds.
    pub wall_s: f64,
}

/// Exact percentile `q` of `v` (sorts in place); 0 for an empty slice.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let idx = ((v.len() as f64 * q).ceil() as usize).max(1) - 1;
    v[idx.min(v.len() - 1)]
}

/// Events for the `i`-th request: the trace, cycled.
fn event(events: &[TraceEvent], i: u64) -> TraceEvent {
    events[(i % events.len() as u64) as usize]
}

fn payload(block: usize, i: u64) -> Vec<u8> {
    let mut data = vec![0u8; block];
    data[..8].copy_from_slice(&i.to_le_bytes());
    data
}

/// Open loop for `seconds`, starting at trace event `first`: a sender thread paces seeded exponential
/// arrivals at [`OPEN_RATE`] and sends each request at its scheduled time
/// however far behind the responses are; a receiver thread times every
/// response from that scheduled time, so a stall is charged to every
/// request queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    events: &[TraceEvent],
    first: u64,
    seed: u64,
    seconds: f64,
) -> Result<PhaseStats, String> {
    let client = BlockClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let expected = (OPEN_RATE * seconds * 1.2) as usize + 1024;
    // (due ns, is_write) per request id, published before the send.
    let sched: Arc<Vec<AtomicU64>> = Arc::new((0..expected).map(|_| AtomicU64::new(0)).collect());
    let epoch = Instant::now();
    let result = Mutex::new(PhaseStats::default());
    std::thread::scope(|scope| -> Result<(), String> {
        let recv_sched = Arc::clone(&sched);
        let result = &result;
        let receiver = scope.spawn(move || {
            let mut st = PhaseStats::default();
            while let Ok(resp) = rx.recv() {
                let now = epoch.elapsed().as_nanos() as u64;
                let tag = recv_sched[resp.req_id as usize].load(Ordering::Acquire);
                let (due, is_write) = (tag >> 1, tag & 1 == 1);
                let us = if resp.ok() {
                    now.saturating_sub(due) / 1_000
                } else {
                    st.failed += 1;
                    u64::MAX
                };
                if is_write {
                    st.put_us.push(us);
                } else {
                    st.get_us.push(us);
                }
                st.completed += 1;
            }
            st.wall_s = epoch.elapsed().as_secs_f64();
            *result.lock().expect("result lock") = st;
        });
        let mut rng = SimRng::seed_from(seed ^ 0x09E2_100B);
        let mut data = payload(block, 0);
        let mut due_s = 0.0f64;
        let mut lateness = Vec::with_capacity(expected);
        let mut i = 0u64;
        let send = (|| -> std::io::Result<()> {
            loop {
                let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                due_s += -u.ln() / OPEN_RATE;
                if due_s > seconds || i as usize >= expected {
                    break;
                }
                let due = StdDuration::from_secs_f64(due_s);
                // Sleep the bulk of a long gap; through the last stretch
                // yield rather than sleep (a sleep overshoots by ~60 µs on
                // a 2-vCPU VM) or spin (which would take a core from the
                // server on a 2-core host).
                loop {
                    let elapsed = epoch.elapsed();
                    if elapsed >= due {
                        break;
                    }
                    let left = due - elapsed;
                    if left > StdDuration::from_micros(200) {
                        std::thread::sleep(left - StdDuration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let e = event(events, first + i);
                let due_ns = due.as_nanos() as u64;
                sched[i as usize].store(due_ns << 1 | u64::from(e.is_write()), Ordering::Release);
                lateness.push((epoch.elapsed().as_nanos() as u64).saturating_sub(due_ns) / 1_000);
                if e.is_write() {
                    data[..8].copy_from_slice(&i.to_le_bytes());
                    tx.send_put(e.lba, &data)?;
                } else {
                    tx.send_get(e.lba)?;
                }
                tx.flush_io()?;
                i += 1;
            }
            Ok(())
        })();
        // Half-close even after a send error, so the server drains,
        // closes, and the receiver sees EOF.
        let finish = tx.finish();
        receiver
            .join()
            .map_err(|_| "open-loop receiver panicked".to_string())?;
        send.and(finish)
            .map_err(|e| format!("open-loop send: {e}"))?;
        let mut st = result.lock().expect("result lock");
        st.sent = i;
        st.lateness_us = lateness;
        Ok(())
    })?;
    Ok(result.into_inner().expect("result lock"))
}

/// Closed loop for `seconds`, starting at trace event `first`:
/// [`CLOSED_CONNS`] connections, each keeping [`WINDOW`] requests
/// outstanding and sending the next as each response arrives. Connection
/// `c` takes every `CLOSED_CONNS`-th trace event.
pub fn closed_loop(
    addr: SocketAddr,
    events: &[TraceEvent],
    first: u64,
    seconds: f64,
) -> Result<PhaseStats, String> {
    let epoch = Instant::now();
    let parts: Vec<Result<PhaseStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLOSED_CONNS as u64)
            .map(|c| scope.spawn(move || closed_conn(addr, events, first, c, seconds, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("closed-loop connection panicked".into()))
            })
            .collect()
    });
    let mut total = PhaseStats::default();
    for p in parts {
        let p = p?;
        total.sent += p.sent;
        total.completed += p.completed;
        total.failed += p.failed;
        total.get_us.extend(p.get_us);
        total.put_us.extend(p.put_us);
    }
    total.wall_s = epoch.elapsed().as_secs_f64();
    Ok(total)
}

fn closed_conn(
    addr: SocketAddr,
    events: &[TraceEvent],
    first: u64,
    conn: u64,
    seconds: f64,
    epoch: Instant,
) -> Result<PhaseStats, String> {
    let io = |e: std::io::Error| format!("closed-loop connection {conn}: {e}");
    let client = BlockClient::connect(addr).map_err(io)?;
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let mut data = payload(block, 0);
    let mut st = PhaseStats::default();
    // (send ns, is_write) per request id.
    let mut sent_at: Vec<(u64, bool)> = Vec::new();
    let mut send = |tx: &mut flashtier_server::SendHalf,
                    st: &mut PhaseStats,
                    sent_at: &mut Vec<(u64, bool)>| {
        let i = st.sent * CLOSED_CONNS as u64 + conn;
        let e = event(events, first + i);
        sent_at.push((epoch.elapsed().as_nanos() as u64, e.is_write()));
        st.sent += 1;
        if e.is_write() {
            data[..8].copy_from_slice(&i.to_le_bytes());
            tx.send_put(e.lba, &data)
        } else {
            tx.send_get(e.lba)
        }
    };
    for _ in 0..WINDOW {
        send(&mut tx, &mut st, &mut sent_at).map_err(io)?;
    }
    tx.flush_io().map_err(io)?;
    while st.completed < st.sent {
        let resp = rx.recv().map_err(io)?;
        let now = epoch.elapsed().as_nanos() as u64;
        let (at, is_write) = sent_at[resp.req_id as usize];
        let us = if resp.ok() {
            now.saturating_sub(at) / 1_000
        } else {
            st.failed += 1;
            u64::MAX
        };
        if is_write {
            st.put_us.push(us);
        } else {
            st.get_us.push(us);
        }
        st.completed += 1;
        if epoch.elapsed().as_secs_f64() < seconds {
            send(&mut tx, &mut st, &mut sent_at).map_err(io)?;
            tx.flush_io().map_err(io)?;
        }
    }
    Ok(st)
}

/// Server counters plus the shutdown outcome the checks look at.
#[derive(Debug, Clone)]
pub struct ShutdownSummary {
    /// Final server counters.
    pub stats: ServerStats,
    /// Shards that ended quarantined.
    pub unhealthy_shards: usize,
    /// Panics captured while joining server threads.
    pub panics: Vec<String>,
}

/// Shuts the server down and summarizes; returns the stacks too.
pub fn stop<S: ServeSystem + 'static>(server: Server<S>) -> (ShutdownSummary, Option<ShardSet<S>>) {
    let report = server.shutdown();
    (
        ShutdownSummary {
            stats: report.stats,
            unhealthy_shards: report
                .shard_health
                .iter()
                .filter(|h| !h.is_healthy())
                .count(),
            panics: report.panics,
        },
        report.stacks,
    )
}
