//! One benchmark run: set-up, the replay rounds, the serve phases, the
//! correctness checks, and the metrics, for either an untraced run
//! (end-to-end metrics) or a traced run (per-layer metrics).

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use trace::Trace;

use crate::replay::{self, ReplayOutcome, Shape, SimResult, System, TracedOutcome};
use crate::serve::{self, percentile, PhaseStats, ShutdownSummary};
use crate::wrap::{self, ratio, Span, FTL_OPS, SSC_OPS};

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 2] = ["replay-mail", "replay-usr-hot"];

/// Set-up repetitions at the start of a run that are not measured: the
/// first set-ups of a process also pay for growing its heap, and ran
/// 20-100% slower than the rest.
const SETUP_WARMUP: usize = 3;
/// Measured set-up repetitions per round; `setup_s` is their median over
/// the run. Spread over the run like the replays, they sample the same
/// host states (see [`RATE_QUANTILE`]); set-ups made back to back at the
/// start take under half a second and all see the state of that moment.
const SETUPS_PER_ROUND: usize = 2;
/// Minimum rounds per run.
const MIN_ROUNDS: usize = 3;

/// Device operations each system issues in these replays, and so gets
/// per-operation metrics for (`wb` issues no `clean` on `replay-usr-hot`).
/// The managers issue no evict, exists, barrier or TRIM here.
const WT_CORE_OPS: [&str; 2] = ["core.read", "core.write_clean"];
const NATIVE_FTL_OPS: [&str; 2] = ["ftl.read", "ftl.write"];
const WB_CORE_OPS: [&str; 4] = [
    "core.read",
    "core.write_clean",
    "core.write_dirty",
    "core.clean",
];

/// The shape behind a workload name.
pub fn shape(workload: &str, seed: u64) -> Option<Shape> {
    match workload {
        "replay-mail" => Some(Shape::mail(seed)),
        "replay-usr-hot" => Some(Shape::usr_hot(seed)),
        _ => None,
    }
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values when it failed.
    pub detail: String,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes (rounds, requests, calls).
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted (replayed events plus served requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Figures reported in the run record but not gated (not among the
    /// BENCHMARK.json metrics): wall-clock replay rates and set-up time,
    /// which on a small shared VM swing with preemption and CPU steal.
    pub reported: Vec<Metric>,
    /// Extra JSON members for the run record (`"key": value` pairs).
    pub details: Vec<(String, String)>,
}

impl Report {
    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Whether every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, interpolating linearly between the two
/// nearest values (0 for an empty `v`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Quantile of the per-round host rates reported as a system's
/// events/CPU-s: the rate nine rounds in ten reach or beat. On a shared VM
/// the rounds run at a floor rate most of the time and 25-60% faster in
/// some stretches, a state of the host outside the VM; which of the two
/// holds changes every few seconds to minutes, so the share of fast rounds
/// differs from run to run and moves a run's median between the two
/// levels. A low quantile stays on the floor unless nearly the whole run
/// is fast. (Over the same runs the lower quartile spread nearly twice as
/// much between runs on `replay-mail`, and the slowest round more on
/// `replay-usr-hot`, whose runs have 40-50 rounds.)
const RATE_QUANTILE: f64 = 0.1;

fn trace_hash(t: &Trace) -> u64 {
    let mut h = DefaultHasher::new();
    t.range_blocks.hash(&mut h);
    for e in &t.events {
        e.lba.hash(&mut h);
        e.is_write().hash(&mut h);
    }
    h.finish()
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean cost of one trace clock read, ns (subtracted once from each timed
/// device call, whose interval contains about one read).
fn clock_read_ns() -> f64 {
    const N: u64 = 200_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..N {
        acc = acc.wrapping_add(std::hint::black_box(wrap::now_ns()));
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / N as f64
}

/// One set-up's measurements.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    /// CPU time of the setting-up thread, s.
    cpu_s: f64,
    /// Wall time, s.
    wall_s: f64,
    /// CPU time of trace generation per event, ns.
    gen_ns_per_event: f64,
    /// Hash of the generated trace.
    trace_hash: u64,
}

/// Generates the trace and builds the three replay stacks once.
///
/// Set-up time is the CPU time of the thread that sets up. Wall time is
/// also recorded: set-up takes tens of milliseconds, so one preemption on
/// a shared host moves its wall time by a quarter.
fn set_up_once(shape: &Shape) -> (Trace, SetupSample) {
    let (t0, c0) = (Instant::now(), replay::thread_cpu_ns());
    let trace = shape.trace();
    let gen_ns = replay::thread_cpu_ns().saturating_sub(c0);
    let setup = &shape.setup;
    std::hint::black_box((
        setup.flashtier_wt(),
        setup.flashtier_wb(),
        setup.native_wb(),
    ));
    let sample = SetupSample {
        cpu_s: replay::thread_cpu_ns().saturating_sub(c0) as f64 / 1e9,
        wall_s: t0.elapsed().as_secs_f64(),
        gen_ns_per_event: gen_ns as f64 / trace.events.len() as f64,
        trace_hash: trace_hash(&trace),
    };
    (trace, sample)
}

/// The [`SETUP_WARMUP`] unmeasured set-ups that start a run; returns the
/// first one's trace, the one every round replays.
fn warm_up(shape: &Shape) -> (Trace, SetupSample) {
    let (trace, first) = set_up_once(shape);
    for _ in 1..SETUP_WARMUP {
        set_up_once(shape);
    }
    (trace, first)
}

/// Set-up metrics from the set-ups made in the rounds: the median CPU time
/// (`setup_s`) and the median trace generation time per event. Checks that
/// every set-up generated the same trace as the first.
fn setup_metrics(first: &SetupSample, rounds: &[Round], report: &mut Report) -> (f64, f64) {
    let samples: Vec<&SetupSample> = rounds.iter().flat_map(|r| &r.setups).collect();
    let differ = samples
        .iter()
        .filter(|s| s.trace_hash != first.trace_hash)
        .count();
    report.check("trace generation is deterministic", differ == 0, || {
        format!(
            "{differ} of {} set-ups generated another trace",
            samples.len()
        )
    });
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let gens: Vec<f64> = samples.iter().map(|s| s.gen_ns_per_event).collect();
    for (name, v) in [("setup_cpu_s_reps", &cpu), ("setup_wall_s_reps", &wall)] {
        report
            .details
            .push((name.into(), json_list(v.iter().map(|x| json_num(*x)))));
    }
    report.reported.push(Metric {
        name: "setup_wall_s".into(),
        value: median(&wall),
        unit: "s",
        samples: wall.len() as u64,
    });
    (median(&cpu), median(&gens))
}

fn check_sim(report: &mut Report, label: &str, events: u64, sim: &SimResult) {
    let (reads, writes) = (sim.get("mgr.reads"), sim.get("mgr.writes"));
    let (hits, misses) = (sim.get("mgr.read_hits"), sim.get("mgr.read_misses"));
    report.check(
        format!("{label}: reads + writes = events"),
        reads + writes == events,
        || format!("{reads} + {writes} != {events}"),
    );
    report.check(
        format!("{label}: hits + misses = reads"),
        hits + misses == reads,
        || format!("{hits} + {misses} != {reads}"),
    );
}

fn check_same(report: &mut Report, name: String, a: &SimResult, b: &SimResult) {
    report.check(name, a == b, || {
        let mut d = String::new();
        if a.sim_time_us != b.sim_time_us {
            let _ = write!(d, "sim_time_us {} vs {}; ", a.sim_time_us, b.sim_time_us);
        }
        for ((n, x), (_, y)) in a.counters.iter().zip(&b.counters) {
            if x != y {
                let _ = write!(d, "{n} {x} vs {y}; ");
            }
        }
        d
    });
}

fn write_amp(sim: &SimResult) -> f64 {
    let flash = sim.get("flash.page_writes") + sim.get("wal.pages_written");
    ratio(
        (flash + sim.get("ckpt.pages_written")) as f64,
        sim.get("mgr.writes") as f64,
    )
}

/// Serve time per round of a traced run, seconds: open loop, then closed
/// loop. Only traced runs serve; they report the server's per-layer
/// metrics (no end-to-end metric comes from serving).
const SERVE_SLICE_S: (f64, f64) = (1.0, 1.0);

/// One round: [`SETUPS_PER_ROUND`] set-ups, every system replayed once
/// from an empty cache (and, in a traced run, once more over traced
/// devices), then, in a traced run, one open-loop and one closed-loop serve
/// slice against the running server.
struct Round {
    setups: Vec<SetupSample>,
    replays: Vec<(ReplayOutcome, Option<TracedOutcome>)>,
    /// The serve slices (open loop, closed loop) of a traced run.
    serve: Option<(PhaseStats, PhaseStats)>,
    /// Host ns the shard stacks spent applying requests during the serve
    /// slices (traced runs only).
    apply_ns: u64,
    /// Peak resident set so far, MiB, read after this round's replays and
    /// before its serve slices.
    peak_rss_mib: f64,
}

/// What the server saw: its shutdown summary and the returned stacks.
type Served<S> = (ShutdownSummary, Option<cachemgr::ShardSet<S>>);

/// Runs rounds for about `seconds` (at least [`MIN_ROUNDS`]), serving
/// `set` between replays when one is given (traced runs). Interleaving
/// replay and serve within each round spreads every metric's samples over
/// the whole run, so a burst of host contention moves one sample of each
/// median rather than all samples of one metric.
fn run_rounds<S: flashtier_server::ServeSystem + 'static>(
    shape: &Shape,
    events: &[trace::TraceEvent],
    seconds: f64,
    traced: bool,
    set: Option<cachemgr::ShardSet<S>>,
    meters: &[Arc<AtomicU64>],
) -> Result<(Vec<Round>, Option<Served<S>>), String> {
    let meter = || -> u64 { meters.iter().map(|m| m.load(Ordering::Relaxed)).sum() };
    let server = set.map(serve::start).transpose()?;
    let rounds = (|| -> Result<Vec<Round>, String> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut cursor = 0u64;
        let mut last_round_s = 0.0;
        // Start another round only if it should end within `seconds`, so
        // a run lasts about `seconds` whatever the round length.
        while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_round_s <= seconds {
            let round_start = Instant::now();
            let setups = (0..SETUPS_PER_ROUND)
                .map(|_| set_up_once(shape).1)
                .collect();
            let mut replays = Vec::new();
            for sys in System::ALL {
                let plain = replay::run_plain(sys, shape, events)?;
                let t = if traced {
                    Some(replay::run_traced(sys, shape, events)?)
                } else {
                    None
                };
                replays.push((plain, t));
            }
            let peak_rss_mib = peak_rss_mib();
            let before = meter();
            let serve = match &server {
                Some(server) => {
                    let (open_s, closed_s) = SERVE_SLICE_S;
                    let addr = server.addr();
                    let seed = shape.setup.seed ^ rounds.len() as u64;
                    let open = serve::open_loop(addr, events, cursor, seed, open_s)?;
                    cursor += open.sent;
                    let closed = serve::closed_loop(addr, events, cursor, closed_s)?;
                    cursor += closed.sent;
                    Some((open, closed))
                }
                None => None,
            };
            rounds.push(Round {
                setups,
                replays,
                serve,
                apply_ns: meter() - before,
                peak_rss_mib,
            });
            last_round_s = round_start.elapsed().as_secs_f64();
        }
        Ok(rounds)
    })();
    // Shut down whatever happened, so no server thread outlives the run.
    let served = server.map(serve::stop);
    Ok((rounds?, served))
}

/// Runs one workload; returns the report, or an error for a failure that
/// leaves nothing to report (a device error mid-replay, a socket error).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: Option<&Path>,
) -> Result<Report, String> {
    let shape = shape(workload, seed).ok_or_else(|| format!("unknown workload {workload}"))?;
    let mut report = Report::default();
    let (trace, first_setup) = warm_up(&shape);
    let events = &trace.events;
    let writes = events.iter().filter(|e| e.is_write()).count();
    let mut details = format!(
        "{{\"trace\": {}, \"trace_events\": {}, \"passes\": {}, \"unique_blocks\": {}, \
         \"range_blocks\": {}, \"write_fraction\": {}, \"cache_mib\": {}",
        json_str(&trace.name),
        events.len(),
        shape.passes,
        shape.setup.unique_blocks,
        shape.setup.range_blocks,
        json_num(writes as f64 / events.len() as f64),
        shape.setup.flash_bytes >> 20,
    );
    if traced {
        let (open_s, closed_s) = SERVE_SLICE_S;
        let _ = write!(
            details,
            ", \"shards\": {}, \"open_rate\": {}, \"open_s_per_round\": {open_s}, \
             \"closed_conns\": {}, \"window\": {}, \"closed_s_per_round\": {closed_s}",
            serve::SHARDS,
            serve::OPEN_RATE,
            serve::CLOSED_CONNS,
            serve::WINDOW
        );
    }
    details.push('}');
    report.details.push(("shape".into(), details));
    if traced {
        let clock_ns = clock_read_ns();
        let (set, meters) = serve::traced_set(&shape);
        let (rounds, served) = run_rounds(&shape, events, seconds, true, Some(set), &meters)?;
        let (_, gen_ns_per_event) = setup_metrics(&first_setup, &rounds, &mut report);
        report.metric(
            "trace.gen_ns_per_event",
            gen_ns_per_event,
            "ns",
            (rounds.len() * SETUPS_PER_ROUND) as u64,
        );
        let mut spans = replay_layers(&shape, &trace, &rounds, clock_ns, &mut report);
        let (down, stacks) = served.ok_or("a traced run serves")?;
        serve_layers(&rounds, &down, &mut report);
        for shard in stacks.iter().flat_map(|set| set.shards()) {
            spans.extend_from_slice(shard.probe().spans().spans());
        }
        report
            .details
            .push(("clock_read_ns".into(), json_num(clock_ns)));
        report
            .details
            .push(("spans_recorded".into(), spans.len().to_string()));
        if let Some(dir) = out_dir {
            write_spans(dir, &format!("spans-{workload}-seed{seed}.tsv"), &spans)?;
        }
    } else {
        let (rounds, _) =
            run_rounds::<cachemgr::FlashTierWt>(&shape, events, seconds, false, None, &[])?;
        let rss_after_replay = rounds[0].peak_rss_mib;
        let (setup_s, _) = setup_metrics(&first_setup, &rounds, &mut report);
        replay_metrics(&shape, &trace, &rounds, &mut report);
        let setups = (rounds.len() * SETUPS_PER_ROUND) as u64;
        report.metric("setup_s", setup_s, "s", setups);
        report.metric("peak_rss_mib", rss_after_replay, "MiB", 1);
    }
    Ok(report)
}

/// Checks every replay of every round and adds the replayed events to
/// `attempted`: counts add up, every untraced round repeats round 0, and
/// every traced replay matches its untraced twin bit for bit.
fn check_replays(shape: &Shape, trace: &Trace, rounds: &[Round], report: &mut Report) {
    let events = shape.events_per_round(trace);
    for (k, sys) in System::ALL.iter().enumerate() {
        let key = sys.key();
        let first = &rounds[0].replays[k].0;
        check_sim(report, key, events, &first.sim);
        for (r, round) in rounds.iter().enumerate() {
            let (plain, traced) = &round.replays[k];
            report.attempted += events;
            if r > 0 {
                check_same(
                    report,
                    format!("{key}: round {r} repeats round 0 exactly"),
                    &first.sim,
                    &plain.sim,
                );
            }
            if let Some(t) = traced {
                report.attempted += events;
                check_same(
                    report,
                    format!("{key}: round {r} traced replay matches untraced replay exactly"),
                    &plain.sim,
                    &t.outcome.sim,
                );
            }
        }
    }
}

/// End-to-end replay metrics: host events/CPU-s is the [`RATE_QUANTILE`]
/// quantile over rounds; the simulated metrics are deterministic, so round
/// 0's.
fn replay_metrics(shape: &Shape, trace: &Trace, rounds: &[Round], report: &mut Report) {
    check_replays(shape, trace, rounds, report);
    for (k, sys) in System::ALL.iter().enumerate() {
        let key = sys.key();
        let first = &rounds[0].replays[k].0;
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.replays[k].0.events_per_cpu_s())
            .collect();
        let wall_rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.replays[k].0.events_per_s())
            .collect();
        for (name, v) in [("events_per_cpu_s", &rates), ("events_per_s", &wall_rates)] {
            report.details.push((
                format!("{key}_{name}_rounds"),
                json_list(v.iter().map(|x| json_num(*x))),
            ));
        }
        report.details.push((
            format!("{key}_sim_time_us"),
            first.sim.sim_time_us.to_string(),
        ));
        let n = rates.len() as u64;
        let rate = quantile(&rates, RATE_QUANTILE);
        report.metric(format!("{key}_events_per_cpu_s"), rate, "1/s", n);
        report.reported.push(Metric {
            name: format!("{key}_events_per_s"),
            value: median(&wall_rates),
            unit: "1/s",
            samples: n,
        });
        report.metric(format!("{key}_sim_iops"), first.sim_iops(), "1/s", 1);
        if *sys == System::Wb {
            report.metric("wb_write_amp", write_amp(&first.sim), "ratio", 1);
        }
    }
}

/// The serve slices of the rounds that served: (open loop, closed loop).
fn served(rounds: &[Round]) -> impl Iterator<Item = (&PhaseStats, &PhaseStats)> {
    rounds
        .iter()
        .filter_map(|r| r.serve.as_ref().map(|(o, c)| (o, c)))
}

/// Checks every serve slice and the server's final counters, adding the
/// requests to `attempted` and the failed ones to `failed`.
fn check_serve(rounds: &[Round], down: &ShutdownSummary, report: &mut Report) {
    let mut client_ok = 0;
    for (r, (open, closed)) in served(rounds).enumerate() {
        for (label, p) in [("open loop", open), ("closed loop", closed)] {
            report.check(
                format!("serve round {r} {label}: every request completed or counted failed"),
                p.completed == p.sent && (p.get_us.len() + p.put_us.len()) as u64 == p.completed,
                || format!("sent {} completed {}", p.sent, p.completed),
            );
            report.attempted += p.sent;
            report.failed += p.failed;
            client_ok += p.completed - p.failed;
        }
    }
    let s = &down.stats;
    report.check(
        "serve: the server applied exactly the acknowledged requests",
        s.gets + s.puts == client_ok,
        || {
            format!(
                "server gets+puts {} vs client OK {client_ok}",
                s.gets + s.puts
            )
        },
    );
    report.check(
        "serve: shards healthy and no server thread panicked",
        down.unhealthy_shards == 0 && down.panics.is_empty(),
        || {
            format!(
                "{} unhealthy, panics {:?}",
                down.unhealthy_shards, down.panics
            )
        },
    );
}

/// Serve latencies (open loop, pooled over every round's slice, timed
/// from the scheduled send) and closed-loop throughput, as `serve.*`
/// per-layer metrics.
fn serve_figures(rounds: &[Round]) -> Vec<Metric> {
    let pooled = |f: fn(&PhaseStats) -> &Vec<u64>| -> Vec<u64> {
        served(rounds)
            .flat_map(|(open, _)| f(open).iter().copied())
            .collect()
    };
    let mut gets = pooled(|p| &p.get_us);
    let mut puts = pooled(|p| &p.put_us);
    let closed: u64 = served(rounds).map(|(_, c)| c.completed).sum();
    let closed_s: f64 = served(rounds).map(|(_, c)| c.wall_s).sum();
    let (g, p) = (gets.len() as u64, puts.len() as u64);
    let metric = |name: &str, value: f64, unit: &'static str, samples: u64| Metric {
        name: format!("serve.{name}"),
        value,
        unit,
        samples,
    };
    vec![
        metric("get_p50_us", percentile(&mut gets, 0.50) as f64, "us", g),
        metric("get_p99_us", percentile(&mut gets, 0.99) as f64, "us", g),
        metric("put_p50_us", percentile(&mut puts, 0.50) as f64, "us", p),
        metric("put_p99_us", percentile(&mut puts, 0.99) as f64, "us", p),
        metric("ops_per_s", closed as f64 / closed_s, "1/s", closed),
    ]
}

/// Host time of one traced replay split at the wrapper boundaries, ns.
struct LayerSplit {
    wall: f64,
    decode: f64,
    /// Inside run_batch but outside the device: manager and disksim host
    /// time.
    cachemgr: f64,
    /// Inside the wrapped device calls (core or ftl).
    device: f64,
    /// Outside both: the replay loop itself.
    unattributed: f64,
}

/// Each timed call reads the clock twice; about one read's cost falls
/// inside the measured interval (subtracted from the device time) and one
/// outside it, inside run_batch (subtracted from the manager's time).
fn split(t: &TracedOutcome, clock_ns: f64) -> LayerSplit {
    let times = t.outcome.times;
    let ops = t.probe.ops();
    let device: f64 = ops
        .iter()
        .map(|o| corrected_ns_per_item(o, clock_ns) * o.items as f64)
        .sum();
    let timed_calls: u64 = ops.iter().map(|o| o.sampled_calls).sum();
    LayerSplit {
        wall: times.wall_ns as f64,
        decode: times.decode_ns as f64,
        cachemgr: times.run_batch_ns as f64 - device - timed_calls as f64 * clock_ns,
        device,
        unattributed: times.wall_ns as f64 - (times.decode_ns + times.run_batch_ns) as f64,
    }
}

/// Mean host ns per item of the timed calls, less one clock read per call.
fn corrected_ns_per_item(o: &wrap::OpStat, clock_ns: f64) -> f64 {
    ratio(
        (o.sampled_ns as f64 - o.sampled_calls as f64 * clock_ns).max(0.0),
        o.sampled_items as f64,
    )
}

/// Per-layer replay metrics and the layer table, from the traced replay
/// with the median wall time of each system. Returns the spans of those
/// replays.
fn replay_layers(
    shape: &Shape,
    trace: &Trace,
    rounds: &[Round],
    clock_ns: f64,
    report: &mut Report,
) -> Vec<Span> {
    check_replays(shape, trace, rounds, report);
    let n_events = shape.events_per_round(trace);
    let mut all_spans: Vec<Span> = Vec::new();
    let mut table = Vec::new();
    for (k, sys) in System::ALL.into_iter().enumerate() {
        let key = sys.key();
        let pairs: Vec<(&ReplayOutcome, &TracedOutcome)> = rounds
            .iter()
            .map(|r| {
                let (p, t) = &r.replays[k];
                (p, t.as_ref().expect("traced run"))
            })
            .collect();
        // Overhead compares thread CPU time, which unlike wall time does
        // not swing with preemption on a shared host.
        let plain_cpu: Vec<f64> = pairs.iter().map(|p| p.0.times.cpu_ns as f64).collect();
        let traced_cpu: Vec<f64> = pairs
            .iter()
            .map(|p| p.1.outcome.times.cpu_ns as f64)
            .collect();
        let overhead = median(&traced_cpu) / median(&plain_cpu) - 1.0;
        let traced_walls: Vec<f64> = pairs
            .iter()
            .map(|p| p.1.outcome.times.wall_ns as f64)
            .collect();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| traced_walls[a].total_cmp(&traced_walls[b]));
        let traced = pairs[order[order.len() / 2]].1;
        let sim = &traced.outcome.sim;
        let ev = n_events as f64;
        let writes = sim.get("mgr.writes") as f64;
        let reads = sim.get("mgr.reads") as f64;
        let ls = split(traced, clock_ns);
        let m = |report: &mut Report, name: &str, v: f64, unit: &'static str| {
            report.metric(format!("{key}.{name}"), v, unit, n_events);
        };
        m(report, "cachemgr.decode_ns_per_event", ls.decode / ev, "ns");
        m(report, "cachemgr.self_ns_per_event", ls.cachemgr / ev, "ns");
        m(
            report,
            "cachemgr.read_hit_ratio",
            ratio(sim.get("mgr.read_hits") as f64, reads),
            "ratio",
        );
        m(
            report,
            "cachemgr.host_map_bytes",
            traced.outcome.host_map_bytes as f64,
            "bytes",
        );
        match sys {
            System::Wb => m(
                report,
                "cachemgr.writebacks_per_write",
                ratio(sim.get("mgr.writebacks") as f64, writes),
                "ratio",
            ),
            System::Native => m(
                report,
                "cachemgr.metadata_writes_per_write",
                ratio(sim.get("mgr.metadata_writes") as f64, writes),
                "ratio",
            ),
            System::Wt => {}
        }
        let ops = traced.probe.ops();
        let (specs, layer): (&[wrap::OpSpec], &[&str]) = match sys {
            System::Wt => (&SSC_OPS, &WT_CORE_OPS),
            System::Wb => (&SSC_OPS, &WB_CORE_OPS),
            System::Native => (&FTL_OPS, &NATIVE_FTL_OPS),
        };
        let mut device_sim_us = 0u64;
        for (i, name) in specs.iter().map(|o| o.name).enumerate() {
            device_sim_us += ops[i].sim_us;
            if !layer.contains(&name) {
                continue;
            }
            let o = &ops[i];
            m(report, &format!("{name}.calls"), o.items as f64, "count");
            m(
                report,
                &format!("{name}.ns_per_call"),
                corrected_ns_per_item(o, clock_ns),
                "ns",
            );
            m(
                report,
                &format!("{name}.sim_us_per_call"),
                o.sim_us_per_item(),
                "us",
            );
        }
        if sys == System::Native {
            m(
                report,
                "ftl.gc_copies_per_host_write",
                ratio(sim.get("ftl.gc_copies") as f64, writes),
                "ratio",
            );
        } else {
            let flushes = sim.get("wal.flushes") as f64;
            m(
                report,
                "core.wal_flushes_per_write",
                ratio(flushes, writes),
                "ratio",
            );
            m(
                report,
                "core.wal_records_per_flush",
                ratio(sim.get("wal.records_flushed") as f64, flushes),
                "ratio",
            );
            m(
                report,
                "core.checkpoint_pages_per_write",
                ratio(sim.get("ckpt.pages_written") as f64, writes),
                "ratio",
            );
            m(
                report,
                "core.gc_copies_per_host_write",
                ratio(sim.get("ssc.gc_copies") as f64, writes),
                "ratio",
            );
            m(
                report,
                "core.silently_evicted_pages",
                sim.get("ssc.silently_evicted_pages") as f64,
                "count",
            );
            m(
                report,
                "core.full_merges",
                sim.get("ssc.full_merges") as f64,
                "count",
            );
            m(
                report,
                "core.map_bytes_per_cached_page",
                ratio(
                    sim.get("dev.map_modeled_bytes") as f64,
                    sim.get("ssc.cached_pages") as f64,
                ),
                "bytes",
            );
        }
        m(
            report,
            "flashsim.page_reads_per_event",
            sim.get("flash.page_reads") as f64 / ev,
            "ratio",
        );
        m(
            report,
            "flashsim.page_programs_per_event",
            sim.get("flash.page_writes") as f64 / ev,
            "ratio",
        );
        m(
            report,
            "flashsim.erases_per_event",
            sim.get("flash.erases") as f64 / ev,
            "ratio",
        );
        let (dr, dw) = (sim.get("disk.reads") as f64, sim.get("disk.writes") as f64);
        m(report, "disksim.reads_per_event", dr / ev, "ratio");
        m(report, "disksim.writes_per_event", dw / ev, "ratio");
        m(
            report,
            "disksim.seq_ratio",
            ratio(sim.get("disk.sequential_hits") as f64, dr + dw),
            "ratio",
        );
        m(
            report,
            "disksim.sim_us_per_event",
            sim.sim_time_us.saturating_sub(device_sim_us) as f64 / ev,
            "us",
        );
        m(report, "trace.overhead_ratio", overhead, "ratio");
        let pct = |v: f64| json_num(100.0 * v / ls.wall);
        table.push(format!(
            "{{\"system\": \"{key}\", \"events\": {n_events}, \"untraced_cpu_ms\": {}, \
             \"traced_cpu_ms\": {}, \"traced_wall_ms\": {}, \"decode_pct\": {}, \"cachemgr_disksim_pct\": {}, \
             \"{}_pct\": {}, \"unattributed_pct\": {}, \"tracing_overhead\": {}, \"rounds\": {}}}",
            json_num(median(&plain_cpu) / 1e6),
            json_num(median(&traced_cpu) / 1e6),
            json_num(ls.wall / 1e6),
            pct(ls.decode),
            pct(ls.cachemgr),
            if sys == System::Native { "ftl" } else { "core" },
            pct(ls.device),
            pct(ls.unattributed),
            json_num(overhead),
            rounds.len(),
        ));
        all_spans.extend_from_slice(traced.spans.spans());
    }
    report
        .details
        .push(("layer_table".into(), json_list(table.into_iter())));
    all_spans
}

/// Per-layer serve metrics.
fn serve_layers(rounds: &[Round], down: &ShutdownSummary, report: &mut Report) {
    check_serve(rounds, down, report);
    report.metrics.extend(serve_figures(rounds));
    let s = down.stats;
    let apply_ns: u64 = rounds.iter().map(|r| r.apply_ns).sum();
    let ops: u64 = served(rounds).map(|(o, c)| o.completed + c.completed).sum();
    let apply_per_op = ratio(apply_ns as f64, ops as f64);
    let serve_wall_ns: f64 = served(rounds)
        .map(|(o, c)| (o.wall_s + c.wall_s) * 1e9)
        .sum();
    let mut p50s = Vec::new();
    let mut late = Vec::new();
    for (open, _) in served(rounds) {
        let mut lat: Vec<u64> = open.get_us.iter().chain(&open.put_us).copied().collect();
        p50s.push(percentile(&mut lat, 0.5) as f64);
        let mut l = open.lateness_us.clone();
        late.push(percentile(&mut l, 0.99) as f64);
    }
    let open_ops: u64 = served(rounds).map(|(o, _)| o.completed).sum();
    report.metric("server.apply_ns_per_op", apply_per_op, "ns", ops);
    report.metric(
        "server.outside_apply_us_p50",
        median(&p50s) - apply_per_op / 1e3,
        "us",
        open_ops,
    );
    report.metric(
        "server.ops_per_batch",
        ratio(s.batched_ops as f64, s.batches as f64),
        "ratio",
        s.batches,
    );
    report.metric(
        "server.apply_busy_ratio",
        apply_ns as f64 / (serve::SHARDS as f64 * serve_wall_ns),
        "ratio",
        rounds.len() as u64,
    );
    report.metric("server.busy_rejects", s.busy_rejects as f64, "count", 1);
    report.metric("server.shed_expired", s.shed_expired as f64, "count", 1);
    report.metric(
        "server.protocol_errors",
        s.protocol_errors as f64,
        "count",
        1,
    );
    report.metric(
        "loadgen.send_lateness_us_p99",
        median(&late),
        "us",
        open_ops,
    );
}

fn write_spans(dir: &Path, file: &str, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let f = std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns").map_err(io)?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)
}

/// A JSON number; non-finite values (a bug) become `null`, which the
/// run's `correct` flag already rejects.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of already-encoded values.
pub fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// The run record: one JSON object holding everything the run measured.
pub fn record_json(workload: &str, seed: u64, seconds: f64, traced: bool, r: &Report) -> String {
    let object = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (metrics, reported) = (object(&r.metrics), object(&r.reported));
    let checks = json_list(r.checks.iter().map(|c| {
        format!(
            "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
            json_str(&c.name),
            c.ok,
            json_str(&c.detail)
        )
    }));
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}, \
         \"reported\": {{{reported}}}, \"checks\": {checks}",
        json_str(workload),
        json_num(seconds),
        u8::from(traced),
        r.correct(),
        r.attempted,
        r.failed,
    );
    for (k, v) in &r.details {
        let _ = write!(out, ", {}: {v}", json_str(k));
    }
    out.push('}');
    out
}
