//! `nmad-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload through the library's public API and prints a
//! human-readable report followed, as the last line of standard output,
//! by one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones. Exits 1 if
//! any operation failed or any delivery differed from its seeded
//! content, and 2 on bad arguments.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nmad_bench::loadgen::BoundedPareto;
use nmad_core::{EngineConfig, StrategyKind};
use nmad_model::platform::paper_platform;
use nmad_model::Platform;
use nmad_perfbench::floors;
use nmad_perfbench::gen::{self, Msg, Payloads};
use nmad_perfbench::replay::{self, Replay, Shape};
use nmad_perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use nmad_perfbench::stats::{self, Summary, Tally};
use nmad_perfbench::sys;
use nmad_perfbench::trace::Tracer;
use nmad_perfbench::workloads::{self, Phase, WINDOW};
use nmad_transport_mem as mem;
use nmad_transport_tcp as tcp;

/// Endpoint pairs built (and timed) per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Unrecorded traffic before the measured phase. The bulk stream runs
/// faster for its first second or so, before its receiver first falls
/// behind; two seconds keeps that transient out of every measurement.
const WARMUP: Duration = Duration::from_secs(2);
/// Budget of the engine replay and of each raw floor (traced run only).
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const FLOOR_BUDGET: Duration = Duration::from_millis(700);
/// Spans kept in memory by the traced run.
const SPAN_CAP: usize = 100_000;
/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

/// pingpong-small sizes: all eager, below the PIO/split threshold.
const PINGPONG_SIZES: (usize, usize) = (8, 4096);
/// stream-bulk sizes: every message takes rendezvous and the split path.
const STREAM_SIZES: (usize, usize) = (64 << 10, 4 << 20);
const STREAM_WINDOW: usize = 4;
/// mixed-shaped: rails slowed tenfold, four channels, heavy-tailed sizes.
const TIME_SCALE: f64 = 10.0;
const MIXED_CHANNELS: usize = 4;
const MIXED_SIZES: (u64, u64, f64) = (64, 1 << 20, 0.3);
/// Offered load of the mixed workload, as a share of the modelled
/// aggregate rail bandwidth. At 50% and above the shaped runtime falls
/// into backlog episodes at random (p99 from 28 to 76 ms over ten seeds
/// at 50%, up to seconds at 60%), which no bound can gate.
const LOAD: f64 = 0.30;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    PingPong,
    Stream,
    Mixed,
}

struct Args {
    workload: &'static str,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: nmad-perfbench --workload <{}> --seed <u64> --seconds <1-600> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown option {k:?}"));
        }
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        if kv.insert(key.to_string(), v).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let wname = get("workload")?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == wname)
        .ok_or_else(|| format!("unknown workload {wname:?}"))?;
    let kind = match spec.name {
        "pingpong-small" => Kind::PingPong,
        "stream-bulk" => Kind::Stream,
        _ => Kind::Mixed,
    };
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<u64>()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds must be a whole number from 1 to 600")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload: spec.name,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// The engine every workload runs: the library's defaults, with only the
/// strategy and CRC set.
fn engine_config() -> EngineConfig {
    EngineConfig {
        strategy: StrategyKind::AdaptiveSplit,
        crc: true,
        ..EngineConfig::default()
    }
}

/// A built endpoint pair of either fabric.
enum Fabric {
    Tcp(tcp::Endpoint, tcp::Endpoint),
    Mem(mem::Endpoint, mem::Endpoint),
}

fn build(kind: Kind, platform: &Platform) -> Result<Fabric, String> {
    match kind {
        Kind::PingPong | Kind::Stream => {
            let cfg = tcp::TcpConfig::new(platform.clone(), engine_config());
            let (a, b) = tcp::pair_localhost(cfg).map_err(|e| format!("tcp pair: {e}"))?;
            Ok(Fabric::Tcp(a, b))
        }
        Kind::Mixed => {
            let mut cfg = mem::FabricConfig::new(platform.clone(), engine_config());
            cfg.conns = MIXED_CHANNELS;
            cfg.time_scale = TIME_SCALE;
            let (a, b) = mem::pair(cfg);
            Ok(Fabric::Mem(a, b))
        }
    }
}

/// Build `reps` pairs, timing each; keep the last. Returns the pair and
/// the median build time.
fn setup(kind: Kind, platform: &Platform, reps: usize) -> Result<(Fabric, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let f = build(kind, platform)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(f);
    }
    times.sort_by(f64::total_cmp);
    Ok((last.expect("reps >= 1"), times[times.len() / 2]))
}

/// The workload's inputs, all derived from the seed.
struct Inputs {
    pay: Payloads,
    /// Closed-loop message sequence (also what the replay and floors use).
    msgs: Vec<Msg>,
    /// Open-loop offered rate, messages per second.
    rate_hz: f64,
    sizes: BoundedPareto,
}

fn modelled_rail_bytes_per_s(platform: &Platform) -> f64 {
    platform.rail_bandwidth_sum() / TIME_SCALE
}

fn inputs(kind: Kind, seed: u64, platform: &Platform) -> Inputs {
    let sizes = BoundedPareto::new(MIXED_SIZES.0, MIXED_SIZES.1, MIXED_SIZES.2);
    match kind {
        Kind::PingPong => {
            let pool = 1 << 20;
            Inputs {
                pay: Payloads::new(seed, pool),
                msgs: gen::closed_sequence(seed, 1 << 16, PINGPONG_SIZES.0, PINGPONG_SIZES.1, pool),
                rate_hz: 0.0,
                sizes,
            }
        }
        Kind::Stream => {
            let pool = 16 << 20;
            Inputs {
                pay: Payloads::new(seed, pool),
                msgs: gen::closed_sequence(seed, 1 << 14, STREAM_SIZES.0, STREAM_SIZES.1, pool),
                rate_hz: 0.0,
                sizes,
            }
        }
        Kind::Mixed => {
            let pool = 4 << 20;
            let rate_hz =
                LOAD * modelled_rail_bytes_per_s(platform) / gen::bounded_pareto_mean(&sizes);
            // The replay and the floors take the first few seconds of the
            // same schedule the live run uses.
            let msgs = gen::open_schedule(
                seed,
                MIXED_CHANNELS,
                rate_hz,
                sizes,
                Duration::from_secs(2),
                pool,
            );
            Inputs {
                pay: Payloads::new(seed, pool),
                msgs,
                rate_hz,
                sizes,
            }
        }
    }
}

/// Run one phase of `run` on the built fabric.
fn measure(
    f: &Fabric,
    kind: Kind,
    seed: u64,
    inp: &Inputs,
    run: Duration,
    tr: &mut Tracer,
) -> Phase {
    match (f, kind) {
        (Fabric::Tcp(a, b), Kind::PingPong) => {
            workloads::pingpong(a, b, &inp.msgs, &inp.pay, run, tr)
        }
        (Fabric::Tcp(a, b), Kind::Stream) => {
            workloads::stream(a, b, &inp.msgs, &inp.pay, STREAM_WINDOW, run, tr)
        }
        (Fabric::Mem(a, b), Kind::Mixed) => {
            let sched = gen::open_schedule(
                seed,
                MIXED_CHANNELS,
                inp.rate_hz,
                inp.sizes,
                run,
                inp.pay.len(),
            );
            workloads::open_loop(a, b, &sched, &inp.pay, tr)
        }
        _ => unreachable!("fabric built for this kind"),
    }
}

/// The end-to-end time per message the ledger splits into layers: half a
/// round trip, the stream's service time per message, or the open
/// loop's mean latency from due time.
fn e2e_us_per_msg(kind: Kind, ph: &Phase) -> f64 {
    let msgs = ph.msgs.max(1) as f64;
    match kind {
        Kind::PingPong | Kind::Stream => ph.wall.as_secs_f64() * 1e6 / msgs,
        Kind::Mixed => ph.lat_us.iter().sum::<f64>() / msgs,
    }
}

fn summary(v: &[f64]) -> Summary {
    let mut v = v.to_vec();
    stats::summarize(&mut v, 99.0).unwrap_or(Summary {
        n: v.len(),
        p50: f64::NAN,
        tail_p: f64::NAN,
        tail: f64::NAN,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        self.metrics.push((name, value, unit));
    }
}

/// Median over the run's full [`WINDOW`]s of each window's figures, so a
/// burst of noise on a shared host moves one window, not the metric. Only
/// the half of the windows in which the hypervisor stole the least CPU
/// time count: on a shared host, stolen time, not the program, is what
/// moves wall-clock tails.
struct Windowed {
    windows: usize,
    kept: usize,
    /// Stolen share of the machine's CPU time in the noisiest window kept.
    max_steal: f64,
    min_n: usize,
    /// The lowest tail percentile any kept window could support.
    tail_p: f64,
    lat_p50: f64,
    lat_tail: f64,
    goodput: f64,
    cpu_per_op: f64,
}

/// One window's figures.
struct Window {
    steal: u64,
    n: usize,
    tail_p: f64,
    p50: f64,
    tail: f64,
    goodput: f64,
    cpu_per_op: f64,
}

fn windowed(ph: &Phase, run: Duration) -> Option<Windowed> {
    let w = WINDOW.as_secs_f64();
    let full = (run.as_secs_f64() / w).floor() as usize;
    let mut lat = vec![Vec::new(); full];
    let mut bytes = vec![0u64; full];
    for (&l, &(t, b)) in ph.lat_us.iter().zip(&ph.done) {
        let k = (t / w) as usize;
        if k < full {
            lat[k].push(l);
            bytes[k] += b;
        }
    }
    let mut wins = Vec::with_capacity(full);
    for (k, l) in lat.iter_mut().enumerate() {
        let s = stats::summarize(l, 99.0)?;
        let (a, b) = (ph.marks.get(k)?, ph.marks.get(k + 1)?);
        wins.push(Window {
            steal: b.steal.saturating_sub(a.steal),
            n: s.n,
            tail_p: s.tail_p,
            p50: s.p50,
            tail: s.tail,
            goodput: bytes[k] as f64 / w / 1e6,
            cpu_per_op: (b.cpu - a.cpu).as_secs_f64() * 1e6 / s.n as f64,
        });
    }
    // Stable: with no stolen time at all, the earliest windows count.
    wins.sort_by_key(|x| x.steal);
    wins.truncate(full.div_ceil(2));
    let med = |f: fn(&Window) -> f64| stats::median(&mut wins.iter().map(f).collect::<Vec<_>>());
    let machine_ticks = w * (sys::clock_ticks() * sys::parallelism() as u64) as f64;
    Some(Windowed {
        windows: full,
        kept: wins.len(),
        max_steal: wins.last()?.steal as f64 / machine_ticks,
        min_n: wins.iter().map(|x| x.n).min()?,
        tail_p: wins.iter().map(|x| x.tail_p).fold(100.0, f64::min),
        lat_p50: med(|x| x.p50)?,
        lat_tail: med(|x| x.tail)?,
        goodput: med(|x| x.goodput)?,
        cpu_per_op: med(|x| x.cpu_per_op)?,
    })
}

fn end_to_end(kind: Kind, ph: &Phase, run: Duration, setup_s: f64, rep: &mut Report) {
    let whole = summary(&ph.lat_us);
    let op = match kind {
        Kind::PingPong => "round trip",
        Kind::Stream => "message, submit to delivery",
        Kind::Mixed => "message, due time to delivery",
    };
    rep.notes.push(format!(
        "latency per {op}: whole run n={} p50 {:.1}us p{} {:.1}us max {:.1}us; ops={} msgs={} wall={:.3}s cpu={:.3}s",
        whole.n,
        whole.p50,
        whole.tail_p,
        whole.tail,
        ph.lat_us.iter().copied().fold(0.0, f64::max),
        ph.ops,
        ph.msgs,
        ph.wall.as_secs_f64(),
        ph.cpu.as_secs_f64()
    ));
    rep.notes.push(format!(
        "failed_ratio={} (timeouts={} mismatches={} refused={} endpoint_errors={} of {} attempted)",
        ph.tally.failed_ratio(),
        ph.tally.timeouts,
        ph.tally.mismatches,
        ph.tally.refused,
        ph.tally.endpoint_errors,
        ph.tally.attempted
    ));
    let Some(w) = windowed(ph, run) else {
        rep.notes
            .push("too few operations for per-window figures".into());
        return;
    };
    rep.notes.push(format!(
        "metrics: median over the {} of {} windows of {}s with the least stolen CPU time (at most {:.1}%), each with >= {} ops; \
         tail is p{} (highest percentile with >= {} samples beyond it in every window)",
        w.kept,
        w.windows,
        WINDOW.as_secs(),
        100.0 * w.max_steal,
        w.min_n,
        w.tail_p,
        stats::MIN_TAIL_SAMPLES
    ));
    rep.put("lat_p50_us", w.lat_p50);
    rep.put("lat_p99_us", w.lat_tail);
    rep.put("goodput_MBps", w.goodput);
    rep.put("cpu_us_per_op", w.cpu_per_op);
    rep.put("setup_s", setup_s);
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    kind: Kind,
    platform: &Platform,
    plain: &Phase,
    traced: &Phase,
    traced_tr: &Tracer,
    rp: &Replay,
    replay_tr: &Tracer,
    tcp_floor: floors::Floor,
    chan_floor: floors::Floor,
    rep: &mut Report,
) {
    let c = &plain.counters;
    let msgs = plain.msgs.max(1);
    rep.put("core.submit_ns", rp.per_msg(rp.submit));
    rep.put("core.post_recv_ns", rp.per_msg(rp.post_recv));
    rep.put("core.next_tx_ns", rp.per_msg(rp.next_tx));
    rep.put("core.on_tx_done_ns", rp.per_msg(rp.on_tx_done));
    rep.put("core.on_frame_ns", rp.per_msg(rp.on_frame));
    rep.put("core.try_recv_ns", rp.per_msg(rp.try_recv));
    let core_us = rp.engine_ns_per_msg() / 1e3;
    rep.put("core.cpu_us_per_msg", core_us);
    rep.put(
        "wire.crc_ns_per_KiB",
        rp.crc.ns as f64 / (rp.crc_bytes.max(1) as f64 / 1024.0),
    );
    rep.put(
        "wire.decode_ns_per_frame",
        ratio(rp.decode.ns, rp.decode.calls),
    );
    rep.put("wire.copied_bytes_per_msg", ratio(c.copied_bytes, msgs));
    rep.put(
        "core.strategy.packets_per_msg",
        ratio(c.packets, c.msgs_sent),
    );
    rep.put(
        "core.strategy.segments_per_aggregate",
        ratio(c.segments_aggregated, c.aggregates),
    );
    let share = ratio(c.rail0_payload, c.payload);
    let ideal = platform.rails[0].link_bandwidth / platform.rail_bandwidth_sum();
    rep.put("core.strategy.rail0_byte_share", share);
    rep.put("core.strategy.rail0_ideal_share", ideal);
    rep.put("core.strategy.rail0_share_gap", (share - ideal).abs());
    rep.put(
        "core.strategy.useful_offer_ratio",
        ratio(c.packets, c.idle_queries),
    );
    rep.put(
        "core.pool.magazine_hit_ratio",
        ratio(c.magazine_hits, c.pool_takes),
    );
    rep.put(
        "core.pool.hot_path_allocs_per_msg",
        ratio(c.hot_allocs, msgs),
    );
    let send_us = ratio(plain.send_ns, plain.send_calls) / 1e3;
    let post_us = ratio(plain.post_ns, plain.post_calls) / 1e3;
    rep.put("transport.send_call_us", send_us);
    rep.put("transport.post_recv_call_us", post_us);
    let e2e = e2e_us_per_msg(kind, plain);
    rep.put("transport.residual_us", e2e - core_us);
    rep.put(
        "transport.tx_syscalls_per_packet",
        ratio(c.tx_calls, c.tx_frames),
    );
    rep.put(
        "transport.rx_syscalls_per_packet",
        ratio(c.rx_calls, c.rx_frames),
    );
    rep.put("transport.errors", c.errors as f64);
    rep.put(
        "transport.outstanding_p99",
        summary(&plain.outstanding).tail,
    );
    rep.put("floor.tcp_rtt_us", tcp_floor.rtt_us);
    rep.put("floor.chan_rtt_us", chan_floor.rtt_us);
    rep.put("bench.gen_lag_p99_us", summary(&plain.lag_us).tail);
    let e2e_traced = e2e_us_per_msg(kind, traced);
    rep.put("bench.trace_overhead_pct", 100.0 * (e2e_traced - e2e) / e2e);
    // The ledger, per message: what the app thread spent in the library's
    // calls and its own checks, the engine work done on the progress
    // threads (replayed), the raw transport's one-way floor, and — on the
    // shaped fabric — the modelled wire time at the ideal split.
    let live_self = traced_tr.self_ns_by_layer();
    let replay_self = replay_tr.self_ns_by_layer();
    let per_live = |layer: &str| {
        live_self.get(layer).copied().unwrap_or(0) as f64 / 1e3 / traced.msgs.max(1) as f64
    };
    let per_replay = |layer: &str| {
        replay_self.get(layer).copied().unwrap_or(0) as f64 / 1e3 / rp.msgs.max(1) as f64
    };
    let (floor_one_way, wire_us) = match kind {
        Kind::PingPong | Kind::Stream => (tcp_floor.rtt_us / 2.0, 0.0),
        Kind::Mixed => {
            let bytes = plain.payload_bytes as f64 / msgs as f64;
            let min_lat = platform
                .rails
                .iter()
                .map(|r| r.wire_latency.as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            let wire = (bytes / platform.rail_bandwidth_sum() + min_lat) * TIME_SCALE * 1e6;
            (chan_floor.rtt_us / 2.0, wire)
        }
    };
    let engine_off_thread = core_us - (rp.per_msg(rp.submit) + rp.per_msg(rp.post_recv)) / 1e3;
    let bench_us = per_live("bench");
    let attributed = bench_us
        + ratio(plain.send_ns, msgs) / 1e3
        + ratio(plain.post_ns, msgs) / 1e3
        + engine_off_thread
        + floor_one_way
        + wire_us;
    rep.put("bench.unattributed_pct", 100.0 * (e2e - attributed) / e2e);
    rep.put(
        "bench.failed_ratio",
        traced_tally(plain, traced, rp).failed_ratio(),
    );
    rep.put("bench.e2e_us_per_msg", e2e);
    rep.put("self.app_us", per_live("e2e"));
    rep.put("self.bench_us", bench_us);
    rep.put("self.transport_us", per_live("transport"));
    rep.put("self.core_us", per_replay("core"));
    rep.put("self.wire_us", per_replay("wire"));
    rep.notes.push(format!(
        "ledger per message (us): e2e {e2e:.3} = app checks {bench_us:.3} + send call {:.3} + post call {:.3} \
         + engine off-thread {engine_off_thread:.3} + raw floor one-way {floor_one_way:.3} + modelled wire {wire_us:.3} \
         + unattributed {:.3}",
        ratio(plain.send_ns, msgs) / 1e3,
        ratio(plain.post_ns, msgs) / 1e3,
        e2e - attributed
    ));
    rep.notes.push(format!(
        "replay: {} msgs; floors: tcp {} and chan {} round trips; spans kept {} (+{} replay), dropped {}",
        rp.msgs,
        tcp_floor.round_trips,
        chan_floor.round_trips,
        traced_tr.spans().len(),
        replay_tr.spans().len(),
        traced_tr.dropped() + replay_tr.dropped()
    ));
}

/// Every attempt and failure of a traced run: both live halves and the
/// replay's integrity checks.
fn traced_tally(plain: &Phase, traced: &Phase, rp: &Replay) -> Tally {
    let mut t = plain.tally;
    t.add(&traced.tally);
    t.mismatches += rp.mismatches;
    t
}

/// Share of the machine's CPU time the hypervisor took since `t0`: on a
/// shared host this, not the program, is what moves wall-clock tails.
fn steal_note(rep: &mut Report, steal0: u64, t0: Instant) {
    let cpu_ticks =
        t0.elapsed().as_secs_f64() * (sys::clock_ticks() * sys::parallelism() as u64) as f64;
    let stolen = sys::steal_ticks().saturating_sub(steal0) as f64;
    rep.notes.push(format!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * stolen / cpu_ticks.max(1.0)
    ));
}

/// CPU time of every thread so far, and the core it last ran on.
fn thread_notes(rep: &mut Report) {
    for t in sys::thread_cpu() {
        rep.notes.push(format!(
            "thread {}: cpu {:.3}s, preempted {} times, last on cpu {}",
            t.name,
            t.cpu.as_secs_f64(),
            t.preempted,
            t.last_cpu
        ));
    }
}

fn json_line(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(bool, Tally, Report), String> {
    let platform = paper_platform();
    let inp = inputs(args.kind, args.seed, &platform);
    let run_for = Duration::from_secs(args.seconds);
    let mut rep = Report {
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let (steal0, t0) = (sys::steal_ticks(), Instant::now());
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (fabric, setup_s) = setup(args.kind, &platform, reps)?;
    let warm = measure(
        &fabric,
        args.kind,
        args.seed ^ 0x3A7,
        &inp,
        WARMUP,
        &mut Tracer::off(),
    );
    if warm.tally.failed() > 0 {
        return Ok((warm.tally.integrity_ok(), warm.tally, rep));
    }
    if !args.trace {
        let ph = measure(
            &fabric,
            args.kind,
            args.seed,
            &inp,
            run_for,
            &mut Tracer::off(),
        );
        thread_notes(&mut rep);
        steal_note(&mut rep, steal0, t0);
        drop(fabric);
        end_to_end(args.kind, &ph, run_for, setup_s, &mut rep);
        rep.notes
            .push(format!("setup: median of {reps} endpoint-pair builds"));
        let ok = ph.tally.integrity_ok() && ph.tally.failed() == 0;
        return Ok((ok, ph.tally, rep));
    }
    // Traced run: an untraced half and a traced half on the same pair,
    // then the engine replay and the raw floors.
    let half = run_for / 2;
    let plain = measure(
        &fabric,
        args.kind,
        args.seed,
        &inp,
        half,
        &mut Tracer::off(),
    );
    let mut live_tr = Tracer::with_capacity(SPAN_CAP);
    let traced = measure(&fabric, args.kind, args.seed, &inp, half, &mut live_tr);
    thread_notes(&mut rep);
    steal_note(&mut rep, steal0, t0);
    drop(fabric);
    let shape = match args.kind {
        Kind::PingPong => Shape::PingPong,
        Kind::Stream => Shape::Window(STREAM_WINDOW),
        Kind::Mixed => Shape::Window(MIXED_CHANNELS),
    };
    let conns = match args.kind {
        Kind::Mixed => MIXED_CHANNELS,
        _ => 1,
    };
    let mut replay_tr = Tracer::with_capacity(SPAN_CAP);
    let rp = replay::Pair::new(&engine_config(), &platform, conns).replay(
        &inp.msgs,
        &inp.pay,
        shape,
        REPLAY_BUDGET,
        &mut replay_tr,
    );
    let mut floor_tr = Tracer::with_capacity(SPAN_CAP / 10);
    let tcp_floor = floors::tcp_rtt(&inp.msgs, &inp.pay, FLOOR_BUDGET, &mut floor_tr)
        .map_err(|e| format!("tcp floor: {e}"))?;
    let chan_floor = floors::chan_rtt(&inp.msgs, &inp.pay, FLOOR_BUDGET, &mut floor_tr);
    per_layer(
        args.kind, &platform, &plain, &traced, &live_tr, &rp, &replay_tr, tcp_floor, chan_floor,
        &mut rep,
    );
    let out = Path::new(SPAN_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    for (tr, suffix) in [
        (&live_tr, "live"),
        (&replay_tr, "replay"),
        (&floor_tr, "floor"),
    ] {
        let p = out.with_extension(format!("{suffix}.jsonl"));
        tr.write_jsonl(&p)
            .map_err(|e| format!("writing {}: {e}", p.display()))?;
    }
    rep.notes.push(format!(
        "spans written to {}.{{live,replay,floor}}.jsonl",
        out.with_extension("").display()
    ));
    let tally = traced_tally(&plain, &traced, &rp);
    let ok = tally.integrity_ok() && tally.failed() == 0;
    Ok((ok, tally, rep))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let (ok, tally, rep) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::from(1);
        }
    };
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parsed");
    println!("workload   {} ({})", spec.name, spec.why);
    println!(
        "seed {}  git {}  trace {}  seconds {}  cpus {}  clock ticks {}/s",
        args.seed,
        sys::git_sha(Path::new(".")),
        u8::from(args.trace),
        args.seconds,
        sys::parallelism(),
        sys::clock_ticks()
    );
    for n in &rep.notes {
        println!("  {n}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    println!("  elapsed {:.1}s", started.elapsed().as_secs_f64());
    let want = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let complete =
        ok && want.len() == rep.metrics.len() && rep.metrics.iter().all(|m| m.1.is_finite());
    println!("{}", json_line(complete, &tally, &rep.metrics));
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
