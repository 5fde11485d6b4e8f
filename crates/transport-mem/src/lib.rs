//! # nmad-transport-mem — the engine on real threads
//!
//! The simulator proves the *timing* claims; this crate proves the engine
//! is a real communication library: two endpoints in one process, each
//! driven by its own progress thread, exchanging fully encoded wire
//! packets over per-rail channels. The same [`Engine`] code runs here as
//! under the simulator — only the driver side differs:
//!
//! * each rail is a [`crossbeam_channel`] pair, optionally rate-shaped to
//!   the rail's modelled bandwidth (scaled) so multi-rail balancing is
//!   observable in wall-clock time;
//! * the progress thread plays the role of the NIC-activity loop: it
//!   delivers arrivals, reports transmit completions, and offers idle
//!   rails to the engine;
//! * payload CRCs are enabled, and a deterministic fault injector can
//!   corrupt packets in flight to exercise the detection path.
//!
//! The channels carry [`PacketFrame`]s — refcounted scatter-gather views
//! of the sender's buffers, not flattened copies. Duplication and
//! reordering in the fault injector are refcount bumps; corruption does a
//! copy-on-write of the one affected part only (mutating in place would
//! reach back into the sender's retransmission state).
//!
//! The crate holds only the fabric's config, its link workers and the
//! [`pair`] builder. The [`Endpoint`] the builder returns, with its
//! handles, waits and telemetry accessors, is [`nmad_core::Endpoint`],
//! shared with every other transport.

#![warn(missing_docs)]
// Copy-regression gate: see DESIGN.md "Datapath and copy discipline".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam_channel::{unbounded, Receiver, Sender};
use nmad_core::endpoint::open_conns;
use nmad_core::engine::Engine;
use nmad_core::{
    ChaosState, Completion, EngineConfig, Event, EventKind, FlightRecorder, OutboxReceiver,
    ParallelHub, SerialState,
};
use nmad_model::{Platform, RailId};
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::PacketFrame;

pub use nmad_core::{Endpoint, RecvHandle, SendHandle};

/// A scheduled outage of one rail: every packet on `rail` is dropped
/// from `down_at` until `up_at` (measured from fabric construction).
/// `up_at: None` kills the rail for good.
#[derive(Clone, Copy, Debug)]
pub struct RailOutage {
    /// Rail to kill.
    pub rail: usize,
    /// Outage start, relative to fabric construction.
    pub down_at: Duration,
    /// Outage end; `None` means the rail never comes back.
    pub up_at: Option<Duration>,
}

impl RailOutage {
    fn covers(&self, elapsed: Duration) -> bool {
        elapsed >= self.down_at && self.up_at.map(|u| elapsed < u).unwrap_or(true)
    }
}

/// Deterministic fault injection on the wire.
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Probability a packet byte gets flipped in flight.
    pub corrupt_prob: f64,
    /// Probability a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability a packet is delivered twice.
    pub dup_prob: f64,
    /// Probability a packet is held back and delivered after the next
    /// packet on the same rail (pairwise reordering).
    pub reorder_prob: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Scheduled rail outages (kill / flap windows).
    pub outages: Vec<RailOutage>,
}

/// Fabric configuration.
#[derive(Clone)]
pub struct FabricConfig {
    /// Rail layout and relative speeds.
    pub platform: Platform,
    /// Engine configuration (strategy etc.). CRC is forced on.
    pub engine: EngineConfig,
    /// Logical channels to open on both endpoints at construction.
    pub conns: usize,
    /// Rate shaping: seconds of wall time per modelled second. `0.0`
    /// disables shaping (transfers complete as fast as threads run).
    /// With shaping, a rail moves `link_bandwidth * 1/scale` bytes per
    /// wall-clock second — keep messages small when scaling heavily.
    pub time_scale: f64,
    /// Optional fault injection applied to outgoing packets.
    pub faults: Option<FaultSpec>,
    /// Optional live chaos dials (per-rail bandwidth multiplier and
    /// drop boost) a soak driver can turn while the fabric runs. The
    /// caller keeps a clone of the handle; the workers read it
    /// lock-free on every injection.
    pub chaos: Option<ChaosState>,
}

impl FabricConfig {
    /// Unshaped, fault-free fabric on the given platform and strategy.
    pub fn new(platform: Platform, engine: EngineConfig) -> Self {
        FabricConfig {
            platform,
            engine,
            conns: 1,
            time_scale: 0.0,
            faults: None,
            chaos: None,
        }
    }
}

struct InFlight {
    ready_at: Instant,
    token: nmad_core::driver::TxToken,
    frame: PacketFrame,
}

struct Worker {
    shared: Arc<SerialState>,
    /// The peer endpoint's shared state, to wake its worker on delivery.
    peer: Arc<SerialState>,
    platform: Platform,
    rx: Vec<Receiver<PacketFrame>>,
    tx: Vec<Sender<PacketFrame>>,
    inflight: Vec<Option<InFlight>>,
    /// Packets held back by the reorder injector, per rail.
    held: Vec<Option<PacketFrame>>,
    /// Fabric construction time: the engine clock and outage windows are
    /// measured from here.
    start: Instant,
    time_scale: f64,
    faults: Option<FaultSpec>,
    chaos: Option<ChaosState>,
    rng: Xoshiro256StarStar,
}

/// Upper bound on an idle wait: keeps shutdown responsive even if a
/// wakeup is lost to a race outside the `work` lock.
const MAX_IDLE_WAIT: Duration = Duration::from_millis(2);
const MIN_IDLE_WAIT: Duration = Duration::from_micros(20);

impl Worker {
    fn run(mut self) {
        loop {
            let progressed = self.step();
            self.shared.notify_app();
            if self.shared.is_shutdown() {
                break;
            }
            if !progressed {
                // Sleep until someone kicks us or the next engine/shaping
                // deadline — no spin-polling.
                self.shared.wait_for_work(self.idle_wait());
            }
        }
    }

    /// How long the worker may sleep: bounded by the earliest shaped
    /// transmission completion and the engine's next timer deadline.
    fn idle_wait(&self) -> Duration {
        let now = Instant::now();
        let mut wait = MAX_IDLE_WAIT;
        for f in self.inflight.iter().flatten() {
            wait = wait.min(f.ready_at.saturating_duration_since(now));
        }
        if let Some(deadline_ns) = self.shared.engine().lock().next_deadline_ns() {
            let now_ns = self.start.elapsed().as_nanos() as u64;
            wait = wait.min(Duration::from_nanos(deadline_ns.saturating_sub(now_ns)));
        }
        wait.max(MIN_IDLE_WAIT)
    }

    fn step(&mut self) -> bool {
        let mut progressed = false;
        let now = Instant::now();
        let now_ns = now.saturating_duration_since(self.start).as_nanos() as u64;
        let mut to_deliver: Vec<(usize, PacketFrame)> = Vec::new();
        let mut eng = self.shared.engine().lock();

        // 0. Run the engine's timers: adaptive retransmission, rail
        // health bookkeeping, reinstatement probes.
        let timer_out = eng.progress(now_ns);
        if !timer_out.retransmitted.is_empty() || timer_out.control_enqueued {
            progressed = true;
        }

        // 1. Deliver arrivals. The frame's parts are still the sender's
        // buffers — the engine reads them without another flatten.
        for rail in 0..self.rx.len() {
            while let Ok(frame) = self.rx[rail].try_recv() {
                progressed = true;
                if eng.on_frame(RailId(rail), &frame).is_err() {
                    self.shared.rx_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 2. Retire transmissions whose shaped duration elapsed.
        for rail in 0..self.inflight.len() {
            let ready = matches!(&self.inflight[rail], Some(f) if f.ready_at <= now);
            if ready {
                let f = self.inflight[rail].take().unwrap();
                progressed = true;
                eng.on_tx_done(RailId(rail), f.token)
                    .expect("token issued by this worker");
                to_deliver.push((rail, f.frame));
            }
        }

        // 3. Offer idle rails to the engine.
        for rail in 0..self.inflight.len() {
            if self.inflight[rail].is_some() {
                continue;
            }
            if let Some(d) = eng
                .next_tx(RailId(rail))
                .expect("engine invariant violated")
            {
                progressed = true;
                let dur = chaos_scaled(
                    shaped_duration(&self.platform, rail, d.frame.wire_len(), self.time_scale),
                    &self.chaos,
                    rail,
                );
                self.inflight[rail] = Some(InFlight {
                    ready_at: now + dur,
                    token: d.token,
                    frame: d.frame,
                });
            }
        }
        drop(eng);
        for (rail, frame) in to_deliver {
            self.deliver(rail, frame);
        }
        progressed
    }

    fn deliver(&mut self, rail: usize, frame: PacketFrame) {
        let boost = chaos_drop_boost(&self.chaos, rail);
        let Some(spec) = &self.faults else {
            // No fault spec: the chaos drop boost still applies (one rng
            // draw, only when a chaos handle is installed and hot).
            if boost > 0.0 && self.rng.chance(boost) {
                self.shared.tx_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            self.push(rail, frame);
            return;
        };
        let elapsed = self.start.elapsed();
        let tx = &self.tx[rail];
        let peer = &self.peer;
        apply_faults(
            spec,
            elapsed,
            rail,
            boost,
            &mut self.rng,
            &mut self.held[rail],
            &self.shared.tx_dropped,
            frame,
            &mut |f| {
                // Peer gone: drop silently (shutdown path).
                let _ = tx.send(f);
                peer.kick();
            },
        );
    }

    /// Hand one wire packet to the peer and wake its worker.
    fn push(&self, rail: usize, frame: PacketFrame) {
        // Peer gone: drop silently (shutdown path).
        let _ = self.tx[rail].send(frame);
        self.peer.kick();
    }
}

/// Wall-clock duration of one shaped injection on `rail`.
fn shaped_duration(platform: &Platform, rail: usize, bytes: usize, time_scale: f64) -> Duration {
    if time_scale <= 0.0 {
        return Duration::ZERO;
    }
    let bw = platform.rails[rail].link_bandwidth;
    let lat = platform.rails[rail].wire_latency.as_secs_f64();
    Duration::from_secs_f64((bytes as f64 / bw + lat) * time_scale)
}

/// Stretch a shaped duration by the chaos bandwidth multiplier: a rail
/// degraded to a quarter of its bandwidth takes 4x the wire time.
/// Identity when no chaos handle is installed or the rail is nominal.
fn chaos_scaled(dur: Duration, chaos: &Option<ChaosState>, rail: usize) -> Duration {
    match chaos {
        Some(c) => {
            let mult = c.bandwidth_mult(rail);
            if mult == 1.0 || dur.is_zero() {
                dur
            } else {
                // `ChaosState` clamps the multiplier to >= 0.01.
                Duration::from_secs_f64(dur.as_secs_f64() / mult)
            }
        }
        None => dur,
    }
}

/// Current chaos drop boost for `rail` (0.0 without a handle).
fn chaos_drop_boost(chaos: &Option<ChaosState>, rail: usize) -> f64 {
    chaos.as_ref().map_or(0.0, |c| c.drop_boost(rail))
}

/// Apply the fault spec to one outgoing frame; survivors reach `push` in
/// delivery order. Shared by the serial worker and the parallel TX
/// workers so both runtimes exercise the identical injector (the rng
/// draw order — drop, corrupt, dup, reorder — is part of the contract:
/// serial fault sequences must not change underneath seeded tests).
#[allow(clippy::too_many_arguments)]
fn apply_faults(
    spec: &FaultSpec,
    elapsed: Duration,
    rail: usize,
    drop_boost: f64,
    rng: &mut Xoshiro256StarStar,
    held: &mut Option<PacketFrame>,
    tx_dropped: &AtomicU64,
    frame: PacketFrame,
    push: &mut dyn FnMut(PacketFrame),
) {
    // Scheduled outage: the rail eats everything, including probes.
    if spec
        .outages
        .iter()
        .any(|o| o.rail == rail && o.covers(elapsed))
    {
        tx_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // The chaos boost folds into the one existing drop draw so the rng
    // sequence (and with it every seeded test) is unchanged when the
    // boost is zero.
    if rng.chance((spec.drop_prob + drop_boost).min(1.0)) {
        tx_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let frame = if rng.chance(spec.corrupt_prob) {
        corrupt_frame(rng, frame)
    } else {
        frame
    };
    let dup = rng.chance(spec.dup_prob);
    if held.is_none() && rng.chance(spec.reorder_prob) {
        // Hold this packet back; it goes out right after the next one
        // on this rail (pairwise reorder). Clones are refcount bumps.
        *held = Some(frame.clone());
        if dup {
            push(frame);
        }
        return;
    }
    push(frame.clone());
    if dup {
        push(frame);
    }
    if let Some(h) = held.take() {
        push(h);
    }
}

/// Flip one bit somewhere in the wire image. Copy-on-write of the one
/// part holding the chosen byte — never the whole wire image. The part
/// cannot be mutated in place: it is refcount-shared with the sender's
/// retransmission state, and a real wire would not reach back into the
/// sender's memory either.
fn corrupt_frame(rng: &mut Xoshiro256StarStar, mut frame: PacketFrame) -> PacketFrame {
    let idx = rng.range_usize(0, frame.wire_len());
    let (part_idx, off) = frame.locate(idx).expect("index within wire image");
    let part = frame.part(part_idx).expect("located part exists");
    let mut raw = BytesMut::with_capacity(part.len());
    raw.extend_from_slice(part);
    raw[off] ^= 1 << rng.range_u64(0, 8);
    frame.replace_part(part_idx, raw.freeze());
    frame
}

/// Parallel runtime: one rail's TX worker. Pops published decisions off
/// its own outbox and sleeps out the shaped wire time *outside the
/// engine lock* — this is where cross-rail overlap (and the measured
/// speedup) comes from — then applies fault injection and hands the
/// frame to the peer's channel. The channel send wakes the peer's RX
/// worker directly; no global condvar is involved.
struct ParTxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    outbox: OutboxReceiver,
    tx: Sender<PacketFrame>,
    platform: Platform,
    time_scale: f64,
    faults: Option<FaultSpec>,
    chaos: Option<ChaosState>,
    /// Reorder-injector hold slot for this rail.
    held: Option<PacketFrame>,
    rng: Xoshiro256StarStar,
    start: Instant,
    /// Per-thread recorder shard; deposited into the hub at exit.
    shard: FlightRecorder,
}

/// Parallel TX worker: upper bound on one outbox wait.
const PAR_TX_IDLE_WAIT: Duration = Duration::from_millis(2);
/// Parallel RX worker: channel wait bound (shutdown responsiveness).
const PAR_RX_IDLE_WAIT: Duration = Duration::from_millis(10);

impl ParTxWorker {
    fn run(mut self) {
        loop {
            match self.outbox.pop_wait(PAR_TX_IDLE_WAIT) {
                Some(d) => self.inject(d),
                None => {
                    if self.hub.is_shutdown() {
                        break;
                    }
                }
            }
        }
        // Clean shutdown drains the outbox: published decisions still go
        // out so the peer's reassembly isn't left dangling.
        while let Some(d) = self.outbox.pop() {
            self.inject(d);
        }
        self.hub.deposit_shard(self.shard.events());
    }

    fn inject(&mut self, d: nmad_core::TxDecision) {
        let bytes = d.frame.wire_len();
        let dur = chaos_scaled(
            shaped_duration(&self.platform, self.rail, bytes, self.time_scale),
            &self.chaos,
            self.rail,
        );
        if dur > Duration::ZERO {
            std::thread::sleep(dur);
        }
        self.shard.record(
            Event::new(
                self.start.elapsed().as_nanos() as u64,
                EventKind::WorkerWrite,
            )
            .rail(self.rail)
            .seq(d.token.0)
            .size(bytes as u64)
            .aux(dur.as_nanos() as u64),
        );
        self.hub.push_completion(
            self.rail,
            Completion::TxDone {
                rail: self.rail,
                token: d.token,
            },
        );
        let boost = chaos_drop_boost(&self.chaos, self.rail);
        match &self.faults {
            None => {
                if boost > 0.0 && self.rng.chance(boost) {
                    self.hub.tx_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let _ = self.tx.send(d.frame);
            }
            Some(spec) => {
                let elapsed = self.start.elapsed();
                let tx = &self.tx;
                apply_faults(
                    spec,
                    elapsed,
                    self.rail,
                    boost,
                    &mut self.rng,
                    &mut self.held,
                    &self.hub.tx_dropped,
                    d.frame,
                    &mut |f| {
                        let _ = tx.send(f);
                    },
                );
            }
        }
    }
}

/// Parallel runtime: one rail's RX worker. Blocks on the rail's channel
/// (the sender's `send` is the wakeup) and queues arrivals for the
/// scheduler's next batched drain.
struct ParRxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    rx: Receiver<PacketFrame>,
    start: Instant,
    shard: FlightRecorder,
}

impl ParRxWorker {
    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(PAR_RX_IDLE_WAIT) {
                Ok(frame) => {
                    self.shard.record(
                        Event::new(self.start.elapsed().as_nanos() as u64, EventKind::WorkerRx)
                            .rail(self.rail)
                            .size(frame.wire_len() as u64),
                    );
                    self.hub.push_completion(
                        self.rail,
                        Completion::RxFrame {
                            rail: self.rail,
                            frame,
                        },
                    );
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                    if self.hub.is_shutdown() {
                        break;
                    }
                }
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.hub.deposit_shard(self.shard.events());
    }
}

/// One direction of the fabric: a channel per rail.
fn rail_channels(n_rails: usize) -> (Vec<Sender<PacketFrame>>, Vec<Receiver<PacketFrame>>) {
    (0..n_rails).map(|_| unbounded()).unzip()
}

/// Build a connected pair of endpoints. With
/// [`EngineConfig::parallel`] off each endpoint gets one progress
/// thread; with it on, each gets the sharded pipeline (scheduler plus
/// per-rail TX/RX workers).
pub fn pair(config: FabricConfig) -> (Endpoint, Endpoint) {
    let mut cfg_engine = config.engine.clone();
    cfg_engine.crc = true;
    if cfg_engine.parallel {
        return pair_parallel(&config, cfg_engine);
    }
    let n_rails = config.platform.rail_count();
    let mk_side = || {
        let mut engine = Engine::new(cfg_engine.clone(), config.platform.rails.clone(), vec![]);
        let conns = open_conns(&mut engine, config.conns);
        (SerialState::new(engine), conns)
    };
    let (shared_a, conns_a) = mk_side();
    let (shared_b, conns_b) = mk_side();
    let (a_to_b_tx, a_to_b_rx) = rail_channels(n_rails);
    let (b_to_a_tx, b_to_a_rx) = rail_channels(n_rails);

    let start = Instant::now();
    let seed = config.faults.as_ref().map(|f| f.seed).unwrap_or(0);
    let spawn = |shared: &Arc<SerialState>, peer: &Arc<SerialState>, rx, tx, seed, name: &str| {
        let worker = Worker {
            shared: shared.clone(),
            peer: peer.clone(),
            platform: config.platform.clone(),
            rx,
            tx,
            inflight: (0..n_rails).map(|_| None).collect(),
            held: (0..n_rails).map(|_| None).collect(),
            start,
            time_scale: config.time_scale,
            faults: config.faults.clone(),
            chaos: config.chaos.clone(),
            rng: Xoshiro256StarStar::new(seed),
        };
        std::thread::Builder::new()
            .name(format!("nmad-mem-{name}"))
            .spawn(move || worker.run())
            .expect("spawn worker")
    };
    let ha = spawn(&shared_a, &shared_b, b_to_a_rx, a_to_b_tx, seed ^ 0xA, "a");
    let hb = spawn(&shared_b, &shared_a, a_to_b_rx, b_to_a_tx, seed ^ 0xB, "b");
    (
        Endpoint::serial(shared_a, ha, conns_a),
        Endpoint::serial(shared_b, hb, conns_b),
    )
}

/// Build a connected pair on the sharded parallel pipeline.
fn pair_parallel(config: &FabricConfig, cfg_engine: EngineConfig) -> (Endpoint, Endpoint) {
    let n_rails = config.platform.rail_count();
    let record_capacity = cfg_engine.record_capacity;
    let seed = config.faults.as_ref().map(|f| f.seed).unwrap_or(0);
    let (a_to_b_tx, a_to_b_rx) = rail_channels(n_rails);
    let (b_to_a_tx, b_to_a_rx) = rail_channels(n_rails);

    let start = Instant::now();
    let build_side = |txs: Vec<Sender<PacketFrame>>,
                      rxs: Vec<Receiver<PacketFrame>>,
                      side_seed: u64,
                      name: &str| {
        let mut engine = Engine::new(cfg_engine.clone(), config.platform.rails.clone(), vec![]);
        let conns = open_conns(&mut engine, config.conns);
        let (hub, senders, receivers) = ParallelHub::new(engine);
        let mut workers = Vec::new();
        for (rail, ((outbox, tx), rx)) in receivers.into_iter().zip(txs).zip(rxs).enumerate() {
            let txw = ParTxWorker {
                hub: hub.clone(),
                rail,
                outbox,
                tx,
                platform: config.platform.clone(),
                time_scale: config.time_scale,
                faults: config.faults.clone(),
                chaos: config.chaos.clone(),
                held: None,
                // Per-rail rng: deterministic, decorrelated across rails.
                rng: Xoshiro256StarStar::new(
                    side_seed ^ (rail as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                start,
                shard: FlightRecorder::with_capacity(record_capacity),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nmad-mem-{name}-tx{rail}"))
                    .spawn(move || txw.run())
                    .expect("spawn tx worker"),
            );
            let rxw = ParRxWorker {
                hub: hub.clone(),
                rail,
                rx,
                start,
                shard: FlightRecorder::with_capacity(record_capacity),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nmad-mem-{name}-rx{rail}"))
                    .spawn(move || rxw.run())
                    .expect("spawn rx worker"),
            );
        }
        // Scheduler last: joined after the I/O workers so it drains
        // their final completions before quiescing.
        let sched_hub = hub.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("nmad-mem-{name}-sched"))
                .spawn(move || sched_hub.run_scheduler(senders, start))
                .expect("spawn scheduler"),
        );
        Endpoint::parallel(hub, workers, conns, None)
    };

    let a = build_side(a_to_b_tx, b_to_a_rx, seed ^ 0xA, "a");
    let b = build_side(b_to_a_tx, a_to_b_rx, seed ^ 0xB, "b");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nmad_core::{RailState, StrategyKind};
    use nmad_model::platform;

    const T: Duration = Duration::from_secs(10);

    fn fabric(kind: StrategyKind) -> (Endpoint, Endpoint) {
        pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ))
    }

    fn random_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn small_message_roundtrip() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let payload = random_payload(256, 1);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T), "send must complete");
        let msg = r.wait(T).expect("recv must complete");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn large_message_split_across_rails() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let payload = random_payload(2 << 20, 2);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T));
        let msg = r.wait(T).expect("recv");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        let st = a.stats();
        assert!(st.rdv_handshakes >= 1, "large message must rendezvous");
        assert!(
            st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
            "both rails must carry bytes: {:?}",
            st.rails
        );
    }

    #[test]
    fn multi_segment_aggregation_on_threads() {
        let (a, b) = fabric(StrategyKind::AggregateEager);
        let c = a.conns()[0];
        let segs: Vec<Bytes> = (0..4)
            .map(|i| Bytes::from(random_payload(128, i)))
            .collect();
        let r = b.recv(c);
        let s = a.send(c, segs.clone());
        assert!(s.wait(T));
        let msg = r.wait(T).expect("recv");
        assert_eq!(msg.segments, segs);
        // Aggregation may or may not batch all 4 depending on thread
        // timing (that is the *opportunistic* part), but payload must be
        // intact either way and at least one packet must have flowed.
        assert!(a.stats().total_packets() >= 1);
    }

    #[test]
    fn pipelined_messages_in_order() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let n = 50;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.send(c, vec![Bytes::from(random_payload(64 + i * 13, i as u64))]))
            .collect();
        for s in &sends {
            assert!(s.wait(T));
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("recv");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(64 + i * 13, i as u64).as_slice(),
                "message {i} out of order or corrupted"
            );
        }
    }

    #[test]
    fn two_connections_are_independent() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.conns = 2;
        let (a, b) = pair(cfg);
        let (c0, c1) = (a.conns()[0], a.conns()[1]);
        let r1 = b.recv(c1);
        let r0 = b.recv(c0);
        a.send(c1, vec![Bytes::from_static(b"one")]);
        a.send(c0, vec![Bytes::from_static(b"zero")]);
        assert_eq!(&r0.wait(T).unwrap().segments[0][..], b"zero");
        assert_eq!(&r1.wait(T).unwrap().segments[0][..], b"one");
    }

    #[test]
    fn corruption_detected_not_delivered_silently() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 1.0, // every packet corrupted
            drop_prob: 0.0,
            seed: 7,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from(random_payload(512, 3))]);
        // The message must NOT arrive intact...
        assert!(
            r.wait(Duration::from_millis(500)).is_none(),
            "corrupted packet must not complete a receive"
        );
        // ...and the receiver must have counted the rejection.
        assert!(b.rx_errors() > 0, "CRC failure must be counted");
    }

    #[test]
    fn drops_are_counted() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 1.0,
            seed: 9,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from_static(b"lost")]);
        assert!(r.wait(Duration::from_millis(300)).is_none());
        assert!(a.tx_dropped() > 0);
    }

    #[test]
    fn shaped_fabric_still_delivers() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.time_scale = 10.0; // 10x slower than modelled time
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(100_000, 11);
        let r = b.recv(c);
        let start = Instant::now();
        a.send(c, vec![Bytes::from(payload.clone())]);
        let msg = r.wait(T).expect("recv under shaping");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        // 100 KB over ~2 GB/s scaled 10x -> at least ~0.4 ms of shaping.
        assert!(
            start.elapsed() > Duration::from_micros(300),
            "shaping must slow the transfer"
        );
    }

    #[test]
    fn acked_delivery_on_threads() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(50_000, 21))]);
        assert!(s.wait_acked(T), "delivery must be confirmed");
        assert!(r.wait(T).is_some());
        assert!(a.stats().acks_received >= 1);
    }

    /// Health timers scaled for tests: quick timeouts, quick probes.
    fn fast_health(engine: &mut EngineConfig) {
        engine.health.initial_rto_ns = 10_000_000; // 10 ms
        engine.health.min_rto_ns = 2_000_000;
        engine.health.max_rto_ns = 200_000_000;
        engine.health.probe_interval_ns = 20_000_000;
        engine.health.probe_timeout_ns = 10_000_000;
    }

    #[test]
    fn retransmission_recovers_on_a_lossy_fabric() {
        // 40% of packets silently dropped; the engine's own adaptive
        // retransmission timers must deliver every message exactly once —
        // no caller-driven retry loop.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 0.4,
            seed: 17,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let n = 10;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.send(c, vec![Bytes::from(random_payload(500 + i * 37, i as u64))]))
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(
                s.wait_acked(Duration::from_secs(30)),
                "message {i} never recovered"
            );
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("delivered");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(500 + i * 37, i as u64).as_slice(),
                "message {i} corrupted"
            );
        }
        assert!(a.stats().retransmits > 0, "losses must have forced retries");
        assert_eq!(b.stats().msgs_received, n as u64, "exactly-once delivery");
    }

    #[test]
    fn duplicates_and_reordering_tolerated() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::Greedy),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            drop_prob: 0.1,
            dup_prob: 0.3,
            reorder_prob: 0.3,
            seed: 29,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let n = 12;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| {
                a.send(
                    c,
                    vec![Bytes::from(random_payload(300 + i * 53, 100 + i as u64))],
                )
            })
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(s.wait_acked(Duration::from_secs(30)), "message {i} lost");
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("delivered");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(300 + i * 53, 100 + i as u64).as_slice(),
                "message {i} corrupted"
            );
        }
        assert_eq!(b.stats().msgs_received, n as u64, "exactly-once delivery");
    }

    #[test]
    fn rail_failover_and_recovery_mid_transfer() {
        // The acceptance scenario: one of two rails dies while an 8 MB
        // acked transfer is in flight. The engine must (1) time out, blame
        // and take the dead rail out of service, (2) finish the transfer
        // over the survivor via automatic retransmission — the caller only
        // waits — and (3) reinstate the rail via probes once the outage
        // ends, walking the full Up -> Suspect -> Down -> Probing -> Up
        // cycle.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            seed: 41,
            outages: vec![RailOutage {
                rail: 0,
                down_at: Duration::from_millis(5),
                up_at: Some(Duration::from_millis(700)),
            }],
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(8 << 20, 55);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        // No caller-driven retry: a plain wait must suffice.
        assert!(
            s.wait_acked(Duration::from_secs(60)),
            "transfer must survive the rail outage"
        );
        let msg = r.wait(T).expect("delivered");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        let st = a.stats();
        assert!(st.retransmits > 0, "outage must have forced retransmission");
        assert!(
            st.rails[0].timeouts > 0,
            "dead rail must have been blamed: {:?}",
            st.rails
        );
        // Wait out the outage window plus probe turnaround, then check
        // the rail came back.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let hist = a.rail_history(0);
            let recovered = is_subsequence(
                &[
                    RailState::Up,
                    RailState::Suspect,
                    RailState::Down,
                    RailState::Probing,
                    RailState::Up,
                ],
                &hist,
            );
            if recovered {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never walked the full recovery cycle: {hist:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(a.rail_states()[0], RailState::Up);
        assert!(
            a.stats().rails[0].probes_sent > 0,
            "recovery must come from probing"
        );
        assert!(a.stats().rails[0].state_transitions >= 4);
        // The reinstated rail carries traffic again.
        let r2 = b.recv(c);
        let s2 = a.send(c, vec![Bytes::from(random_payload(2 << 20, 56))]);
        assert!(s2.wait_acked(Duration::from_secs(30)));
        assert!(r2.wait(T).is_some());
    }

    /// True when `needle` appears in `haystack` in order (not necessarily
    /// contiguously).
    fn is_subsequence(needle: &[RailState], haystack: &[RailState]) -> bool {
        let mut it = haystack.iter();
        needle.iter().all(|n| it.any(|h| h == n))
    }

    /// The chaos dials act while the fabric runs: a full drop boost
    /// blackholes the wire, healing it lets the engine's own
    /// retransmission recover — no restart, no rebuild.
    #[test]
    fn chaos_dials_apply_live() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        let chaos = ChaosState::new(2);
        cfg.chaos = Some(chaos.clone());
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        // Clean roundtrip at identity.
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(512, 7))]);
        assert!(s.wait_acked(T));
        assert!(r.wait(T).is_some());
        // Blackhole both rails mid-run.
        chaos.set_drop_boost(0, 1.0);
        chaos.set_drop_boost(1, 1.0);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(512, 8))]);
        assert!(
            !s.wait_acked(Duration::from_millis(300)),
            "a fully dropped wire cannot confirm delivery"
        );
        // Heal: the pending send recovers through retransmission alone.
        chaos.heal_all();
        assert!(s.wait_acked(Duration::from_secs(30)), "heal must unstick");
        assert!(r.wait(T).is_some());
        assert!(a.stats().retransmits > 0);
        assert!(a.tx_dropped() > 0, "the boost must have eaten frames");
    }

    /// Reference-size split share of `rail` from the engine's live
    /// tables, in permille.
    fn split_share_permille(ep: &Endpoint, rail: usize) -> u16 {
        let eng = ep.engine().lock();
        let refs: Vec<&nmad_core::PerfTable> = eng.tables().iter().collect();
        nmad_core::split_ratio_permille(&refs, 1 << 20)[rail]
    }

    /// Satellite scenario: a rail held Down for many RTOs under
    /// continuous load. No request may get stuck, the rail must come
    /// back via probing once the outage ends, and the online calibrator
    /// must first strip the dead rail's split share (failover penalty)
    /// and then let it re-earn that share from fresh samples.
    #[test]
    fn long_outage_under_load_re_earns_split_share() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.engine.calibration.enabled = true;
        cfg.engine.calibration.rebuild_every = 4;
        cfg.engine.calibration.min_samples = 4;
        // ~150 initial-RTO periods, dozens of probe intervals.
        let outage_end = Duration::from_millis(1500);
        cfg.faults = Some(FaultSpec {
            seed: 61,
            outages: vec![RailOutage {
                rail: 0,
                down_at: Duration::from_millis(5),
                up_at: Some(outage_end),
            }],
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let share_nominal = split_share_permille(&a, 0);
        assert!(share_nominal > 0, "rail 0 must start with a split share");

        // Continuous load spanning the whole outage and a bit beyond.
        // Every message is awaited: a request stuck forever fails here,
        // not in some later diagnostic.
        let start = Instant::now();
        let mut share_min = share_nominal;
        let mut i = 0u64;
        while start.elapsed() < outage_end + Duration::from_millis(500) {
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(random_payload(256 << 10, 200 + i))]);
            assert!(
                s.wait_acked(Duration::from_secs(30)),
                "message {i} stuck during the outage"
            );
            assert!(r.wait(T).is_some(), "message {i} not delivered");
            share_min = share_min.min(split_share_permille(&a, 0));
            i += 1;
        }
        let st = a.stats();
        assert!(st.retransmits > 0, "outage must have forced retransmission");
        assert!(st.rails[0].timeouts > 0, "dead rail must have been blamed");
        assert!(
            share_min < share_nominal,
            "failover penalty must strip split share: nominal {share_nominal}, min {share_min}"
        );

        // The rail is reinstated via probing.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let hist = a.rail_history(0);
            if is_subsequence(
                &[
                    RailState::Up,
                    RailState::Suspect,
                    RailState::Down,
                    RailState::Probing,
                    RailState::Up,
                ],
                &hist,
            ) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never walked the recovery cycle: {hist:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(a.stats().rails[0].probes_sent > 0);

        // Fresh load on the healed fabric: observed transfer times pull
        // the penalized EWMA back and rail 0 re-earns its share (>= 80%
        // of nominal).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(random_payload(256 << 10, 900 + i))]);
            assert!(s.wait_acked(Duration::from_secs(10)), "post-recovery stuck");
            assert!(r.wait(T).is_some());
            i += 1;
            let share = split_share_permille(&a, 0);
            if u32::from(share) * 10 >= u32::from(share_nominal) * 8 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never re-earned its split share: nominal {share_nominal}, now {share}"
            );
        }
    }

    #[test]
    fn ack_never_arrives_when_message_dropped() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.engine.acked = true;
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 1.0,
            seed: 3,
            ..FaultSpec::default()
        });
        let (a, _b) = pair(cfg);
        let c = a.conns()[0];
        let s = a.send(c, vec![Bytes::from_static(b"doomed")]);
        // Local completion may happen (bytes injected)...
        s.wait(Duration::from_millis(200));
        // ...but delivery is never confirmed.
        assert!(!s.wait_acked(Duration::from_millis(300)));
    }

    #[test]
    fn unexpected_message_buffered_until_recv() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let s = a.send(c, vec![Bytes::from_static(b"early")]);
        assert!(s.wait(T));
        std::thread::sleep(Duration::from_millis(20));
        let msg = b.recv(c).wait(T).expect("buffered unexpected message");
        assert_eq!(&msg.segments[0][..], b"early");
    }

    // ------------------------------------------------------------------
    // Parallel pipeline on the in-process fabric
    // ------------------------------------------------------------------

    fn fabric_parallel(kind: StrategyKind) -> (Endpoint, Endpoint) {
        let mut engine = EngineConfig::with_strategy(kind);
        engine.parallel = true;
        pair(FabricConfig::new(platform::paper_platform(), engine))
    }

    #[test]
    fn parallel_small_message_roundtrip() {
        let (a, b) = fabric_parallel(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let payload = random_payload(256, 61);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T), "send must complete");
        let msg = r.wait(T).expect("recv must complete");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        assert_eq!(b.rx_errors(), 0);
    }

    #[test]
    fn parallel_large_message_split_across_rails() {
        let (a, b) = fabric_parallel(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let payload = random_payload(2 << 20, 62);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T));
        let msg = r.wait(T).expect("recv");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        let st = a.stats();
        assert!(
            st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
            "both rails must carry bytes: {:?}",
            st.rails
        );
        assert!(st.obs.lock_hold_ns.count() > 0, "scheduler passes measured");
    }

    #[test]
    fn parallel_pipelined_messages_in_order() {
        let (a, b) = fabric_parallel(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let n = 50;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| {
                a.send(
                    c,
                    vec![Bytes::from(random_payload(64 + i * 13, 200 + i as u64))],
                )
            })
            .collect();
        for s in &sends {
            assert!(s.wait(T));
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("recv");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(64 + i * 13, 200 + i as u64).as_slice(),
                "message {i} out of order or corrupted"
            );
        }
    }

    #[test]
    fn parallel_acked_delivery() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        cfg.engine.parallel = true;
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(50_000, 63))]);
        assert!(s.wait_acked(T), "delivery must be confirmed");
        assert!(r.wait(T).is_some());
        assert!(a.stats().acks_received >= 1);
    }

    #[test]
    fn parallel_shaped_fabric_overlaps_rails() {
        // The point of the pipeline: with shaping, the per-rail TX
        // workers sleep out their wire time concurrently, so a striped
        // transfer must not take the sum of both rails' serial times.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.time_scale = 10.0;
        cfg.engine.parallel = true;
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(100_000, 64);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T));
        let msg = r.wait(T).expect("recv under shaping");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn parallel_corruption_detected() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.engine.parallel = true;
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 1.0,
            drop_prob: 0.0,
            seed: 71,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from(random_payload(512, 72))]);
        assert!(
            r.wait(Duration::from_millis(500)).is_none(),
            "corrupted packet must not complete a receive"
        );
        assert!(b.rx_errors() > 0, "CRC failure must be counted");
    }
}
