//! # nmad-transport-tcp — the engine over real TCP sockets
//!
//! Paper §2 lists the library's drivers: Elan, MX, GM-2, SiSCI "and the
//! legacy socket API on top of TCP/IP". The exotic NICs are simulated in
//! this reproduction — but the socket driver can be implemented for real.
//! This crate runs the unmodified NewMadeleine engine over one TCP
//! connection per rail:
//!
//! * packets are framed with a `u32` little-endian length prefix and carry
//!   the exact same wire format as every other harness;
//! * endpoints can live in the same process ([`pair_localhost`]) or in
//!   different processes ([`listen`] / [`connect`]).
//!
//! Multiple TCP connections between the same two hosts are the classic
//! poor man's multi-rail: the strategies still apply (striping a large
//! message over N sockets, aggregating small ones onto the first).
//!
//! The crate holds only the transport config, the link workers and the
//! builders. Every runtime returns the same [`Endpoint`] — it is
//! [`nmad_core::Endpoint`], shared with the in-process fabric — so
//! sends, waits, backpressure and telemetry read the same on all of
//! them. Three progress runtimes drive the engine:
//!
//! * **Serial** (default, `EngineConfig::parallel = false`): one progress
//!   thread per endpoint plays the NIC-activity loop with non-blocking
//!   sockets — it drains arrivals, flushes pending injections and offers
//!   idle rails to the engine. Submissions kick the thread's work signal
//!   so a send posted during an idle poll is picked up immediately
//!   instead of waiting out the poll interval.
//! * **Parallel** (`EngineConfig::parallel = true`): a sharded pipeline
//!   per endpoint — one scheduler thread owning the (short-held) engine
//!   lock, plus one TX and one RX thread per rail. The slow socket write
//!   happens in the rail's TX worker *outside* any shared lock; arrivals
//!   and TX completions flow back to the scheduler through per-rail
//!   completion queues and are drained in batches. Each TX worker sleeps
//!   on its own outbox condvar, not a global one. See
//!   [`nmad_core::ParallelHub`] and DESIGN.md §10.
//! * **Reactor** (`EngineConfig::reactor = true`): the same hub, with
//!   every rail socket multiplexed onto a fixed pool of epoll workers
//!   instead of two threads per rail. See [`reactor`] and DESIGN.md §14.
//!
//! The datapath is scatter-gather end to end in every mode: transmissions
//! go out with `write_vectored` straight from the engine's
//! [`PacketFrame`] parts (no flattening), and every runtime receives
//! through the same receive ring (`RxRing`): each read lands in a block,
//! large frames leave as refcounted slices of it, and only small frames
//! and a trailing partial frame are copied.
//!
//! ## Syscall amortization (DESIGN.md §12)
//!
//! The parallel runtime batches kernel crossings on both directions:
//! each TX worker wakeup drains up to `TX_BATCH` published decisions
//! from its outbox and coalesces the whole batch — length prefixes and
//! frame parts interleaved — into a single `write_vectored` gather list
//! (partial writes resume across the *batch*, not per frame), and the
//! receive ring grows its read chunk adaptively up to `READ_CHUNK_MAX`
//! so one `read` carves many frames. The resulting syscalls-per-packet
//! ratio is counted in [`nmad_core::SyscallStats`] and gated by the
//! `ablate_cycles` bench. Batching on our side is also why TCP_NODELAY
//! is unconditionally set on every rail socket (see `RailIo::new`):
//! the transport coalesces on its own terms, so Nagle's algorithm could
//! only add delayed-ACK latency to control frames, never save packets.

#![warn(missing_docs)]
// Copy-regression gate: see DESIGN.md "Datapath and copy discipline".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nmad_core::driver::TxToken;
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

pub mod reactor;
mod rx_ring;

use rx_ring::{Heap, RxCounts, RxRing};

/// Frame length prefix size.
const LEN_PREFIX: usize = 4;
/// Largest accepted frame (sanity bound against corrupt prefixes).
const MAX_FRAME: usize = 64 << 20;
/// Serial worker: upper bound on one idle poll before it re-checks rail
/// readability. A submission ends the poll early through the work kick.
const SERIAL_IDLE_POLL: Duration = Duration::from_micros(50);
/// Parallel workers: socket read/write timeout, which doubles as the
/// shutdown-responsiveness bound for blocking I/O.
const IO_TIMEOUT: Duration = Duration::from_millis(25);
/// Parallel TX worker: upper bound on one outbox wait.
const TX_IDLE_WAIT: Duration = Duration::from_millis(2);
/// Bytes read from the socket per `read` call (initial; the receive ring
/// grows its reads up to [`READ_CHUNK_MAX`] while the socket keeps
/// filling them, so one syscall feeds many frame decodes).
const READ_CHUNK: usize = 64 * 1024;
/// Upper bound on an adaptive RX refill.
const READ_CHUNK_MAX: usize = 256 * 1024;
/// Frames a parallel TX worker drains from its outbox per wakeup and
/// coalesces into a single `write_vectored` (sendmmsg-style syscall
/// amortization). Matches the outbox capacity: one wakeup can flush
/// everything the scheduler managed to queue. Only pipelined engines
/// ([`EngineConfig::rail_pipeline`] > 1) ever queue more than one.
const TX_BATCH: usize = 8;
/// Cap on gather-list length per vectored write: stays under every
/// platform's IOV_MAX (the partial-write resume loop covers the rest).
const MAX_IOVECS: usize = 256;

/// Transport configuration.
#[derive(Clone)]
pub struct TcpConfig {
    /// Rail layout (one TCP connection per rail; the model's thresholds
    /// drive the strategies exactly as on the simulated platform).
    pub platform: Platform,
    /// Engine configuration. CRC is forced on. Set
    /// [`EngineConfig::parallel`] to run the sharded per-rail pipeline
    /// instead of the single progress thread.
    pub engine: EngineConfig,
    /// Logical channels opened at construction on both endpoints.
    pub conns: usize,
    /// Optional live chaos dials. The TX path reads them per frame.
    /// On every runtime `drop_boost` discards outgoing frames before the
    /// socket write (the frame is length-prefixed, so the stream stays
    /// aligned) and counts each in [`Endpoint::tx_dropped`].
    /// `bandwidth_mult < 1` paces writes by the extra modelled wire time
    /// on the thread-per-rail runtime only; the serial and reactor
    /// runtimes ignore it. The caller keeps a clone of the handle and
    /// turns the dials while the endpoint runs.
    pub chaos: Option<ChaosState>,
}

impl TcpConfig {
    /// Default configuration.
    pub fn new(platform: Platform, engine: EngineConfig) -> Self {
        TcpConfig {
            platform,
            engine,
            conns: 1,
            chaos: None,
        }
    }
}

/// Build gather slices for `prefix + frame` starting at byte `off`.
fn gather_slices<'a>(
    prefix: &'a [u8; LEN_PREFIX],
    frame: &'a PacketFrame,
    mut skip: usize,
    slices: &mut Vec<IoSlice<'a>>,
) {
    slices.clear();
    if skip < LEN_PREFIX {
        slices.push(IoSlice::new(&prefix[skip..]));
        skip = 0;
    } else {
        skip -= LEN_PREFIX;
    }
    for part in frame.parts() {
        if skip >= part.len() {
            skip -= part.len();
            continue;
        }
        slices.push(IoSlice::new(&part[skip..]));
        skip = 0;
    }
}

/// Batched counterpart of [`gather_slices`]: one gather list covering
/// the concatenation `prefix₀+frame₀, prefix₁+frame₁, …` starting at
/// byte `skip` of the whole batch, capped at `max_slices` entries (the
/// partial-write resume loop rebuilds from the new offset, so a capped
/// list just means another `write_vectored` — never corruption).
fn gather_batch_slices<'a>(
    prefixes: &'a [[u8; LEN_PREFIX]],
    frames: &'a [PacketFrame],
    mut skip: usize,
    slices: &mut Vec<IoSlice<'a>>,
    max_slices: usize,
) {
    slices.clear();
    for (prefix, frame) in prefixes.iter().zip(frames) {
        let frame_total = LEN_PREFIX + frame.wire_len();
        if skip >= frame_total {
            skip -= frame_total;
            continue;
        }
        if skip < LEN_PREFIX {
            slices.push(IoSlice::new(&prefix[skip..]));
            skip = 0;
            if slices.len() >= max_slices {
                return;
            }
        } else {
            skip -= LEN_PREFIX;
        }
        for part in frame.parts() {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            slices.push(IoSlice::new(&part[skip..]));
            skip = 0;
            if slices.len() >= max_slices {
                return;
            }
        }
    }
}

/// Per-rail socket state: partial reads and pending vectored writes
/// (serial runtime).
struct RailIo {
    stream: TcpStream,
    /// Receive ring: large frames are sliced out of its blocks as
    /// refcounted [`PacketFrame`]s, so their payload is never copied
    /// again after leaving the socket.
    rx: RxRing,
    /// Frames carved by the current read (reused scratch).
    rx_frames: Vec<PacketFrame>,
    /// Receive-ring tallies (mirrored into
    /// [`nmad_core::DataPathStats`] by the progress thread).
    rx_counts: RxCounts,
    /// Frame pending injection, written gather-style part by part.
    tx_frame: Option<PacketFrame>,
    /// Little-endian length prefix for `tx_frame`.
    tx_prefix: [u8; LEN_PREFIX],
    /// Bytes of `prefix + frame` already accepted by the socket.
    tx_off: usize,
    /// Tx token to report once the pending frame fully drains.
    pending_token: Option<TxToken>,
    /// Syscall amortization tallies (mirrored into
    /// [`nmad_core::SyscallStats`] by the progress thread).
    syscalls: nmad_core::SyscallStats,
}

impl RailIo {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // TCP_NODELAY on every rail socket, both runtimes, both ends
        // (listen/accept and connect both land here or in
        // `build_parallel`): the engine's control frames — rendezvous
        // grants, delivery acks, health probes — are a few dozen bytes,
        // and Nagle would hold them behind in-flight data until the
        // peer's delayed ACK fired. That inflates measured SRTT by up to
        // 40 ms, trips retransmission timers, and serializes the
        // rendezvous handshake. The engine already coalesces small
        // frames on its own terms (aggregation + batched vectored
        // writes), so Nagle only adds latency without saving packets.
        stream.set_nodelay(true)?;
        Ok(RailIo {
            stream,
            rx: RxRing::default(),
            rx_frames: Vec::new(),
            rx_counts: RxCounts::default(),
            tx_frame: None,
            tx_prefix: [0; LEN_PREFIX],
            tx_off: 0,
            pending_token: None,
            syscalls: nmad_core::SyscallStats::default(),
        })
    }

    /// Read until the socket would block, handing each frame to
    /// `deliver` as soon as its read completes it (so its block can be
    /// recycled while the socket still has data). Returns whether any
    /// frame arrived.
    fn drain_rx(&mut self, mut deliver: impl FnMut(PacketFrame)) -> std::io::Result<bool> {
        let mut arrived = false;
        let res = loop {
            let res = self
                .rx
                .read_from(&mut self.stream, &mut Heap, &mut self.rx_frames);
            self.syscalls.rx_frames += self.rx_frames.len() as u64;
            for frame in self.rx_frames.drain(..) {
                arrived = true;
                deliver(frame);
            }
            match res {
                Ok(0) => break Ok(arrived), // peer closed
                Ok(_) => self.syscalls.rx_calls += 1,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(arrived),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        let c = self.rx.take_counts();
        self.rx_counts.carry_bytes += c.carry_bytes;
        self.rx_counts.block_takes += c.block_takes;
        res
    }

    /// Queue a frame for transmission. The parts are shared with the
    /// engine's in-flight state (refcounted), not copied into a staging
    /// buffer.
    fn enqueue(&mut self, frame: PacketFrame, token: TxToken) {
        debug_assert!(self.pending_token.is_none(), "one injection at a time");
        self.tx_prefix = (frame.wire_len() as u32).to_le_bytes();
        self.tx_off = 0;
        self.tx_frame = Some(frame);
        self.pending_token = Some(token);
    }

    /// Push the pending frame with gather writes; return the token once
    /// everything drained. `tx_off` tracks partial progress across the
    /// prefix and the frame parts between calls.
    fn flush(&mut self) -> std::io::Result<Option<TxToken>> {
        loop {
            let Some(frame) = &self.tx_frame else {
                return Ok(self.pending_token.take());
            };
            let total = LEN_PREFIX + frame.wire_len();
            let mut slices: Vec<IoSlice<'_>> = Vec::new();
            gather_slices(&self.tx_prefix, frame, self.tx_off, &mut slices);
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket refused bytes",
                    ))
                }
                Ok(n) => {
                    self.syscalls.tx_calls += 1;
                    self.tx_off += n;
                    if self.tx_off >= total {
                        self.syscalls.tx_frames += 1;
                        self.tx_frame = None;
                        self.tx_off = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn idle(&self) -> bool {
        self.pending_token.is_none()
    }
}

/// The serial progress thread: the whole NIC-activity loop under one
/// engine lock.
struct Worker {
    shared: Arc<SerialState>,
    rails: Vec<RailIo>,
    /// Epoch for the engine's monotonic clock (timeouts, probes).
    start: Instant,
    chaos: Option<ChaosState>,
    /// Seeded draw for the chaos drop boost (unused at identity).
    rng: Xoshiro256StarStar,
}

impl Worker {
    fn run(mut self) {
        loop {
            let progressed = match self.step() {
                Ok(p) => p,
                Err(_) => {
                    self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }
            };
            if progressed {
                self.shared.notify_app();
            }
            if self.shared.is_shutdown() {
                break;
            }
            if !progressed {
                // Idle poll, ended early by a submission's kick — a send
                // posted now is picked up immediately, not after the
                // poll interval.
                self.shared.wait_for_work(SERIAL_IDLE_POLL);
            }
        }
    }

    fn step(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        let mut eng = self.shared.engine().lock();

        // 0. Run the engine's timer wheel: adaptive retransmission of
        // overdue acked sends, health probes, failover re-planning.
        let now_ns = Instant::now()
            .saturating_duration_since(self.start)
            .as_nanos() as u64;
        let outcome = eng.progress(now_ns);
        if !outcome.retransmitted.is_empty() || outcome.control_enqueued {
            progressed = true;
        }

        for rail in 0..self.rails.len() {
            // 1. Arrivals.
            let rx_errors = &self.shared.rx_errors;
            if self.rails[rail].drain_rx(|frame| {
                if eng.on_frame(RailId(rail), &frame).is_err() {
                    rx_errors.fetch_add(1, Ordering::Relaxed);
                }
            })? {
                progressed = true;
            }
            // 2. Finish pending injections.
            if let Some(token) = self.rails[rail].flush()? {
                progressed = true;
                eng.on_tx_done(RailId(rail), token)
                    .expect("token issued by this worker");
            }
            // 3. Offer idle rails to the engine.
            if self.rails[rail].idle() {
                if let Some(d) = eng
                    .next_tx(RailId(rail))
                    .expect("engine invariant violated")
                {
                    progressed = true;
                    if chaos_drops(&self.chaos, rail, &mut self.rng) {
                        // Chaos drop: the transmit "succeeds" locally but
                        // the frame never reaches the wire — exactly a
                        // lossy link, recoverable in acked mode only.
                        self.shared.tx_dropped.fetch_add(1, Ordering::Relaxed);
                        eng.on_tx_done(RailId(rail), d.token)
                            .expect("token issued by this worker");
                    } else {
                        self.rails[rail].enqueue(d.frame, d.token);
                        // Try to push it out immediately.
                        if let Some(token) = self.rails[rail].flush()? {
                            eng.on_tx_done(RailId(rail), token)
                                .expect("token issued by this worker");
                        }
                    }
                }
            }
        }

        // Mirror the per-rail syscall tallies into the engine's stats so
        // `nmad cycles` and the bench gates see the serial runtime too.
        let mut sys = nmad_core::SyscallStats::default();
        let mut ring = RxCounts::default();
        for rail in &self.rails {
            sys.tx_calls += rail.syscalls.tx_calls;
            sys.tx_frames += rail.syscalls.tx_frames;
            sys.rx_calls += rail.syscalls.rx_calls;
            sys.rx_frames += rail.syscalls.rx_frames;
            ring.carry_bytes += rail.rx_counts.carry_bytes;
            ring.block_takes += rail.rx_counts.block_takes;
        }
        eng.note_syscalls(sys);
        eng.note_rx_ring(ring.carry_bytes, ring.block_takes);
        Ok(progressed)
    }
}

/// Parallel runtime: one rail's TX worker. Pops published decisions off
/// its own outbox (its own condvar — no global wakeup) and performs the
/// slow socket write with no shared lock held, then reports completion
/// to the scheduler's queue.
struct TxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    stream: TcpStream,
    outbox: OutboxReceiver,
    epoch: Instant,
    /// Per-thread recorder shard; deposited into the hub at exit and
    /// merged with the engine ring at export.
    shard: FlightRecorder,
    chaos: Option<ChaosState>,
    rng: Xoshiro256StarStar,
    /// Nominal rail bandwidth (bytes/s) — the baseline the chaos
    /// pacing stretches against.
    link_bandwidth: f64,
}

impl TxWorker {
    fn run(mut self) {
        let mut batch: Vec<nmad_core::TxDecision> = Vec::with_capacity(TX_BATCH);
        loop {
            match self.outbox.pop_wait(TX_IDLE_WAIT) {
                Some(d) => {
                    // One wakeup drains whatever the scheduler queued
                    // (bounded): the whole batch goes out in one
                    // coalesced vectored write below.
                    batch.push(d);
                    while batch.len() < TX_BATCH {
                        match self.outbox.pop() {
                            Some(d) => batch.push(d),
                            None => break,
                        }
                    }
                    self.inject_batch(&mut batch);
                }
                None => {
                    if self.hub.is_shutdown() {
                        break;
                    }
                }
            }
        }
        // Clean shutdown drains the outbox: decisions already published
        // still go out so the peer's reassembly isn't left dangling.
        while let Some(d) = self.outbox.pop() {
            batch.push(d);
            if batch.len() >= TX_BATCH {
                self.inject_batch(&mut batch);
            }
        }
        if !batch.is_empty() {
            self.inject_batch(&mut batch);
        }
        self.hub.deposit_shard(self.shard.events());
    }

    /// Transmit a drained batch as one coalesced vectored write and
    /// report per-frame completions. Chaos-dropped frames are filtered
    /// out first (they complete locally without wire bytes); the stream
    /// stays aligned because every surviving frame is length-prefixed.
    fn inject_batch(&mut self, batch: &mut Vec<nmad_core::TxDecision>) {
        let mut wire: Vec<PacketFrame> = Vec::with_capacity(batch.len());
        let mut tokens: Vec<TxToken> = Vec::with_capacity(batch.len());
        let mut pace_bytes = 0usize;
        for d in batch.drain(..) {
            if chaos_drops(&self.chaos, self.rail, &mut self.rng) {
                // Dropped before the write: local completion, no wire
                // bytes, no pacing.
                self.hub.tx_dropped.fetch_add(1, Ordering::Relaxed);
                self.hub.push_completion(
                    self.rail,
                    Completion::TxDone {
                        rail: self.rail,
                        token: d.token,
                    },
                );
                continue;
            }
            pace_bytes += d.frame.wire_len();
            tokens.push(d.token);
            wire.push(d.frame);
        }
        if wire.is_empty() {
            return;
        }
        self.chaos_pace(pace_bytes);
        match self.write_batch(&wire) {
            Ok((dur_ns, calls)) => {
                self.hub.syscalls.add_tx(calls, wire.len() as u64);
                let now = self.epoch.elapsed().as_nanos() as u64;
                for (frame, token) in wire.iter().zip(&tokens) {
                    self.shard.record(
                        Event::new(now, EventKind::WorkerWrite)
                            .rail(self.rail)
                            .seq(token.0)
                            .size((LEN_PREFIX + frame.wire_len()) as u64)
                            // Wall time of the whole coalesced write —
                            // shared by every frame it carried.
                            .aux(dur_ns),
                    );
                    self.hub.push_completion(
                        self.rail,
                        Completion::TxDone {
                            rail: self.rail,
                            token: *token,
                        },
                    );
                }
            }
            Err(_) => {
                self.hub.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocking gather write of a frame batch, resuming partial writes
    /// across frame boundaries. Returns the wall time spent and the
    /// number of `write_vectored` calls that moved bytes.
    fn write_batch(&mut self, frames: &[PacketFrame]) -> std::io::Result<(u64, u64)> {
        let prefixes: Vec<[u8; LEN_PREFIX]> = frames
            .iter()
            .map(|f| (f.wire_len() as u32).to_le_bytes())
            .collect();
        let total: usize = frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();
        let mut off = 0usize;
        let mut calls = 0u64;
        let mut slices: Vec<IoSlice<'_>> = Vec::new();
        let t0 = Instant::now();
        while off < total {
            gather_batch_slices(&prefixes, frames, off, &mut slices, MAX_IOVECS);
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket refused bytes",
                    ))
                }
                Ok(n) => {
                    calls += 1;
                    off += n;
                }
                // SO_SNDTIMEO expiry: keep pushing — a partially written
                // frame must complete or the peer's stream corrupts —
                // but give up once shutdown is requested.
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.hub.is_shutdown() {
                        return Err(e);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok((t0.elapsed().as_nanos() as u64, calls))
    }

    /// Sleep out the *extra* wire time a degraded rail would need for
    /// `bytes`: at multiplier m < 1 the frame takes 1/m the nominal
    /// time, and the socket write itself covers the nominal share.
    fn chaos_pace(&self, bytes: usize) {
        let Some(c) = &self.chaos else { return };
        let mult = c.bandwidth_mult(self.rail);
        if mult >= 1.0 || self.link_bandwidth <= 0.0 {
            return;
        }
        let nominal = bytes as f64 / self.link_bandwidth;
        let extra = nominal / mult - nominal;
        std::thread::sleep(Duration::from_secs_f64(extra));
    }
}

/// One seeded draw against the chaos drop boost (false at identity —
/// no rng state is consumed when no handle is installed or the boost
/// is zero).
fn chaos_drops(chaos: &Option<ChaosState>, rail: usize, rng: &mut Xoshiro256StarStar) -> bool {
    match chaos {
        Some(c) => {
            let boost = c.drop_boost(rail);
            boost > 0.0 && rng.chance(boost)
        }
        None => false,
    }
}

/// Parallel runtime: one rail's RX worker. Blocking reads with a timeout
/// (so shutdown stays responsive) through the receive ring, queueing the
/// carved frames for the scheduler's next batched drain.
struct RxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    stream: TcpStream,
    epoch: Instant,
    shard: FlightRecorder,
}

impl RxWorker {
    fn run(mut self) {
        let mut ring = RxRing::default();
        let mut frames = Vec::new();
        loop {
            if self.hub.is_shutdown() {
                break;
            }
            let res = ring.read_from(&mut self.stream, &mut Heap, &mut frames);
            let c = ring.take_counts();
            self.hub.syscalls.add_rx_ring(c.carry_bytes, c.block_takes);
            self.hub.syscalls.add_rx(0, frames.len() as u64);
            for frame in frames.drain(..) {
                self.shard.record(
                    Event::new(self.epoch.elapsed().as_nanos() as u64, EventKind::WorkerRx)
                        .rail(self.rail)
                        .size((LEN_PREFIX + frame.wire_len()) as u64),
                );
                self.hub.push_completion(
                    self.rail,
                    Completion::RxFrame {
                        rail: self.rail,
                        frame,
                    },
                );
            }
            match res {
                Ok(0) => break, // peer closed for good
                Ok(_) => self.hub.syscalls.add_rx(1, 0),
                // SO_RCVTIMEO expiry: loop re-checks shutdown.
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.hub.io_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        self.hub.deposit_shard(self.shard.events());
    }
}

fn build_endpoint(config: &TcpConfig, streams: Vec<TcpStream>) -> std::io::Result<Endpoint> {
    let mut cfg_engine = config.engine.clone();
    cfg_engine.crc = true;
    if cfg_engine.reactor {
        return build_reactor(config, cfg_engine, streams);
    }
    if cfg_engine.parallel {
        return build_parallel(config, cfg_engine, streams);
    }
    let mut engine = Engine::new(cfg_engine, config.platform.rails.clone(), vec![]);
    let conns = open_conns(&mut engine, config.conns);
    let shared = SerialState::new(engine);
    let rails = streams
        .into_iter()
        .map(RailIo::new)
        .collect::<std::io::Result<Vec<_>>>()?;
    let worker = Worker {
        shared: shared.clone(),
        rails,
        start: Instant::now(),
        chaos: config.chaos.clone(),
        rng: Xoshiro256StarStar::new(0x7C9),
    };
    let handle = std::thread::Builder::new()
        .name("nmad-tcp".into())
        .spawn(move || worker.run())?;
    Ok(Endpoint::serial(shared, handle, conns))
}

/// Build the sharded pipeline: scheduler + one TX and one RX thread per
/// rail.
fn build_parallel(
    config: &TcpConfig,
    cfg_engine: EngineConfig,
    streams: Vec<TcpStream>,
) -> std::io::Result<Endpoint> {
    let record_capacity = cfg_engine.record_capacity;
    let mut engine = Engine::new(cfg_engine, config.platform.rails.clone(), vec![]);
    let conns = open_conns(&mut engine, config.conns);
    let (hub, senders, receivers) = ParallelHub::new(engine);
    let epoch = Instant::now();
    let mut workers = Vec::with_capacity(2 * streams.len() + 1);
    for (rail, (stream, outbox)) in streams.into_iter().zip(receivers).enumerate() {
        stream.set_nodelay(true)?;
        // Blocking sockets with timeouts: the flag and the timeouts are
        // shared by both clones (same open socket), which is exactly
        // what the split TX/RX threads want.
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let tx_stream = stream.try_clone()?;
        let tx = TxWorker {
            hub: hub.clone(),
            rail,
            stream: tx_stream,
            outbox,
            epoch,
            shard: FlightRecorder::with_capacity(record_capacity),
            chaos: config.chaos.clone(),
            rng: Xoshiro256StarStar::new(0x7C9 ^ (rail as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            link_bandwidth: config.platform.rails[rail].link_bandwidth,
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("nmad-tcp-tx{rail}"))
                .spawn(move || tx.run())?,
        );
        let rx = RxWorker {
            hub: hub.clone(),
            rail,
            stream,
            epoch,
            shard: FlightRecorder::with_capacity(record_capacity),
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("nmad-tcp-rx{rail}"))
                .spawn(move || rx.run())?,
        );
    }
    // Scheduler last: joined after the I/O workers so it drains their
    // final completions before quiescing.
    let sched_hub = hub.clone();
    workers.push(
        std::thread::Builder::new()
            .name("nmad-tcp-sched".into())
            .spawn(move || sched_hub.run_scheduler(senders, epoch))?,
    );
    Ok(Endpoint::parallel(hub, workers, conns, None))
}

/// Build the reactor runtime: every rail socket registered with the
/// fixed epoll worker pool, completions flowing through the same
/// [`ParallelHub`] scheduler as the thread-per-rail pipeline (which is
/// why the app-facing API — waits, stats, backpressure — is identical).
fn build_reactor(
    config: &TcpConfig,
    mut cfg_engine: EngineConfig,
    streams: Vec<TcpStream>,
) -> std::io::Result<Endpoint> {
    // The hub's sharded queues are the completion plumbing either way;
    // `parallel` also routes the engine's lock-discipline asserts.
    cfg_engine.parallel = true;
    let mut engine = Engine::new(cfg_engine, config.platform.rails.clone(), vec![]);
    let conns = open_conns(&mut engine, config.conns);
    let (hub, mut senders, receivers) = ParallelHub::new(engine);
    let pool = reactor::ReactorPool::with_default_workers(nmad_core::SharedPool::new(256))?;
    for (rail, (stream, outbox)) in streams.into_iter().zip(receivers).enumerate() {
        let waker = pool.add_rail(stream, rail, hub.clone(), outbox, config.chaos.clone())?;
        // Publishing TX work must wake the epoll worker that owns this
        // rail's socket, not just the (unused) outbox condvar.
        senders[rail].set_wake_hook(Arc::new(move || waker.wake()));
    }
    let telemetry = pool.handle();
    hub.set_reactor_source(Box::new(move || telemetry.snapshot()));
    let epoch = Instant::now();
    let sched_hub = hub.clone();
    let sched = std::thread::Builder::new()
        .name("nmad-tcp-sched".into())
        .spawn(move || sched_hub.run_scheduler(senders, epoch))?;
    // The pool outlives the scheduler's join: the scheduler drains the
    // pool's last completions before the pool shuts down.
    Ok(Endpoint::parallel(
        hub,
        vec![sched],
        conns,
        Some(Box::new(pool)),
    ))
}

/// Listen for a peer: binds one listener per rail on `127.0.0.1:0` and
/// returns the addresses to hand to [`connect`], plus a closure-ish
/// acceptor to finish the handshake.
pub struct PendingListen {
    config: TcpConfig,
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
}

impl PendingListen {
    /// The addresses (one per rail) the peer must connect to, in order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Accept one connection per rail and build the endpoint.
    pub fn accept(self) -> std::io::Result<Endpoint> {
        let mut streams = Vec::with_capacity(self.listeners.len());
        for l in &self.listeners {
            let (s, _) = l.accept()?;
            streams.push(s);
        }
        build_endpoint(&self.config, streams)
    }
}

/// Start listening (server side).
pub fn listen(config: TcpConfig) -> std::io::Result<PendingListen> {
    let n = config.platform.rail_count();
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok(PendingListen {
        config,
        listeners,
        addrs,
    })
}

/// Connect to a listening peer (client side): one address per rail, in the
/// exact order published by [`PendingListen::addrs`].
pub fn connect(config: TcpConfig, addrs: &[SocketAddr]) -> std::io::Result<Endpoint> {
    assert_eq!(
        addrs.len(),
        config.platform.rail_count(),
        "one address per rail"
    );
    let mut streams = Vec::with_capacity(addrs.len());
    for a in addrs {
        streams.push(TcpStream::connect(a)?);
    }
    build_endpoint(&config, streams)
}

/// Convenience: a connected pair within one process over localhost.
pub fn pair_localhost(config: TcpConfig) -> std::io::Result<(Endpoint, Endpoint)> {
    let pending = listen(config.clone())?;
    let addrs = pending.addrs().to_vec();
    let cfg = config;
    let client = std::thread::spawn(move || connect(cfg, &addrs));
    let server = pending.accept()?;
    let client = client.join().expect("connect thread")?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nmad_core::StrategyKind;
    use nmad_model::platform;

    const T: Duration = Duration::from_secs(20);

    /// Every progress runtime of this transport.
    const RUNTIMES: [&str; 3] = ["serial", "parallel", "reactor"];

    fn fabric_on(runtime: &str, kind: StrategyKind) -> (Endpoint, Endpoint) {
        let mut engine = EngineConfig::with_strategy(kind);
        engine.parallel = runtime == "parallel";
        engine.reactor = runtime == "reactor";
        pair_localhost(TcpConfig::new(platform::paper_platform(), engine)).expect("localhost pair")
    }

    fn fabric(kind: StrategyKind) -> (Endpoint, Endpoint) {
        fabric_on("serial", kind)
    }

    fn random(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn small_message_over_real_sockets() {
        for runtime in RUNTIMES {
            let (a, b) = fabric_on(runtime, StrategyKind::AdaptiveSplit);
            let c = a.conns()[0];
            let payload = random(512, 1);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{runtime}");
            assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
            assert_eq!(b.rx_errors(), 0, "{runtime}");
            assert_eq!(a.io_errors(), 0, "{runtime}");
        }
    }

    #[test]
    fn large_message_striped_over_two_sockets() {
        for runtime in RUNTIMES {
            let (a, b) = fabric_on(runtime, StrategyKind::AdaptiveSplit);
            let c = a.conns()[0];
            let payload = random(3 << 20, 2);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{runtime}");
            assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
            let st = a.stats();
            assert!(st.rdv_handshakes >= 1, "{runtime}");
            assert!(
                st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
                "{runtime}: large message must stripe across both sockets: {:?}",
                st.rails
            );
            if runtime != "serial" {
                // The scheduler's short critical sections were measured.
                assert!(st.obs.lock_hold_ns.count() > 0, "{runtime}");
                assert!(st.obs.outbox_depth.count() > 0, "{runtime}");
            }
        }
    }

    #[test]
    fn bidirectional_traffic() {
        for runtime in RUNTIMES {
            let (a, b) = fabric_on(runtime, StrategyKind::Greedy);
            let c = a.conns()[0];
            let pa = random(100_000, 3);
            let pb = random(120_000, 4);
            let ra = a.recv(c);
            let rb = b.recv(c);
            let sa = a.send(c, vec![Bytes::from(pa.clone())]);
            let sb = b.send(c, vec![Bytes::from(pb.clone())]);
            assert!(sa.wait(T) && sb.wait(T), "{runtime}");
            assert_eq!(rb.wait(T).unwrap().segments[0].as_ref(), pa.as_slice());
            assert_eq!(ra.wait(T).unwrap().segments[0].as_ref(), pb.as_slice());
        }
    }

    #[test]
    fn many_pipelined_messages_in_order() {
        for runtime in RUNTIMES {
            let (a, b) = fabric_on(runtime, StrategyKind::AggregateEager);
            let c = a.conns()[0];
            let n = 40;
            let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
            for i in 0..n {
                a.send(c, vec![Bytes::from(random(32 + i * 7, i as u64))]);
            }
            for (i, r) in recvs.into_iter().enumerate() {
                let msg = r.wait(T).expect("recv");
                assert_eq!(
                    msg.segments[0].as_ref(),
                    random(32 + i * 7, i as u64).as_slice(),
                    "{runtime}: message {i}"
                );
            }
        }
    }

    #[test]
    fn multi_segment_message_over_sockets() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let segs: Vec<Bytes> = vec![
            Bytes::from(random(10, 9)),
            Bytes::from(random(50_000, 10)),
            Bytes::from(random(150_000, 11)),
        ];
        let r = b.recv(c);
        let s = a.send(c, segs.clone());
        assert!(s.wait(T));
        assert_eq!(r.wait(T).unwrap().segments, segs);
    }

    #[test]
    fn acked_delivery_over_sockets() {
        for runtime in ["serial", "parallel"] {
            let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
            engine.acked = true;
            engine.parallel = runtime == "parallel";
            let (a, b) = pair_localhost(TcpConfig::new(platform::paper_platform(), engine))
                .expect("localhost pair");
            let c = a.conns()[0];
            let payload = random(200_000, 21);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait_acked(T), "{runtime}: ack must arrive");
            assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
            // TCP does not lose frames: the adaptive timers must not have
            // fired spuriously on a healthy fabric.
            assert_eq!(a.stats().retransmits, 0, "{runtime}");
        }
    }

    /// The chaos drop boost makes even a reliable TCP wire lossy; acked
    /// mode recovers through the engine's own retransmission, and
    /// healing the dials returns the fabric to zero-loss behaviour.
    #[test]
    fn chaos_drop_boost_recovered_by_retransmission() {
        let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
        engine.acked = true;
        engine.health.initial_rto_ns = 20_000_000;
        engine.health.min_rto_ns = 5_000_000;
        let chaos = ChaosState::new(2);
        let mut cfg = TcpConfig::new(platform::paper_platform(), engine);
        cfg.chaos = Some(chaos.clone());
        let (a, b) = pair_localhost(cfg).expect("localhost pair");
        let c = a.conns()[0];
        chaos.set_drop_boost(0, 0.5);
        chaos.set_drop_boost(1, 0.5);
        let n = 8;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.send(c, vec![Bytes::from(random(400 + i * 31, i as u64))]))
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(s.wait_acked(T), "message {i} never recovered");
        }
        for r in recvs {
            assert!(r.wait(T).is_some());
        }
        assert!(
            a.stats().retransmits > 0,
            "a 50% drop boost must force retries"
        );
        assert!(a.tx_dropped() > 0, "the boost must have eaten frames");
        chaos.heal_all();
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random(4096, 99))]);
        assert!(s.wait_acked(T));
        assert!(r.wait(T).is_some());
    }

    #[test]
    fn explicit_listen_connect_flow() {
        let cfg = TcpConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::Greedy),
        );
        let pending = listen(cfg.clone()).unwrap();
        let addrs = pending.addrs().to_vec();
        assert_eq!(addrs.len(), 2, "one socket per rail");
        let client = std::thread::spawn(move || connect(cfg, &addrs).unwrap());
        let server = pending.accept().unwrap();
        let client = client.join().unwrap();
        let c = server.conns()[0];
        let r = client.recv(c);
        server.send(c, vec![Bytes::from_static(b"over real tcp")]);
        assert_eq!(&r.wait(T).unwrap().segments[0][..], b"over real tcp");
    }

    /// Satellite regression: a send submitted while the progress thread
    /// is mid idle-poll must be picked up via the work-signal kick, not
    /// after sleeping out the poll. The bound is generous for CI noise —
    /// the point is that it holds even if the idle wait is ever made
    /// much longer than the kick-less sleep used to be.
    #[test]
    fn submit_during_idle_poll_wakes_worker_promptly() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        // Let both progress threads drain startup traffic and go idle.
        std::thread::sleep(Duration::from_millis(30));
        let r = b.recv(c);
        let t0 = Instant::now();
        let s = a.send(c, vec![Bytes::from_static(b"wake up")]);
        assert!(s.wait(Duration::from_millis(500)), "send never completed");
        assert!(r.wait(Duration::from_millis(500)).is_some());
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "idle submission took {:?} — wakeup lost?",
            t0.elapsed()
        );
    }

    /// Reactor telemetry reaches `EngineStats`: workers sized per
    /// config, poll loop ran, and both rails were registered with the
    /// event loop (conns gauge). Zero-alloc gate: the rail RX ring never
    /// had to grow a magazine block itself on this small exchange.
    #[test]
    fn reactor_telemetry_populated() {
        let (a, b) = fabric_on("reactor", StrategyKind::Greedy);
        let c = a.conns()[0];
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random(64_000, 55))]);
        assert!(s.wait(T));
        assert!(r.wait(T).is_some());
        let rs = a.reactor_stats().expect("reactor endpoint");
        assert_eq!(rs.workers as usize, reactor::worker_count());
        assert!(rs.polls > 0, "event loop never polled");
        assert!(rs.events > 0, "no readiness events observed");
        assert_eq!(rs.conns, 2, "both rail sockets registered");
        assert_eq!(rs.fd_shed, 0);
        assert_eq!(rs.hot_path_allocs, 0, "rail RX pump allocated");
        // The scheduler mirror also lands in EngineStats.
        let st = a.stats();
        assert_eq!(st.reactor.workers, rs.workers);
    }

    /// Satellite regression: with the reactor off, the serial and
    /// parallel runtimes carry no reactor state at all — telemetry stays
    /// zeroed and `reactor_stats()` is `None` (bit-identical paths).
    #[test]
    fn reactor_off_leaves_other_runtimes_untouched() {
        for runtime in ["serial", "parallel"] {
            let (a, b) = fabric_on(runtime, StrategyKind::Greedy);
            let c = a.conns()[0];
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(random(4096, 56))]);
            assert!(s.wait(T));
            assert!(r.wait(T).is_some());
            assert!(a.reactor_stats().is_none());
            let st = a.stats();
            assert_eq!(st.reactor.workers, 0);
            assert_eq!(st.reactor.polls, 0);
            assert!(st.reactor.events_per_wake.is_empty());
        }
    }

    /// Satellite e2e: a full admission quota on the reactor TCP fabric
    /// surfaces as `SubmitError::WouldBlock` through `try_send`, and
    /// draining the inflight message re-admits the tenant.
    #[test]
    fn reactor_backpressure_wouldblock_and_readmit() {
        let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
        engine.reactor = true;
        engine.overload.max_tenant_inflight = 1;
        let (a, b) = pair_localhost(TcpConfig::new(platform::paper_platform(), engine))
            .expect("localhost pair");
        let c = a.conns()[0];

        // Fill the quota, then a second submit must push back
        // immediately (the first cannot complete: no recv is posted
        // yet, so its completion cannot race the rejection).
        let payload = random(1 << 20, 57);
        let s1 = a.try_send(c, vec![Bytes::from(payload.clone())]).unwrap();
        match a.try_send(c, vec![Bytes::from_static(b"over quota")]) {
            Err(nmad_core::SubmitError::WouldBlock) => {}
            Err(e) => panic!("expected WouldBlock, got {e:?}"),
            Ok(_) => panic!("expected WouldBlock, got an admitted send"),
        }
        assert!(a.overload_stats().admission_rejections > 0);

        // Drain: deliver the inflight message, then the tenant is
        // re-admitted (poll briefly — completion credit is returned on
        // a scheduler pass after delivery).
        let r1 = b.recv(c);
        assert!(s1.wait(T));
        assert_eq!(r1.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
        let deadline = Instant::now() + T;
        let s2 = loop {
            match a.try_send(c, vec![Bytes::from_static(b"after drain")]) {
                Ok(h) => break h,
                Err(nmad_core::SubmitError::WouldBlock) => {
                    assert!(Instant::now() < deadline, "tenant never re-admitted");
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected submit error: {e:?}"),
            }
        };
        let r2 = b.recv(c);
        assert!(s2.wait(T));
        assert_eq!(&r2.wait(T).unwrap().segments[0][..], b"after drain");
    }

    /// Copy budget of the receive path on every runtime: a 2-rail
    /// stream of 1 MiB messages copies less than half a byte per payload
    /// byte in the receive rings (a ring that copies the buffered
    /// remainder per frame paid 1.4–3.0), and the rings stop taking
    /// blocks once warm. A ring holds at most `BLOCKS_MAX` blocks and
    /// takes a new one only when all it holds are pinned, so its takes
    /// stay under that cap for good; a ring that did not recycle would
    /// take a block per frame, hundreds here.
    #[test]
    fn rx_copy_budget_on_every_runtime() {
        const MSG: usize = 1 << 20;
        const WARMUP: usize = 16;
        const MEASURED: usize = 48;
        const WINDOW: usize = 4;
        for runtime in RUNTIMES {
            let (a, b) = fabric_on(runtime, StrategyKind::AdaptiveSplit);
            let c = a.conns()[0];
            let payloads: Vec<Bytes> = (0..WINDOW)
                .map(|i| Bytes::from(random(MSG, 60 + i as u64)))
                .collect();
            let mut allocs_after_warmup = 0;
            let mut inflight = std::collections::VecDeque::new();
            for i in 0..WARMUP + MEASURED + WINDOW {
                if i >= WINDOW {
                    let (r, j): (RecvHandle, usize) = inflight.pop_front().unwrap();
                    let msg = r.wait(T).expect("delivery");
                    assert_eq!(
                        msg.segments[0],
                        payloads[j % WINDOW],
                        "{runtime}: message {j}"
                    );
                    if j + 1 == WARMUP {
                        allocs_after_warmup = b.stats().datapath.rx_block_allocs;
                    }
                }
                if i < WARMUP + MEASURED {
                    inflight.push_back((b.recv(c), i));
                    a.send(c, vec![payloads[i % WINDOW].clone()]);
                }
            }
            // Let the last scheduler pass mirror the counters.
            std::thread::sleep(Duration::from_millis(50));
            let d = b.stats().datapath;
            let payload = ((WARMUP + MEASURED) * MSG) as u64;
            eprintln!(
                "{runtime}: carry {:.3} B/B, reassembly copy {:.3} B/B, blocks {} after warm-up {}",
                d.rx_carry_bytes as f64 / payload as f64,
                d.rx_reassembly_copy_bytes as f64 / payload as f64,
                d.rx_block_allocs,
                allocs_after_warmup,
            );
            assert!(
                2 * d.rx_carry_bytes < payload,
                "{runtime}: carried {} bytes for {payload} payload bytes",
                d.rx_carry_bytes
            );
            assert!(
                allocs_after_warmup > 0,
                "{runtime}: rings never counted a block"
            );
            // Per ring: its first block (sized to its first read and
            // given back once retired), then at most `BLOCKS_MAX` held.
            let cap = (b.stats().rails.len() * (rx_ring::BLOCKS_MAX + 1)) as u64;
            assert!(
                d.rx_block_allocs <= cap,
                "{runtime}: {} blocks taken ({allocs_after_warmup} during warm-up), cap {cap}",
                d.rx_block_allocs
            );
            assert_eq!(b.rx_errors(), 0);
        }
    }

    mod batch_props {
        use super::super::{gather_batch_slices, LEN_PREFIX};
        use bytes::Bytes;
        use nmad_wire::{PacketFrame, PartList};
        use proptest::prelude::*;
        use std::io::IoSlice;

        /// Arbitrary scatter-gather frame: a head plus 0–4 body parts,
        /// any of which may be empty or a single byte (the awkward
        /// shapes the gather logic must skip or tail-slice correctly).
        fn arb_frame() -> impl Strategy<Value = PacketFrame> {
            (
                prop::collection::vec(any::<u8>(), 0..40),
                prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..4),
            )
                .prop_map(|(head, parts)| {
                    let mut list = PartList::new();
                    for p in parts {
                        list.push(Bytes::from(p));
                    }
                    PacketFrame::from_parts(Bytes::from(head), list)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The batched gather list, consumed under arbitrary partial
            /// writes and iovec caps, yields a byte stream identical to
            /// writing each frame separately (`prefix ++ frame` flattened
            /// in order) — the legacy one-frame-per-write image.
            #[test]
            fn batched_gather_matches_sequential_writes(
                frames in prop::collection::vec(arb_frame(), 1..6),
                writes in prop::collection::vec(1usize..48, 1..64),
                max_slices in 1usize..8,
            ) {
                let prefixes: Vec<[u8; LEN_PREFIX]> = frames
                    .iter()
                    .map(|f| (f.wire_len() as u32).to_le_bytes())
                    .collect();
                let total: usize =
                    frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();

                // Reference: sequential single-frame writes.
                let mut expect = Vec::with_capacity(total);
                for (p, f) in prefixes.iter().zip(&frames) {
                    expect.extend_from_slice(p);
                    expect.extend_from_slice(&f.to_bytes());
                }

                // Batched path: each simulated `write_vectored` consumes
                // `n` bytes of the gather list rebuilt at the current
                // offset, exactly like `write_batch`'s resume loop.
                let mut got = Vec::with_capacity(total);
                let mut off = 0usize;
                let mut slices: Vec<IoSlice> = Vec::new();
                let mut wi = 0usize;
                while off < total {
                    gather_batch_slices(&prefixes, &frames, off, &mut slices, max_slices);
                    prop_assert!(!slices.is_empty(), "empty gather list before end of batch");
                    let avail: usize = slices.iter().map(|s| s.len()).sum();
                    let n = writes[wi % writes.len()].min(avail);
                    wi += 1;
                    let mut left = n;
                    for s in &slices {
                        if left == 0 {
                            break;
                        }
                        let take = left.min(s.len());
                        got.extend_from_slice(&s[..take]);
                        left -= take;
                    }
                    off += n;
                }
                prop_assert_eq!(got, expect);
            }

            /// With no iovec cap, one gather list covers the whole batch
            /// remainder from any offset — i.e. an unconstrained kernel
            /// could finish the batch in a single syscall.
            #[test]
            fn uncapped_gather_covers_remainder(
                frames in prop::collection::vec(arb_frame(), 1..6),
                off_frac in 0.0f64..1.0,
            ) {
                let prefixes: Vec<[u8; LEN_PREFIX]> = frames
                    .iter()
                    .map(|f| (f.wire_len() as u32).to_le_bytes())
                    .collect();
                let total: usize =
                    frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();
                let off = ((total as f64) * off_frac) as usize;
                prop_assume!(off < total);
                let mut slices: Vec<IoSlice> = Vec::new();
                gather_batch_slices(&prefixes, &frames, off, &mut slices, usize::MAX);
                let avail: usize = slices.iter().map(|s| s.len()).sum();
                prop_assert_eq!(avail, total - off);
            }
        }
    }
}
