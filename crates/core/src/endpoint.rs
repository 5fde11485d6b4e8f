//! The application-facing endpoint, shared by every transport.
//!
//! Paper §2: everything above the driver is one engine, and a network
//! adds only a thin driver. This module is the runtime half of that
//! rule. [`Endpoint`], its [`SendHandle`]/[`RecvHandle`], the blocking
//! waits, the telemetry accessors and the shutdown order are written
//! once here; a transport only builds its link workers and hands them
//! over through [`Endpoint::serial`] or [`Endpoint::parallel`].
//!
//! Two runtimes drive an endpoint's engine:
//!
//! * **serial** — one progress thread owns the NIC-activity loop under
//!   the engine lock of a [`SerialState`];
//! * **parallel** — the sharded [`ParallelHub`] pipeline: a scheduler thread
//!   plus the transport's I/O workers (thread-per-rail or a reactor
//!   pool), with submissions queued outside the engine lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_model::RailId;
use nmad_wire::reassembly::MessageAssembly;
use nmad_wire::ConnId;
use parking_lot::{Condvar, Mutex};

use crate::engine::parallel::{ParallelHub, WorkSignal};
use crate::engine::Engine;
use crate::error::SubmitError;
use crate::health::{RailState, RailTelemetry};
use crate::obs::{Alert, Event, Window};
use crate::request::{RecvId, SendId};
use crate::stats::{EngineStats, OverloadStats, ReactorStats};

/// Shared state of the serial runtime: the engine behind the lock its
/// single progress thread holds across a step, plus the wakeups and
/// counters the endpoint reads.
pub struct SerialState {
    engine: Mutex<Engine>,
    /// App-visible completion wakeups; paired with `engine`.
    cv: Condvar,
    /// Wakes the progress thread out of an idle wait when work arrives
    /// (a submission, a retransmit request, a delivery from the peer).
    work: WorkSignal,
    shutdown: AtomicBool,
    /// Packets rejected on receive (decode/CRC/reassembly errors).
    pub rx_errors: AtomicU64,
    /// Transport I/O errors reported by the progress thread.
    pub io_errors: AtomicU64,
    /// Outgoing frames the transport's fault injection dropped.
    pub tx_dropped: AtomicU64,
}

impl SerialState {
    /// Wrap an engine for a serial progress thread.
    pub fn new(engine: Engine) -> Arc<Self> {
        Arc::new(SerialState {
            engine: Mutex::new(engine),
            cv: Condvar::new(),
            work: WorkSignal::default(),
            shutdown: AtomicBool::new(false),
            rx_errors: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            tx_dropped: AtomicU64::new(0),
        })
    }

    /// The engine mutex.
    pub fn engine(&self) -> &Mutex<Engine> {
        &self.engine
    }

    /// Wake every app thread blocked in a wait.
    pub fn notify_app(&self) {
        self.cv.notify_all();
    }

    /// Wake the progress thread.
    pub fn kick(&self) {
        self.work.kick();
    }

    /// Idle wait of the progress thread: returns once kicked or after
    /// `timeout`.
    pub fn wait_for_work(&self, timeout: Duration) {
        self.work.wait(timeout);
    }

    /// True once the owning endpoint began shutting down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kick();
    }
}

/// Which runtime drives an endpoint's engine.
#[derive(Clone)]
enum Runtime {
    Serial(Arc<SerialState>),
    Parallel(Arc<ParallelHub>),
}

impl Runtime {
    fn engine(&self) -> &Mutex<Engine> {
        match self {
            Runtime::Serial(s) => &s.engine,
            Runtime::Parallel(h) => h.engine(),
        }
    }

    /// Condvar notified when app-visible completions may have landed.
    fn cv(&self) -> &Condvar {
        match self {
            Runtime::Serial(s) => &s.cv,
            Runtime::Parallel(h) => h.app_cv(),
        }
    }

    /// Block on the completion condvar until `done` or `timeout`.
    fn wait_on<T>(
        &self,
        timeout: Duration,
        mut done: impl FnMut(&mut Engine) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut eng = self.engine().lock();
        loop {
            if let Some(v) = done(&mut eng) {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv().wait_for(&mut eng, deadline - now);
        }
    }
}

/// Open `n` logical channels (at least one) on a fresh engine.
pub fn open_conns(engine: &mut Engine, n: usize) -> Vec<ConnId> {
    (0..n.max(1)).map(|_| engine.conn_open()).collect()
}

/// One endpoint of a fabric.
pub struct Endpoint {
    runtime: Runtime,
    /// Serial: the single progress thread. Parallel: the I/O workers first,
    /// the scheduler last, joined in that order so the scheduler drains
    /// the workers' final completions before exiting.
    workers: Vec<JoinHandle<()>>,
    conns: Vec<ConnId>,
    /// Transport state that must outlive the joined workers (the
    /// reactor's epoll pool): dropped right after the join.
    keep_alive: Option<Box<dyn Send + Sync>>,
}

/// Handle to a send in flight.
pub struct SendHandle {
    runtime: Runtime,
    id: SendId,
}

/// Handle to a posted receive.
pub struct RecvHandle {
    runtime: Runtime,
    id: RecvId,
}

impl SendHandle {
    /// Block until the send completes locally, or `timeout` expires.
    /// Returns true on completion.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.runtime
            .wait_on(timeout, |eng| eng.send_complete(self.id).then_some(()))
            .is_some()
    }

    /// Block until the *peer confirms delivery* (requires
    /// `EngineConfig::acked` on both endpoints), or `timeout` expires.
    pub fn wait_acked(&self, timeout: Duration) -> bool {
        self.runtime
            .wait_on(timeout, |eng| eng.send_acked(self.id).then_some(()))
            .is_some()
    }

    /// Manually re-enqueue the message for transmission (acked mode).
    /// Normally unnecessary: the runtime retransmits automatically on
    /// adaptive timeouts. See [`Engine::retransmit`].
    pub fn retransmit(&self) -> bool {
        let ok = self.runtime.engine().lock().retransmit(self.id);
        if ok {
            match &self.runtime {
                Runtime::Serial(s) => s.kick(),
                Runtime::Parallel(h) => h.kick_sched(),
            }
        }
        ok
    }
}

impl RecvHandle {
    /// Block until the message arrives, or `timeout` expires.
    pub fn wait(&self, timeout: Duration) -> Option<MessageAssembly> {
        self.runtime.wait_on(timeout, |eng| eng.try_recv(self.id))
    }
}

impl Endpoint {
    /// An endpoint driven by one serial progress thread.
    pub fn serial(state: Arc<SerialState>, worker: JoinHandle<()>, conns: Vec<ConnId>) -> Self {
        Endpoint {
            runtime: Runtime::Serial(state),
            workers: vec![worker],
            conns,
            keep_alive: None,
        }
    }

    /// An endpoint driven by the [`ParallelHub`] pipeline. `workers`
    /// must list the I/O workers first and the scheduler last; they are
    /// joined in that order on shutdown, and `keep_alive` is dropped
    /// after them.
    pub fn parallel(
        hub: Arc<ParallelHub>,
        workers: Vec<JoinHandle<()>>,
        conns: Vec<ConnId>,
        keep_alive: Option<Box<dyn Send + Sync>>,
    ) -> Self {
        Endpoint {
            runtime: Runtime::Parallel(hub),
            workers,
            conns,
            keep_alive,
        }
    }

    /// Logical channels opened at construction.
    pub fn conns(&self) -> &[ConnId] {
        &self.conns
    }

    /// The engine mutex, for cold-path inspection (live tables, health
    /// state). Sends and receives go through [`Endpoint::send`] and
    /// [`Endpoint::recv`].
    pub fn engine(&self) -> &Mutex<Engine> {
        self.runtime.engine()
    }

    /// Submit a non-blocking send. Panics on the parallel runtime
    /// after [`Endpoint::shutdown`].
    pub fn send(&self, conn: ConnId, segments: Vec<Bytes>) -> SendHandle {
        let id = match &self.runtime {
            Runtime::Serial(s) => {
                let id = s.engine.lock().submit_send(conn, segments);
                // Wake the progress thread: it may be mid idle wait.
                s.kick();
                id
            }
            // The hub queues without the engine lock and kicks the
            // scheduler itself. Submission only errors after shutdown.
            Runtime::Parallel(h) => h
                .submit_send(conn, segments)
                .expect("endpoint not shut down"),
        };
        SendHandle {
            runtime: self.runtime.clone(),
            id,
        }
    }

    /// Post a non-blocking receive. Panics on the parallel runtime
    /// after [`Endpoint::shutdown`].
    pub fn recv(&self, conn: ConnId) -> RecvHandle {
        let id = match &self.runtime {
            Runtime::Serial(s) => {
                let id = s.engine.lock().post_recv(conn);
                s.kick();
                id
            }
            Runtime::Parallel(h) => h.post_recv(conn).expect("endpoint not shut down"),
        };
        RecvHandle {
            runtime: self.runtime.clone(),
            id,
        }
    }

    /// Convenience: send and wait.
    pub fn send_blocking(&self, conn: ConnId, segments: Vec<Bytes>, timeout: Duration) -> bool {
        self.send(conn, segments).wait(timeout)
    }

    /// Convenience: receive and wait.
    pub fn recv_blocking(&self, conn: ConnId, timeout: Duration) -> Option<MessageAssembly> {
        self.recv(conn).wait(timeout)
    }

    /// Submit a send under the full overload policy: on the parallel runtime
    /// the submission is refused with [`SubmitError::WouldBlock`] when
    /// the queue depth, pool watermark or per-tenant quota is exceeded
    /// (see [`crate::OverloadConfig`]). The serial runtime has no
    /// admission boundary and always admits, like [`Endpoint::send`].
    pub fn try_send(&self, conn: ConnId, segments: Vec<Bytes>) -> Result<SendHandle, SubmitError> {
        match &self.runtime {
            Runtime::Serial(_) => Ok(self.send(conn, segments)),
            Runtime::Parallel(h) => h.try_submit_send(conn, segments).map(|id| SendHandle {
                runtime: self.runtime.clone(),
                id,
            }),
        }
    }

    /// Overload rejection counters (all zero on the serial runtime,
    /// which has no admission boundary).
    pub fn overload_stats(&self) -> OverloadStats {
        match &self.runtime {
            Runtime::Serial(_) => OverloadStats::default(),
            Runtime::Parallel(h) => h.overload_stats(),
        }
    }

    /// Buffer-pool ledger check: outstanding pool buffers not accounted
    /// for by any in-flight transmission. Non-zero means a leak.
    pub fn pool_leaks(&self) -> u64 {
        self.engine().lock().pool_leaks()
    }

    /// Engine statistics snapshot. With a reactor attached, the
    /// event-loop telemetry is read live rather than from the last
    /// scheduler pass's mirror.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.engine().lock().stats().clone();
        if let Some(reactor) = self.reactor_stats() {
            stats.reactor = reactor;
        }
        stats
    }

    /// Reactor event-loop telemetry (`None` unless a reactor pool
    /// drives this endpoint's rails).
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        match &self.runtime {
            Runtime::Serial(_) => None,
            Runtime::Parallel(h) => h.reactor_snapshot(),
        }
    }

    /// Packets rejected on receive (decode/CRC/reassembly errors).
    pub fn rx_errors(&self) -> u64 {
        match &self.runtime {
            Runtime::Serial(s) => s.rx_errors.load(Ordering::Relaxed),
            Runtime::Parallel(h) => h.rx_errors.load(Ordering::Relaxed),
        }
    }

    /// Transport I/O errors observed by the workers (always zero on the
    /// in-process fabric).
    pub fn io_errors(&self) -> u64 {
        match &self.runtime {
            Runtime::Serial(s) => s.io_errors.load(Ordering::Relaxed),
            Runtime::Parallel(h) => h.io_errors.load(Ordering::Relaxed),
        }
    }

    /// Outgoing frames dropped by fault injection on this endpoint.
    pub fn tx_dropped(&self) -> u64 {
        match &self.runtime {
            Runtime::Serial(s) => s.tx_dropped.load(Ordering::Relaxed),
            Runtime::Parallel(h) => h.tx_dropped.load(Ordering::Relaxed),
        }
    }

    /// Current health state of every rail.
    pub fn rail_states(&self) -> Vec<RailState> {
        self.engine().lock().rail_states()
    }

    /// Full health state history of one rail, oldest first.
    pub fn rail_history(&self, rail: usize) -> Vec<RailState> {
        self.engine()
            .lock()
            .health()
            .rail(RailId(rail))
            .history()
            .to_vec()
    }

    /// Timer and dwell-time telemetry of one rail (SRTT/RTTVAR/RTO and
    /// per-state dwell times, as of the engine clock).
    pub fn rail_telemetry(&self, rail: usize) -> RailTelemetry {
        self.engine().lock().rail_telemetry(rail)
    }

    /// Snapshot of the recorded flight events, oldest first. Empty unless
    /// the endpoint was built with a nonzero
    /// `EngineConfig::record_capacity`. On the parallel runtime this merges
    /// the engine ring with the worker shards deposited so far; workers
    /// deposit at exit, so their events appear after
    /// [`Endpoint::shutdown`].
    pub fn events(&self) -> Vec<Event> {
        match &self.runtime {
            Runtime::Serial(s) => s.engine.lock().recorder().events(),
            Runtime::Parallel(h) => h.merged_events(),
        }
    }

    /// Fold pending recorder events into the telemetry windows and
    /// render the Prometheus text exposition. `None` unless the
    /// endpoint was built with `EngineConfig::telemetry` enabled.
    pub fn telemetry_prometheus(&self) -> Option<String> {
        let mut eng = self.engine().lock();
        eng.fold_telemetry();
        let stats = eng.stats().clone();
        eng.telemetry()
            .map(|agg| crate::obs::to_prometheus(agg, &stats))
    }

    /// The telemetry time series as JSONL, one closed window per line
    /// (oldest first, at most the configured ring depth).
    pub fn telemetry_jsonl(&self) -> Option<String> {
        let mut eng = self.engine().lock();
        eng.fold_telemetry();
        eng.telemetry().map(crate::obs::windows_jsonl)
    }

    /// Snapshot of the most recently closed telemetry window.
    pub fn telemetry_latest(&self) -> Option<Window> {
        let mut eng = self.engine().lock();
        eng.fold_telemetry();
        eng.telemetry().and_then(|agg| agg.latest().cloned())
    }

    /// Watchdog alerts fired so far (empty without a watchdog).
    pub fn alerts(&self) -> Vec<Alert> {
        let mut eng = self.engine().lock();
        eng.fold_telemetry();
        eng.watchdog()
            .map(|d| d.alerts().to_vec())
            .unwrap_or_default()
    }

    /// Machine-readable watchdog verdict. `None` unless the endpoint
    /// was built with `EngineConfig::watchdog` enabled.
    pub fn watchdog_verdict(&self) -> Option<String> {
        let mut eng = self.engine().lock();
        eng.fold_telemetry();
        eng.watchdog().map(|d| d.verdict_json())
    }

    /// Stop the runtime and join its workers in order; runs on drop.
    /// Afterwards the endpoint still answers `stats`, `events` and the
    /// other snapshots, but a send or receive posted on it panics on the
    /// parallel runtime and never completes on the serial one.
    pub fn shutdown(&mut self) {
        match &self.runtime {
            Runtime::Serial(s) => s.begin_shutdown(),
            Runtime::Parallel(h) => h.begin_shutdown(),
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.keep_alive = None;
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}
