//! The measured loops. Each drives one endpoint pair through the public
//! API from the calling thread, checks every delivery against the seeded
//! payload, and records latency samples, counters and (when the tracer is
//! on) spans around each call into the transport. A traced phase ends
//! early once its tracer is full, so that every operation it counts is
//! traced.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use nmad_core::{EngineStats, SubmitError};
use nmad_transport_mem as mem;
use nmad_transport_tcp as tcp;

use crate::gen::{Msg, Payloads};
use crate::stats::Tally;
use crate::sys;
use crate::trace::{Tracer, NO_SPAN};

/// How long one wait on the library may take before it counts as a
/// timeout.
pub const WAIT_LIMIT: Duration = Duration::from_secs(5);

/// Width of the windows the end-to-end metrics are taken over.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Blocking-wait cap of the open loop: a delivery on a channel other than
/// the one being waited on is seen at most this late.
pub const POLL_CAP: Duration = Duration::from_micros(100);

/// What one measured phase observed.
#[derive(Default)]
pub struct Phase {
    /// Per-operation latency, µs (round trip, or submit/due to delivery).
    pub lat_us: Vec<f64>,
    /// Completion time (s since the phase start) and payload bytes of
    /// each operation, in `lat_us` order.
    pub done: Vec<(f64, u64)>,
    /// Clocks sampled at the first moment past each [`WINDOW`] boundary.
    pub marks: Vec<Mark>,
    /// How late each operation was issued, µs: after its due time (open
    /// loop) or after the slot it waited for freed up (closed loop).
    pub lag_us: Vec<f64>,
    /// Messages submitted but not yet delivered, sampled at each
    /// submission (before it).
    pub outstanding: Vec<f64>,
    /// Completed operations.
    pub ops: u64,
    /// Messages delivered (a round trip delivers two).
    pub msgs: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Process CPU time over the phase.
    pub cpu: Duration,
    /// Time spent inside `Endpoint::send`/`try_send`, and the calls.
    pub send_ns: u64,
    /// See `send_ns`.
    pub send_calls: u64,
    /// Time spent inside `Endpoint::recv`, and the calls.
    pub post_ns: u64,
    /// See `post_ns`.
    pub post_calls: u64,
    /// Failures and attempts.
    pub tally: Tally,
    /// Counter deltas over the phase, both endpoints summed.
    pub counters: Counters,
}

/// The process's CPU time and the machine's stolen time at one moment.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Seconds since the phase start.
    pub t: f64,
    /// Process CPU time.
    pub cpu: Duration,
    /// [`sys::steal_ticks`].
    pub steal: u64,
}

impl Mark {
    fn now(t: f64, cpu: Duration) -> Self {
        Mark {
            t,
            cpu,
            steal: sys::steal_ticks(),
        }
    }
}

impl Phase {
    fn start(&mut self) -> (Instant, Duration) {
        let cpu = sys::process_cpu();
        self.marks.push(Mark::now(0.0, cpu));
        (Instant::now(), cpu)
    }

    /// Sample the CPU clock if `now` has crossed into a new window.
    fn mark(&mut self, t0: Instant, now: Instant) {
        let t = now.saturating_duration_since(t0).as_secs_f64();
        if t >= self.marks.len() as f64 * WINDOW.as_secs_f64() {
            self.marks.push(Mark::now(t, sys::process_cpu()));
        }
    }

    /// Record a completed operation of `msgs` messages and `bytes`
    /// payload bytes.
    fn complete(&mut self, t0: Instant, done: Instant, lat: Duration, msgs: u64, bytes: u64) {
        self.lat_us.push(us(lat));
        self.done
            .push((done.saturating_duration_since(t0).as_secs_f64(), bytes));
        self.payload_bytes += bytes;
        self.msgs += msgs;
        self.ops += 1;
        self.mark(t0, done);
    }

    fn finish(&mut self, t0: Instant, cpu0: Duration) {
        self.wall = t0.elapsed();
        let cpu = sys::process_cpu();
        self.cpu = cpu.saturating_sub(cpu0);
        // Closes the last window even when no operation completed past
        // its end.
        self.marks.push(Mark::now(self.wall.as_secs_f64(), cpu));
    }
}

/// Library counters the per-layer metrics read, summed over both
/// endpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Packets put on the wire (data and control).
    pub packets: u64,
    /// Payload bytes sent on rail 0.
    pub rail0_payload: u64,
    /// Payload bytes sent on all rails.
    pub payload: u64,
    /// Times an idle rail was offered to the strategy.
    pub idle_queries: u64,
    /// Aggregated packets built.
    pub aggregates: u64,
    /// Segments packed into aggregates.
    pub segments_aggregated: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Bytes copied on the data path (staging on TX, straddles on RX).
    pub copied_bytes: u64,
    /// Pool takes that allocated fresh memory.
    pub hot_allocs: u64,
    /// Pool takes in total.
    pub pool_takes: u64,
    /// Pool takes served from a per-worker magazine.
    pub magazine_hits: u64,
    /// Transmit syscalls and the frames they carried.
    pub tx_calls: u64,
    /// See `tx_calls`.
    pub tx_frames: u64,
    /// Receive syscalls and the frames they carried.
    pub rx_calls: u64,
    /// See `rx_calls`.
    pub rx_frames: u64,
    /// Endpoint receive/IO errors.
    pub errors: u64,
}

impl Counters {
    /// Sum the counters of both endpoints.
    pub fn of(stats: [&EngineStats; 2], errors: u64) -> Self {
        let mut c = Counters {
            errors,
            ..Counters::default()
        };
        for s in stats {
            c.packets += s.total_packets();
            c.rail0_payload += s.rails.first().map_or(0, |r| r.payload_bytes);
            c.payload += s.total_payload_bytes();
            c.idle_queries += s.idle_queries;
            c.aggregates += s.aggregates_built;
            c.segments_aggregated += s.segments_aggregated;
            c.msgs_sent += s.msgs_sent;
            let d = &s.datapath;
            c.copied_bytes += d.total_copied_bytes();
            c.hot_allocs += d.hot_path_allocs;
            c.pool_takes += d.pool_hits + d.hot_path_allocs;
            c.magazine_hits += d.pool_magazine_hits;
            c.tx_calls += s.syscalls.tx_calls;
            c.tx_frames += s.syscalls.tx_frames;
            c.rx_calls += s.syscalls.rx_calls;
            c.rx_frames += s.syscalls.rx_frames;
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            packets: self.packets - e.packets,
            rail0_payload: self.rail0_payload - e.rail0_payload,
            payload: self.payload - e.payload,
            idle_queries: self.idle_queries - e.idle_queries,
            aggregates: self.aggregates - e.aggregates,
            segments_aggregated: self.segments_aggregated - e.segments_aggregated,
            msgs_sent: self.msgs_sent - e.msgs_sent,
            copied_bytes: self.copied_bytes - e.copied_bytes,
            hot_allocs: self.hot_allocs - e.hot_allocs,
            pool_takes: self.pool_takes - e.pool_takes,
            magazine_hits: self.magazine_hits - e.magazine_hits,
            tx_calls: self.tx_calls - e.tx_calls,
            tx_frames: self.tx_frames - e.tx_frames,
            rx_calls: self.rx_calls - e.rx_calls,
            rx_frames: self.rx_frames - e.rx_frames,
            errors: self.errors - e.errors,
        }
    }
}

/// Counters of a TCP endpoint pair.
pub fn tcp_counters(a: &tcp::Endpoint, b: &tcp::Endpoint) -> Counters {
    let errors = a.rx_errors() + a.io_errors() + b.rx_errors() + b.io_errors();
    Counters::of([&a.stats(), &b.stats()], errors)
}

/// Counters of a mem endpoint pair.
pub fn mem_counters(a: &mem::Endpoint, b: &mem::Endpoint) -> Counters {
    Counters::of([&a.stats(), &b.stats()], a.rx_errors() + b.rx_errors())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Closed-loop ping-pong over `a`/`b`, one round trip outstanding, for
/// `run` (or until the first failure). `a` sends each message of `msgs`
/// in turn; `b` checks it and echoes the received segments back; `a`
/// checks the echo.
pub fn pingpong(
    a: &tcp::Endpoint,
    b: &tcp::Endpoint,
    msgs: &[Msg],
    pay: &Payloads,
    run: Duration,
    tr: &mut Tracer,
) -> Phase {
    let conn = a.conns()[0];
    let mut ph = Phase::default();
    let c0 = tcp_counters(a, b);
    let (t0, cpu0) = ph.start();
    let mut free_at = t0;
    for (i, m) in msgs.iter().cycle().enumerate() {
        let start = Instant::now();
        if start.duration_since(t0) >= run || tr.is_full() {
            break;
        }
        let i = i as u64;
        ph.tally.attempted += 1;
        ph.lag_us.push(us(start - free_at));
        ph.outstanding.push(0.0);
        let root = tr.begin("e2e.round_trip", NO_SPAN, i);
        let post = Instant::now();
        let rb = b.recv(conn);
        let ra = a.recv(conn);
        let sent = Instant::now();
        let sa = a.send(conn, vec![pay.payload(m)]);
        let there = Instant::now();
        tr.record("transport.post_recv", post, sent, root, i);
        tr.record("transport.send", sent, there, root, i);
        ph.post_ns += (sent - post).as_nanos() as u64;
        ph.post_calls += 2;
        ph.send_ns += (there - sent).as_nanos() as u64;
        ph.send_calls += 1;
        let Some(got) = tr.span("transport.wait", root, i, || rb.wait(WAIT_LIMIT)) else {
            ph.tally.timeouts += 1;
            break;
        };
        if !tr.span("bench.check", root, i, || pay.matches(m, &got.segments)) {
            ph.tally.mismatches += 1;
            break;
        }
        let echo = Instant::now();
        let sb = b.send(conn, got.segments);
        let back = Instant::now();
        tr.record("transport.send", echo, back, root, i);
        ph.send_ns += (back - echo).as_nanos() as u64;
        ph.send_calls += 1;
        let Some(ret) = tr.span("transport.wait", root, i, || ra.wait(WAIT_LIMIT)) else {
            ph.tally.timeouts += 1;
            break;
        };
        let done = Instant::now();
        if !tr.span("bench.check", root, i, || pay.matches(m, &ret.segments)) {
            ph.tally.mismatches += 1;
            break;
        }
        tr.end(root);
        ph.complete(t0, done, done - start, 2, 2 * m.size as u64);
        // Both sends completed locally before their peers could deliver.
        if !sa.wait(WAIT_LIMIT) || !sb.wait(WAIT_LIMIT) {
            ph.tally.timeouts += 1;
            break;
        }
        free_at = Instant::now();
    }
    ph.finish(t0, cpu0);
    ph.counters = tcp_counters(a, b).since(&c0);
    ph.tally.endpoint_errors = ph.counters.errors;
    ph
}

struct Pending {
    idx: u64,
    msg: Msg,
    recv: tcp::RecvHandle,
    send: tcp::SendHandle,
    at: Instant,
    root: u32,
}

/// Closed window of `window` one-way messages from `a` to `b`: a new
/// message is submitted as soon as the oldest one is delivered. Latency
/// runs from submission to the moment the receiver sees the delivery.
pub fn stream(
    a: &tcp::Endpoint,
    b: &tcp::Endpoint,
    msgs: &[Msg],
    pay: &Payloads,
    window: usize,
    run: Duration,
    tr: &mut Tracer,
) -> Phase {
    let conn = a.conns()[0];
    let mut ph = Phase::default();
    let c0 = tcp_counters(a, b);
    let (t0, cpu0) = ph.start();
    let mut next = msgs.iter().cycle().enumerate();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut free_at = t0;
    loop {
        while inflight.len() < window && t0.elapsed() < run && !tr.is_full() {
            let (i, m) = next.next().expect("cycle never ends");
            let i = i as u64;
            ph.tally.attempted += 1;
            let root = tr.begin("e2e.message", NO_SPAN, i);
            let post = Instant::now();
            ph.lag_us.push(us(post - free_at));
            ph.outstanding.push(inflight.len() as f64);
            let recv = b.recv(conn);
            let sent = Instant::now();
            let send = a.send(conn, vec![pay.payload(m)]);
            let there = Instant::now();
            tr.record("transport.post_recv", post, sent, root, i);
            tr.record("transport.send", sent, there, root, i);
            ph.post_ns += (sent - post).as_nanos() as u64;
            ph.post_calls += 1;
            ph.send_ns += (there - sent).as_nanos() as u64;
            ph.send_calls += 1;
            inflight.push_back(Pending {
                idx: i,
                msg: *m,
                recv,
                send,
                at: post,
                root,
            });
        }
        let Some(p) = inflight.pop_front() else {
            break;
        };
        let Some(got) = tr.span("transport.wait", p.root, p.idx, || p.recv.wait(WAIT_LIMIT)) else {
            ph.tally.timeouts += 1 + inflight.len() as u64;
            break;
        };
        let done = Instant::now();
        free_at = done;
        if !tr.span("bench.check", p.root, p.idx, || {
            pay.matches(&p.msg, &got.segments)
        }) {
            ph.tally.mismatches += 1;
            break;
        }
        if !p.send.wait(WAIT_LIMIT) {
            ph.tally.timeouts += 1;
            break;
        }
        tr.end(p.root);
        ph.complete(t0, done, done - p.at, 1, p.msg.size as u64);
    }
    ph.finish(t0, cpu0);
    ph.counters = tcp_counters(a, b).since(&c0);
    ph.tally.endpoint_errors = ph.counters.errors;
    ph
}

struct OpenPending {
    idx: u64,
    msg: Msg,
    recv: mem::RecvHandle,
    send: mem::SendHandle,
    due: Instant,
    root: u32,
}

/// Open loop: every message of `schedule` is submitted at its due time
/// on its channel, whether or not earlier ones were delivered. Latency
/// runs from the due time, so a late generator or a stalled submission
/// counts against the library, not in its favour. Refused submissions
/// are failures.
pub fn open_loop(
    a: &mem::Endpoint,
    b: &mem::Endpoint,
    schedule: &[Msg],
    pay: &Payloads,
    tr: &mut Tracer,
) -> Phase {
    let conns = a.conns().to_vec();
    let mut ph = Phase::default();
    let c0 = mem_counters(a, b);
    let (t0, cpu0) = ph.start();
    let mut heads: Vec<VecDeque<OpenPending>> = (0..conns.len()).map(|_| VecDeque::new()).collect();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let mut last_progress = t0;
    'run: loop {
        let now = Instant::now();
        // Submit everything that is due.
        while let Some(m) = schedule.get(next).filter(|_| !tr.is_full()) {
            let due = t0 + Duration::from_nanos(m.due_ns);
            if due > now {
                break;
            }
            let i = next as u64;
            next += 1;
            ph.tally.attempted += 1;
            let root = tr.begin_at("e2e.message", due, NO_SPAN, i);
            let post = Instant::now();
            ph.lag_us.push(us(post.saturating_duration_since(due)));
            ph.outstanding.push(outstanding as f64);
            let recv = b.recv(conns[m.chan]);
            let sent = Instant::now();
            let res = a.try_send(conns[m.chan], vec![pay.payload(m)]);
            let there = Instant::now();
            tr.record("transport.post_recv", post, sent, root, i);
            tr.record("transport.send", sent, there, root, i);
            ph.post_ns += (sent - post).as_nanos() as u64;
            ph.post_calls += 1;
            ph.send_ns += (there - sent).as_nanos() as u64;
            ph.send_calls += 1;
            match res {
                Ok(send) => {
                    heads[m.chan].push_back(OpenPending {
                        idx: i,
                        msg: *m,
                        recv,
                        send,
                        due,
                        root,
                    });
                    outstanding += 1;
                }
                Err(SubmitError::WouldBlock | SubmitError::Shutdown) => {
                    ph.tally.refused += 1;
                    tr.end(root);
                    break 'run;
                }
            }
        }
        ph.mark(t0, now);
        // Collect every delivery that is ready, in channel order.
        for q in heads.iter_mut() {
            while let Some(p) = q.front() {
                let Some(got) = p.recv.wait(Duration::ZERO) else {
                    break;
                };
                let done = Instant::now();
                let p = q.pop_front().expect("front exists");
                outstanding -= 1;
                last_progress = done;
                if !complete(&mut ph, tr, pay, p, got.segments, t0, done) {
                    break 'run;
                }
            }
        }
        let now = Instant::now();
        if (next == schedule.len() || tr.is_full()) && outstanding == 0 {
            break;
        }
        if outstanding > 0 && now - last_progress > WAIT_LIMIT {
            ph.tally.timeouts += outstanding as u64;
            break;
        }
        // Block on the oldest outstanding delivery until the next due
        // time, at most `POLL_CAP`.
        let until_due = schedule
            .get(next)
            .map_or(POLL_CAP, |m| {
                (t0 + Duration::from_nanos(m.due_ns)).saturating_duration_since(now)
            })
            .min(POLL_CAP);
        let oldest = (0..heads.len())
            .filter(|&c| !heads[c].is_empty())
            .min_by_key(|&c| heads[c][0].due);
        match oldest {
            Some(c) => {
                let p = &heads[c][0];
                let id = tr.begin("transport.wait", p.root, p.idx);
                let got = p.recv.wait(until_due);
                tr.end(id);
                if let Some(got) = got {
                    let done = Instant::now();
                    let p = heads[c].pop_front().expect("front exists");
                    outstanding -= 1;
                    last_progress = done;
                    if !complete(&mut ph, tr, pay, p, got.segments, t0, done) {
                        break 'run;
                    }
                }
            }
            None if !until_due.is_zero() => std::thread::sleep(until_due),
            None => {}
        }
    }
    ph.finish(t0, cpu0);
    ph.counters = mem_counters(a, b).since(&c0);
    ph.tally.endpoint_errors = ph.counters.errors;
    ph
}

/// Check and record one open-loop delivery; false on a failure that ends
/// the phase.
fn complete(
    ph: &mut Phase,
    tr: &mut Tracer,
    pay: &Payloads,
    p: OpenPending,
    segments: Vec<bytes::Bytes>,
    t0: Instant,
    done: Instant,
) -> bool {
    if !tr.span("bench.check", p.root, p.idx, || {
        pay.matches(&p.msg, &segments)
    }) {
        ph.tally.mismatches += 1;
        return false;
    }
    if !p.send.wait(WAIT_LIMIT) {
        ph.tally.timeouts += 1;
        return false;
    }
    tr.end(p.root);
    ph.complete(t0, done, done - p.due, 1, p.msg.size as u64);
    true
}
