//! The `core.engine` and `wire` layers, timed call by call: the run's
//! own seeded messages replayed through an in-process `Engine` pair that
//! hands frames straight from one engine to the other (no transport, no
//! threads), timing every public call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nmad_core::engine::Engine;
use nmad_core::EngineConfig;
use nmad_model::{Platform, RailId};
use nmad_wire::{checksum, ConnId};

use crate::gen::{Msg, Payloads};
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// How a workload issues its messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `a` sends, `b` echoes the delivered segments back.
    PingPong,
    /// `a` sends this many messages, then they are all delivered.
    Window(usize),
}

/// Time spent in one public call, summed over the replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTime {
    /// Total ns.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

/// What the replay measured.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Messages delivered (an echo counts as a message).
    pub msgs: u64,
    /// Messages whose delivered bytes differed from the seeded payload.
    pub mismatches: u64,
    /// `Engine::submit_send`.
    pub submit: CallTime,
    /// `Engine::post_recv`.
    pub post_recv: CallTime,
    /// `Engine::next_tx`, including calls that returned no frame.
    pub next_tx: CallTime,
    /// `Engine::on_tx_done`.
    pub on_tx_done: CallTime,
    /// `Engine::on_frame`.
    pub on_frame: CallTime,
    /// `Engine::try_recv`, including polls that found nothing.
    pub try_recv: CallTime,
    /// `checksum::update` over every frame's parts.
    pub crc: CallTime,
    /// Bytes the checksum covered.
    pub crc_bytes: u64,
    /// `PacketFrame::decode` over every frame.
    pub decode: CallTime,
}

impl Replay {
    /// Engine CPU per delivered message, ns: every timed engine call.
    pub fn engine_ns_per_msg(&self) -> f64 {
        let total = self.submit.ns
            + self.post_recv.ns
            + self.next_tx.ns
            + self.on_tx_done.ns
            + self.on_frame.ns
            + self.try_recv.ns;
        total as f64 / self.msgs.max(1) as f64
    }

    /// One call's ns per delivered message.
    pub fn per_msg(&self, c: CallTime) -> f64 {
        c.ns as f64 / self.msgs.max(1) as f64
    }
}

/// Two engines configured as the live run's, with the same channels
/// open on both.
pub struct Pair {
    a: Engine,
    b: Engine,
    conns: Vec<ConnId>,
}

fn timed<T>(
    tr: &mut Tracer,
    acc: &mut CallTime,
    name: &'static str,
    parent: SpanId,
    msg: u64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    acc.ns += (t1 - t0).as_nanos() as u64;
    acc.calls += 1;
    tr.record(name, t0, t1, parent, msg);
    out
}

impl Pair {
    /// Move frames both ways until neither engine has anything to send.
    fn pump(&mut self, r: &mut Replay, tr: &mut Tracer, root: SpanId, msg: u64) {
        let rails = self.a.rails().len();
        for _ in 0..1_000_000 {
            let mut progressed = false;
            for dir in 0..2 {
                let (tx, rx) = if dir == 0 {
                    (&mut self.a, &mut self.b)
                } else {
                    (&mut self.b, &mut self.a)
                };
                for rail in (0..rails).map(RailId) {
                    let d = timed(tr, &mut r.next_tx, "core.next_tx", root, msg, || {
                        tx.next_tx(rail).expect("engine invariant")
                    });
                    let Some(d) = d else { continue };
                    progressed = true;
                    timed(tr, &mut r.crc, "wire.checksum", root, msg, || {
                        let mut st = checksum::crc32_init();
                        for part in d.frame.parts() {
                            st = checksum::update(st, part);
                        }
                        black_box(st)
                    });
                    r.crc_bytes += d.frame.wire_len() as u64;
                    timed(tr, &mut r.decode, "wire.decode", root, msg, || {
                        black_box(d.frame.decode().is_ok())
                    });
                    timed(tr, &mut r.on_tx_done, "core.on_tx_done", root, msg, || {
                        tx.on_tx_done(rail, d.token).expect("token issued here")
                    });
                    timed(tr, &mut r.on_frame, "core.on_frame", root, msg, || {
                        rx.on_frame(rail, &d.frame).expect("clean frame")
                    });
                }
            }
            if !progressed {
                return;
            }
        }
        panic!("engines did not quiesce");
    }

    /// Engines as `engine` builds them on `platform`, `conns` channels
    /// each.
    pub fn new(engine: &EngineConfig, platform: &Platform, conns: usize) -> Self {
        let mk = || {
            let mut e = Engine::new(engine.clone(), platform.rails.clone(), vec![]);
            let ids: Vec<ConnId> = (0..conns).map(|_| e.conn_open()).collect();
            (e, ids)
        };
        let ((a, conns), (b, _)) = (mk(), mk());
        Pair { a, b, conns }
    }

    /// Replay `msgs` (in order, cycling) for about `budget`, or until the
    /// tracer is full.
    pub fn replay(
        &mut self,
        msgs: &[Msg],
        pay: &Payloads,
        shape: Shape,
        budget: Duration,
        tr: &mut Tracer,
    ) -> Replay {
        let p = self;
        let mut r = Replay::default();
        let t0 = Instant::now();
        let batch = match shape {
            Shape::PingPong => 1,
            Shape::Window(w) => w,
        };
        let mut it = msgs.iter().enumerate().cycle();
        // Stopping once the tracer is full keeps the per-call totals and the
        // spans over the same messages (all but the last group's).
        while t0.elapsed() < budget && !tr.is_full() {
            let group: Vec<(usize, &Msg)> = it.by_ref().take(batch).collect();
            let root = tr.begin("bench.replay", NO_SPAN, group[0].0 as u64);
            let mut recvs = Vec::with_capacity(group.len());
            for &(i, m) in &group {
                let conn = p.conns[m.chan];
                let rid = timed(
                    tr,
                    &mut r.post_recv,
                    "core.post_recv",
                    root,
                    i as u64,
                    || p.b.post_recv(conn),
                );
                timed(
                    tr,
                    &mut r.submit,
                    "core.submit_send",
                    root,
                    i as u64,
                    || p.a.submit_send(conn, vec![pay.payload(m)]),
                );
                recvs.push(rid);
            }
            let first = group[0].0 as u64;
            p.pump(&mut r, tr, root, first);
            for (&(i, m), rid) in group.iter().zip(recvs) {
                let got = timed(tr, &mut r.try_recv, "core.try_recv", root, i as u64, || {
                    p.b.try_recv(rid)
                });
                let Some(got) = got else {
                    r.mismatches += 1;
                    continue;
                };
                r.msgs += 1;
                if !pay.matches(m, &got.segments) {
                    r.mismatches += 1;
                }
                if shape == Shape::PingPong {
                    let conn = p.conns[m.chan];
                    let back = timed(
                        tr,
                        &mut r.post_recv,
                        "core.post_recv",
                        root,
                        i as u64,
                        || p.a.post_recv(conn),
                    );
                    timed(
                        tr,
                        &mut r.submit,
                        "core.submit_send",
                        root,
                        i as u64,
                        || p.b.submit_send(conn, got.segments),
                    );
                    p.pump(&mut r, tr, root, i as u64);
                    match timed(tr, &mut r.try_recv, "core.try_recv", root, i as u64, || {
                        p.a.try_recv(back)
                    }) {
                        Some(ret) if pay.matches(m, &ret.segments) => r.msgs += 1,
                        _ => r.mismatches += 1,
                    }
                }
            }
            tr.end(root);
        }
        r
    }
}
