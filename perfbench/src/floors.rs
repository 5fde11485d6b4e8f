//! Raw-transport floors: what a loopback socket and a thread hand-off
//! cost at the workload's own sizes, with no library in between.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::unbounded;

use crate::gen::{Msg, Payloads};
use crate::trace::{Tracer, NO_SPAN};

/// Round trips a floor measures at least, whatever its budget.
const MIN_ROUND_TRIPS: usize = 20;

/// Mean round-trip time and the round trips behind it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Floor {
    /// Mean round trip, µs.
    pub rtt_us: f64,
    /// Round trips measured.
    pub round_trips: usize,
}

fn echo(mut s: TcpStream) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        let mut len = [0u8; 4];
        s.read_exact(&mut len)?;
        let n = u32::from_le_bytes(len) as usize;
        if n == 0 {
            return Ok(());
        }
        buf.resize(n, 0);
        s.read_exact(&mut buf)?;
        s.write_all(&len)?;
        s.write_all(&buf)?;
    }
}

/// Length-prefixed ping-pong over one `std::net` loopback connection,
/// echoed by a second thread, cycling through `msgs` for about `budget`.
pub fn tcp_rtt(
    msgs: &[Msg],
    pay: &Payloads,
    budget: Duration,
    tr: &mut Tracer,
) -> std::io::Result<Floor> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        echo(s)
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let mut back = Vec::new();
    let t0 = Instant::now();
    let (mut total, mut n) = (Duration::ZERO, 0usize);
    for (i, m) in msgs.iter().cycle().enumerate() {
        if n >= MIN_ROUND_TRIPS && t0.elapsed() >= budget {
            break;
        }
        let body = pay.payload(m);
        let start = Instant::now();
        c.write_all(&(m.size as u32).to_le_bytes())?;
        c.write_all(&body)?;
        let mut len = [0u8; 4];
        c.read_exact(&mut len)?;
        back.resize(u32::from_le_bytes(len) as usize, 0);
        c.read_exact(&mut back)?;
        let end = Instant::now();
        tr.record("floor.tcp_rtt", start, end, NO_SPAN, i as u64);
        if back.as_slice() != body.as_slice() {
            return Err(std::io::Error::other("floor echo differs"));
        }
        total += end - start;
        n += 1;
    }
    c.write_all(&0u32.to_le_bytes())?;
    server
        .join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    Ok(Floor {
        rtt_us: total.as_secs_f64() * 1e6 / n as f64,
        round_trips: n,
    })
}

/// Ping-pong of refcounted payloads between two threads over a pair of
/// `crossbeam_channel`s (the mem fabric's hand-off, with nothing else).
pub fn chan_rtt(msgs: &[Msg], pay: &Payloads, budget: Duration, tr: &mut Tracer) -> Floor {
    let (to_peer, from_us) = unbounded::<Option<Bytes>>();
    let (to_us, from_peer) = unbounded::<Bytes>();
    let peer = std::thread::spawn(move || {
        while let Ok(Some(b)) = from_us.recv() {
            if to_us.send(b).is_err() {
                return;
            }
        }
    });
    let t0 = Instant::now();
    let (mut total, mut n) = (Duration::ZERO, 0usize);
    for (i, m) in msgs.iter().cycle().enumerate() {
        if n >= MIN_ROUND_TRIPS && t0.elapsed() >= budget {
            break;
        }
        let body = pay.payload(m);
        let start = Instant::now();
        to_peer.send(Some(body)).expect("peer thread alive");
        let back = from_peer.recv().expect("peer thread alive");
        let end = Instant::now();
        tr.record("floor.chan_rtt", start, end, NO_SPAN, i as u64);
        assert_eq!(back.len(), m.size, "channel returned another payload");
        total += end - start;
        n += 1;
    }
    to_peer.send(None).expect("peer thread alive");
    peer.join().expect("peer thread");
    Floor {
        rtt_us: total.as_secs_f64() * 1e6 / n as f64,
        round_trips: n,
    }
}
