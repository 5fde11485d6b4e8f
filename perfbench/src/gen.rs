//! Seeded inputs: payload bytes, message sizes and arrival schedules.
//!
//! Everything here is a pure function of the run's seed. The library
//! receives only what these functions produce, and the checker derives
//! the expected bytes of every delivery from the same seed.

use std::time::Duration;

use bytes::Bytes;
use nmad_bench::loadgen::{ArrivalSampler, Arrivals, BoundedPareto};
use nmad_sim::Xoshiro256StarStar;

/// Separate streams for separate purposes, so that adding a draw to one
/// never shifts another.
const POOL_STREAM: u64 = 0x5EED_0001;
const SIZE_STREAM: u64 = 0x5EED_0002;
const CHAN_STREAM: u64 = 0x5EED_0100;

fn rng(seed: u64, stream: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One message of a workload: which channel, which bytes, and when it
/// is due (open loop) relative to the start of the phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Logical channel index.
    pub chan: usize,
    /// Payload length, bytes.
    pub size: usize,
    /// Offset of the payload in the seeded pool.
    pub off: usize,
    /// Due time from the start of the phase, ns (0 for a closed loop).
    pub due_ns: u64,
}

/// The seeded byte pool every payload is a slice of.
pub struct Payloads {
    pool: Bytes,
}

impl Payloads {
    /// A pool of `len` seeded bytes.
    pub fn new(seed: u64, len: usize) -> Self {
        let mut buf = vec![0u8; len];
        rng(seed, POOL_STREAM).fill_bytes(&mut buf);
        Payloads {
            pool: Bytes::from(buf),
        }
    }

    /// Pool length, bytes.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True for an empty pool.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// The payload of `m`, shared with the pool (no copy).
    pub fn payload(&self, m: &Msg) -> Bytes {
        self.pool.slice(m.off..m.off + m.size)
    }

    /// True when `segments`, concatenated, are exactly the payload of `m`.
    pub fn matches(&self, m: &Msg, segments: &[Bytes]) -> bool {
        let want = &self.pool.as_slice()[m.off..m.off + m.size];
        let mut at = 0;
        for s in segments {
            let end = at + s.len();
            if end > want.len() || s.as_slice() != &want[at..end] {
                return false;
            }
            at = end;
        }
        at == want.len()
    }
}

/// Log-uniform integer in `[lo, hi]`.
pub fn log_uniform(rng: &mut Xoshiro256StarStar, lo: usize, hi: usize) -> usize {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    ((l + rng.next_f64() * (h - l)).exp().round() as usize).clamp(lo, hi)
}

fn place(rng: &mut Xoshiro256StarStar, size: usize, pool_len: usize) -> usize {
    assert!(size <= pool_len, "message of {size} B exceeds the pool");
    rng.range_usize(0, pool_len - size + 1)
}

/// `n` closed-loop messages on channel 0, sizes log-uniform in
/// `[lo, hi]`.
pub fn closed_sequence(seed: u64, n: usize, lo: usize, hi: usize, pool_len: usize) -> Vec<Msg> {
    let mut r = rng(seed, SIZE_STREAM);
    (0..n)
        .map(|_| {
            let size = log_uniform(&mut r, lo, hi);
            Msg {
                chan: 0,
                size,
                off: place(&mut r, size, pool_len),
                due_ns: 0,
            }
        })
        .collect()
}

/// Open-loop schedule over `horizon`: each of `channels` channels gets an
/// independent Poisson stream at `rate_hz / channels` with sizes drawn
/// from `sizes`; the streams are merged in due order.
pub fn open_schedule(
    seed: u64,
    channels: usize,
    rate_hz: f64,
    sizes: BoundedPareto,
    horizon: Duration,
    pool_len: usize,
) -> Vec<Msg> {
    let horizon_ns = horizon.as_nanos() as u64;
    let mut all = Vec::new();
    for chan in 0..channels {
        let mut r = rng(seed, CHAN_STREAM + chan as u64);
        let mut arrivals = ArrivalSampler::new(
            Arrivals::Poisson {
                rate_hz: rate_hz / channels as f64,
            },
            &mut r,
        );
        let mut t = 0u64;
        loop {
            t += arrivals.next_gap(&mut r).as_nanos() as u64;
            if t >= horizon_ns {
                break;
            }
            let size = sizes.sample(&mut r) as usize;
            all.push(Msg {
                chan,
                size,
                off: place(&mut r, size, pool_len),
                due_ns: t,
            });
        }
    }
    // Stable sort: equal due times keep channel order, so the schedule
    // is a pure function of the seed.
    all.sort_by_key(|m| m.due_ns);
    all
}

/// Mean of a bounded Pareto distribution (for converting an offered byte
/// rate into an arrival rate).
pub fn bounded_pareto_mean(p: &BoundedPareto) -> f64 {
    let (l, h, a) = (p.min as f64, p.max as f64, p.alpha);
    let norm = 1.0 - (l / h).powf(a);
    if (a - 1.0).abs() < 1e-12 {
        l * (h / l).ln() / norm
    } else {
        a * l.powf(a) * (h.powf(1.0 - a) - l.powf(1.0 - a)) / ((1.0 - a) * norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            closed_sequence(7, 500, 8, 4096, 1 << 16),
            closed_sequence(7, 500, 8, 4096, 1 << 16)
        );
        assert_ne!(
            closed_sequence(7, 500, 8, 4096, 1 << 16),
            closed_sequence(8, 500, 8, 4096, 1 << 16)
        );
        let sizes = BoundedPareto::new(64, 1 << 20, 0.3);
        let a = open_schedule(3, 4, 2000.0, sizes, Duration::from_secs(1), 2 << 20);
        let b = open_schedule(3, 4, 2000.0, sizes, Duration::from_secs(1), 2 << 20);
        assert_eq!(a, b);
        assert_ne!(
            a,
            open_schedule(4, 4, 2000.0, sizes, Duration::from_secs(1), 2 << 20)
        );
        let pa = Payloads::new(11, 4096);
        let pb = Payloads::new(11, 4096);
        assert_eq!(pa.pool, pb.pool);
        assert_ne!(pa.pool, Payloads::new(12, 4096).pool);
    }

    #[test]
    fn closed_sizes_stay_in_range_and_spread() {
        let seq = closed_sequence(1, 4000, 8, 4096, 1 << 16);
        assert!(seq.iter().all(|m| (8..=4096).contains(&m.size)));
        assert!(seq.iter().all(|m| m.off + m.size <= 1 << 16));
        // Log-uniform: about half the draws fall below the geometric
        // midpoint (181 B).
        let below = seq.iter().filter(|m| m.size < 181).count();
        assert!((1600..2400).contains(&below), "{below}");
    }

    #[test]
    fn open_schedule_is_ordered_and_near_its_rate() {
        let sizes = BoundedPareto::new(64, 1 << 20, 0.3);
        let s = open_schedule(9, 4, 4000.0, sizes, Duration::from_secs(2), 2 << 20);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!((7200..8800).contains(&s.len()), "{}", s.len());
        assert!((0..4).all(|c| s.iter().any(|m| m.chan == c)));
        assert!(s.iter().all(|m| (64..=1 << 20).contains(&m.size)));
    }

    #[test]
    fn payload_check_detects_any_difference() {
        let p = Payloads::new(5, 1 << 12);
        let m = Msg {
            chan: 0,
            size: 100,
            off: 17,
            due_ns: 0,
        };
        let body = p.payload(&m);
        assert!(p.matches(&m, std::slice::from_ref(&body)));
        assert!(p.matches(&m, &[body.slice(..40), body.slice(40..)]));
        assert!(!p.matches(&m, &[body.slice(..99)]));
        let shifted = Msg { off: 18, ..m };
        assert!(!p.matches(&shifted, std::slice::from_ref(&body)));
        let mut flipped = body.to_vec();
        flipped[50] ^= 1;
        assert!(!p.matches(&m, &[Bytes::from(flipped)]));
        assert!(!p.matches(&m, &[body.clone(), Bytes::from(vec![0u8])]));
    }

    #[test]
    fn pareto_mean_matches_sampling() {
        let sizes = BoundedPareto::new(64, 1 << 20, 0.3);
        let mut r = Xoshiro256StarStar::new(1);
        let n = 200_000;
        let mean = (0..n).map(|_| sizes.sample(&mut r) as f64).sum::<f64>() / n as f64;
        let want = bounded_pareto_mean(&sizes);
        assert!((mean / want - 1.0).abs() < 0.05, "{mean} vs {want}");
    }
}
