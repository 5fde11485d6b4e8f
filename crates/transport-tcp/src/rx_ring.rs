//! The TCP receive path shared by every runtime.
//!
//! A rail is a byte stream of frames, each behind a `u32` little-endian
//! length prefix. An [`RxRing`] reads the socket into a *block* and
//! carves after every read: the block is frozen once and the complete
//! frames leave as [`Bytes::slice`]s of it, with no copy. A frame of at
//! least a read chunk is read into a block that fits it, up to exactly
//! its last byte, so it leaves nothing behind. The copies that remain
//! are small, and all are counted in [`RxCounts::carry_bytes`]: a partial
//! frame at the end of a read (at most one read) moves into the next
//! block, and complete frames of at most [`COPY_OUT_MAX`] bytes in all,
//! or those ahead of a larger partial frame that fits in place, are
//! copied out of a block that keeps filling.
//!
//! Frozen blocks are retired to a list. A retired block serves a later
//! read only once [`Bytes::is_unique`] shows that every frame slice of
//! it has dropped; until then the engine, the reassembler or the
//! application may still read it. Recycling is what makes the design
//! pay: without it every frame would get a fresh multi-MiB block, and
//! the page faults of touching new memory cost more than the copies
//! saved. A ring holds at most [`BLOCKS_MAX`] blocks: when all of them
//! are pinned by frames still in use, it copies frames out of its
//! current block instead of freezing it, so its memory stays bounded
//! however long the consumers keep their messages. Blocks come from,
//! and finally go back to, a [`BlockSource`]: the heap for the serial
//! and thread-per-rail runtimes, the worker's pool [`Magazine`] in the
//! reactor.

use std::io::{self, ErrorKind, Read};

use bytes::Bytes;
use nmad_core::Magazine;
use nmad_wire::PacketFrame;

use crate::{LEN_PREFIX, MAX_FRAME, READ_CHUNK, READ_CHUNK_MAX};

/// Blocks a ring holds at most, current and retired together: room for
/// the blocks a window of bulk messages pins at once. Only a frame
/// larger than every free block can take the ring past it, briefly.
pub(crate) const BLOCKS_MAX: usize = 16;
/// Smallest block a ring keeps: room for a 1 MiB message in one frame
/// plus headers, so one size class serves nearly every bulk frame
/// (larger ones round up to a power of two). Blocks are zero-filled
/// lazily, only as far as reads reach, so a large block costs no more
/// than the bytes it carries. Only a ring's first block, taken by its
/// first (often idle) read, is sized to that read, and it goes back to
/// the source once retired: a new endpoint then sets up as cheaply as
/// a small-message one runs.
const BLOCK_MIN: usize = 8 * READ_CHUNK_MAX;
/// Complete frames adding up to at most this many bytes are copied out
/// of the block instead of freezing it: cheaper than a block switch, and
/// a retained small message then pins no block.
const COPY_OUT_MAX: usize = 4096;

/// Where an [`RxRing`] gets fresh blocks and returns the ones it drops.
pub(crate) trait BlockSource {
    /// A block with capacity for at least `min` bytes. Its length is the
    /// part already zero-filled; the ring fills the rest lazily.
    fn take(&mut self, min: usize) -> Vec<u8>;
    /// A block leaving the ring. Frame slices may still share it.
    fn give(&mut self, block: Bytes);
}

/// Plain heap blocks, dropped on the way out.
pub(crate) struct Heap;

impl BlockSource for Heap {
    fn take(&mut self, min: usize) -> Vec<u8> {
        // Not `vec![0; min]`: once the allocator serves blocks of this
        // size from its heap rather than fresh pages, zeroing a whole
        // block would cost every new ring (endpoint setup) a full memset.
        Vec::with_capacity(min)
    }

    fn give(&mut self, _block: Bytes) {}
}

impl BlockSource for Magazine {
    fn take(&mut self, min: usize) -> Vec<u8> {
        Magazine::take(self, min).into()
    }

    fn give(&mut self, block: Bytes) {
        // A still-shared block is a counted reclaim miss, which keeps
        // the pool's custody ledger exact.
        self.reclaim(block);
    }
}

/// Counters a ring accumulates between [`RxRing::take_counts`] calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RxCounts {
    /// Stream bytes the ring copied: partial frames carried into a
    /// following block and small frames copied out of a filling one.
    pub carry_bytes: u64,
    /// Blocks taken from the source because no retired block was free
    /// (at most [`BLOCKS_MAX`] once the ring is warm).
    pub block_takes: u64,
    /// Blocks the source returned short, which the ring had to grow
    /// (reallocate) itself. Zero by construction; the reactor's
    /// allocation tripwire.
    pub grown_blocks: u64,
}

/// A frozen block and the capacity of its allocation.
struct Retired {
    block: Bytes,
    capacity: usize,
}

/// One rail's receive state: the block being filled, the carried tail
/// of the last carve and the retired blocks awaiting reuse.
pub(crate) struct RxRing {
    /// Block being filled; no capacity when the ring holds none (one is
    /// taken lazily by the next read). Its length is the part zero-filled
    /// so far: reads only ever land in initialised bytes.
    block: Vec<u8>,
    /// Start of the stream bytes in `block` not yet carved.
    start: usize,
    /// End of the stream bytes in `block`.
    filled: usize,
    /// Partial frame left by the last freeze while no block is held: a
    /// slice of the retired block, copied at the next read.
    tail: Bytes,
    /// Adaptive read size: doubles while reads fill it, up to
    /// [`READ_CHUNK_MAX`], and drops back once a read comes up short.
    chunk: usize,
    retired: Vec<Retired>,
    /// Blocks taken from the source and not given back.
    held: usize,
    /// Whether the ring has taken its first block (the only one sized
    /// below [`BLOCK_MIN`]).
    started: bool,
    /// Set by an out-of-bound length prefix: the stream cannot be framed
    /// any more, so every later read fails too.
    poisoned: bool,
    counts: RxCounts,
}

impl Default for RxRing {
    fn default() -> Self {
        RxRing {
            block: Vec::new(),
            start: 0,
            filled: 0,
            tail: Bytes::new(),
            chunk: READ_CHUNK,
            retired: Vec::new(),
            held: 0,
            started: false,
            poisoned: false,
            counts: RxCounts::default(),
        }
    }
}

fn frame_len(prefix: &[u8]) -> usize {
    let prefix = prefix[..LEN_PREFIX]
        .try_into()
        .expect("slice of LEN_PREFIX bytes");
    u32::from_le_bytes(prefix) as usize
}

fn oversized() -> io::Error {
    io::Error::new(ErrorKind::InvalidData, "frame length exceeds bound")
}

impl RxRing {
    /// One `read` from `src`, then carve every frame it completed into
    /// `out`. Returns the bytes read: 0 means end of stream. Read errors
    /// (`WouldBlock`, timeouts, …) pass through with nothing lost. A
    /// length prefix above `MAX_FRAME` yields `InvalidData` after the
    /// frames before it, and no frame is ever carved after it.
    pub(crate) fn read_from(
        &mut self,
        src: &mut impl Read,
        source: &mut impl BlockSource,
        out: &mut Vec<PacketFrame>,
    ) -> io::Result<usize> {
        if self.poisoned {
            return Err(oversized());
        }
        let pending = self.pending();
        // A pending prefix was checked against `MAX_FRAME` by the carve
        // that left it, so it bounds the block size asked for below.
        let frame = (pending.len() >= LEN_PREFIX).then(|| LEN_PREFIX + frame_len(pending));
        // Read a chunk, or straight to the end of a pending frame of at
        // least a chunk: a large frame then completes exactly at a read
        // boundary and leaves no tail to carry.
        let want = match frame {
            Some(frame) if frame >= LEN_PREFIX + READ_CHUNK => frame,
            _ => pending.len() + self.chunk,
        };
        if self.block.capacity() - self.start < want {
            self.switch_block(want, frame.is_some(), source);
        }
        let end = self.start + want;
        if self.block.len() < end {
            // Within capacity: zero-fills, never reallocates.
            self.block.resize(end, 0);
        }
        let n = src.read(&mut self.block[self.filled..end])?;
        if n == 0 {
            return Ok(0);
        }
        if end - self.filled == self.chunk {
            self.chunk = if n == self.chunk {
                (self.chunk * 2).min(READ_CHUNK_MAX)
            } else {
                READ_CHUNK
            };
        }
        self.filled += n;
        self.carve(source, out)?;
        Ok(n)
    }

    /// Bytes read but not yet carved.
    fn pending(&self) -> &[u8] {
        if self.block.capacity() == 0 {
            &self.tail
        } else {
            &self.block[self.start..self.filled]
        }
    }

    /// Move the pending bytes to the front of a block with room for at
    /// least `min` bytes: the current block when it is that large,
    /// else a free retired or fresh one (`sized`: `min` is the pending
    /// frame's exact need, so the tightest free block fits best).
    fn switch_block(&mut self, min: usize, sized: bool, source: &mut impl BlockSource) {
        let len = self.pending().len();
        self.counts.carry_bytes += len as u64;
        if self.block.capacity() >= min {
            self.block.copy_within(self.start..self.filled, 0);
        } else {
            let mut fresh = self.acquire(min, sized, source);
            // A recycled block keeps its zero-filled length; only a
            // shorter one is rebuilt.
            if fresh.len() < len {
                fresh.clear();
                fresh.extend_from_slice(self.pending());
            } else {
                fresh[..len].copy_from_slice(self.pending());
            }
            self.tail = Bytes::new();
            let old = std::mem::replace(&mut self.block, fresh);
            if old.capacity() > 0 {
                let capacity = old.capacity();
                self.retire(Bytes::from(old), capacity, source);
            }
        }
        self.start = 0;
        self.filled = len;
    }

    /// Hand out every complete frame and keep the partial remainder,
    /// copying whichever side is smaller. Small frames are copied out
    /// and the block keeps filling, as does a large partial frame that
    /// fits the block in place. Otherwise the block is frozen, frames
    /// leave as slices of it and the remainder becomes the tail that
    /// the next read carries into a new block — unless every block the
    /// ring may hold is pinned, in which case the frames are copied out
    /// too.
    fn carve(
        &mut self,
        source: &mut impl BlockSource,
        out: &mut Vec<PacketFrame>,
    ) -> io::Result<()> {
        let mut cut = self.start;
        let mut bad = false;
        while self.filled - cut >= LEN_PREFIX {
            let len = frame_len(&self.block[cut..]);
            if len > MAX_FRAME {
                bad = true;
                break;
            }
            if self.filled - cut - LEN_PREFIX < len {
                break;
            }
            cut += LEN_PREFIX + len;
        }
        if cut > self.start {
            let head = cut - self.start;
            let tail = self.filled - cut;
            let copy_out = head <= COPY_OUT_MAX
                || (!bad
                    && tail > head
                    && cut + LEN_PREFIX + frame_len(&self.block[cut..]) <= self.block.capacity())
                || (self.held >= BLOCKS_MAX && !self.retired.iter().any(|r| r.block.is_unique()));
            // `frames` holds the carved bytes; `base` is the block
            // offset of its first byte.
            let capacity = self.block.capacity();
            let (frames, base) = if copy_out {
                self.counts.carry_bytes += head as u64;
                let copy = Bytes::copy_from_slice(&self.block[self.start..cut]);
                (copy, self.start)
            } else {
                (Bytes::from(std::mem::take(&mut self.block)), 0)
            };
            let mut pos = self.start;
            while pos < cut {
                let len = frame_len(&frames[pos - base..]);
                let body = pos - base + LEN_PREFIX;
                out.push(PacketFrame::from_wire(frames.slice(body..body + len)));
                pos += LEN_PREFIX + len;
            }
            if copy_out {
                self.start = cut;
            } else {
                // An empty tail must not keep the frozen block shared.
                if tail > 0 {
                    self.tail = frames.slice(cut..self.filled);
                }
                self.retire(frames, capacity, source);
                self.start = 0;
                self.filled = 0;
            }
            if self.start == self.filled {
                self.start = 0;
                self.filled = 0;
            }
        }
        if bad {
            self.poisoned = true;
            return Err(oversized());
        }
        Ok(())
    }

    /// A free retired block with capacity for `min` bytes — the tightest
    /// when `sized`, else the largest, so a large frame that starts in
    /// an unsized read is likely to fit in place — or a fresh one from
    /// `source`.
    fn acquire(&mut self, min: usize, sized: bool, source: &mut impl BlockSource) -> Vec<u8> {
        let free = self
            .retired
            .iter()
            .enumerate()
            .filter(|(_, r)| r.capacity >= min && r.block.is_unique());
        let fit = if sized {
            free.min_by_key(|(_, r)| r.capacity)
        } else {
            free.max_by_key(|(_, r)| r.capacity)
        };
        if let Some((i, _)) = fit {
            // Unique and unsliced: recovers the allocation, no copy.
            return self.retired.remove(i).block.into();
        }
        self.counts.block_takes += 1;
        let floor = if sized || self.started { BLOCK_MIN } else { 0 };
        let size = min.max(floor).next_power_of_two();
        self.started = true;
        self.held += 1;
        let mut block = source.take(size);
        if block.capacity() < size {
            self.counts.grown_blocks += 1;
            block.reserve_exact(size - block.len());
        }
        block
    }

    /// Queue a block for reuse (one below [`BLOCK_MIN`] goes straight
    /// back to the source). Past [`BLOCKS_MAX`] held, the smallest free
    /// block goes back.
    fn retire(&mut self, block: Bytes, capacity: usize, source: &mut impl BlockSource) {
        if capacity < BLOCK_MIN {
            self.held -= 1;
            source.give(block);
            return;
        }
        self.retired.push(Retired { block, capacity });
        if self.held > BLOCKS_MAX {
            let free = self
                .retired
                .iter()
                .enumerate()
                .filter(|(_, r)| r.block.is_unique())
                .min_by_key(|(_, r)| r.capacity)
                .map(|(i, _)| i);
            if let Some(i) = free {
                self.held -= 1;
                source.give(self.retired.remove(i).block);
            }
        }
    }

    /// The counters accumulated since the last call.
    pub(crate) fn take_counts(&mut self) -> RxCounts {
        std::mem::take(&mut self.counts)
    }

    /// Hand every block back to `source` (connection teardown).
    pub(crate) fn release(mut self, source: &mut impl BlockSource) {
        self.tail = Bytes::new();
        if self.block.capacity() > 0 {
            source.give(Bytes::from(std::mem::take(&mut self.block)));
        }
        for r in self.retired.drain(..) {
            source.give(r.block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_sim::Xoshiro256StarStar;
    use proptest::prelude::*;

    /// A reader serving `data` in pieces of at most `splits[i]` bytes,
    /// cycling through `splits`; then end of stream.
    struct Splits<'a> {
        data: &'a [u8],
        pos: usize,
        splits: &'a [usize],
        i: usize,
    }

    impl Read for Splits<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.splits[self.i % self.splits.len()]
                .min(buf.len())
                .min(self.data.len() - self.pos);
            self.i += 1;
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The seeded stream: runs of tiny frames (many per read), empty
    /// frames, mid-sized frames and frames larger than `READ_CHUNK_MAX`.
    fn stream() -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut rng = Xoshiro256StarStar::new(0xC0FFEE);
        let mut frames = Vec::new();
        for i in 0..60 {
            let len = match i % 12 {
                0 | 7 => 0,
                5 => READ_CHUNK_MAX + 1 + (rng.next_u64() % 40_000) as usize,
                9 => 1_000 + (rng.next_u64() % 70_000) as usize,
                _ => 1 + (rng.next_u64() % 40) as usize,
            };
            let mut f = vec![0u8; len];
            rng.fill_bytes(&mut f);
            frames.push(f);
        }
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
            wire.extend_from_slice(f);
        }
        (wire, frames)
    }

    /// Feed `wire` through a ring under `splits`, keeping every carved
    /// frame alive, and return the frames plus the ring's counters.
    fn feed(wire: &[u8], splits: &[usize]) -> (Vec<Bytes>, RxCounts, io::Result<()>) {
        let mut ring = RxRing::default();
        let mut src = Splits {
            data: wire,
            pos: 0,
            splits,
            i: 0,
        };
        let mut out = Vec::new();
        let res = loop {
            match ring.read_from(&mut src, &mut Heap, &mut out) {
                Ok(0) => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        let frames = out.iter().map(|f| f.to_bytes()).collect();
        // `to_bytes` of a one-part frame is that part: still a slice of
        // the ring's block, so reuse would corrupt it.
        drop(out);
        (frames, ring.take_counts(), res)
    }

    #[test]
    fn one_byte_reads_yield_the_one_shot_frames() {
        let (wire, frames) = stream();
        let (got, counts, res) = feed(&wire, &[1]);
        assert!(res.is_ok());
        assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            assert_eq!(&g[..], &f[..]);
        }
        // Byte-at-a-time reads copy each small frame out once and carry
        // at most the prefix of a large one: the prefix sizes its block
        // before the body arrives.
        let bound: usize = frames
            .iter()
            .map(|f| {
                if LEN_PREFIX + f.len() <= COPY_OUT_MAX {
                    LEN_PREFIX + f.len()
                } else {
                    LEN_PREFIX
                }
            })
            .sum();
        assert!(counts.carry_bytes <= bound as u64);
    }

    /// Reads that always fill the chunk end mid-frame every time; each
    /// carry is still at most one read, so even this worst case stays
    /// well under one copied byte per stream byte.
    #[test]
    fn full_reads_carry_at_most_one_read_per_carve() {
        let (wire, frames) = stream();
        let (got, counts, _) = feed(&wire, &[usize::MAX]);
        assert_eq!(got.len(), frames.len());
        assert!(
            counts.carry_bytes < wire.len() as u64 / 2,
            "carried {} of {} bytes",
            counts.carry_bytes,
            wire.len()
        );
    }

    #[test]
    fn oversized_prefix_stops_the_stream() {
        let mut wire = Vec::new();
        for f in [&b"ab"[..], &b""[..], &b"xyz"[..]] {
            wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
            wire.extend_from_slice(f);
        }
        wire.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
        wire.extend_from_slice(&(1u32).to_le_bytes());
        wire.push(b'!');
        for splits in [&[1usize][..], &[usize::MAX], &[3, 5]] {
            let mut ring = RxRing::default();
            let mut src = Splits {
                data: &wire,
                pos: 0,
                splits,
                i: 0,
            };
            let mut out = Vec::new();
            let err = loop {
                match ring.read_from(&mut src, &mut Heap, &mut out) {
                    Ok(0) => panic!("end of stream before the bad prefix"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            let got: Vec<Bytes> = out.iter().map(|f| f.to_bytes()).collect();
            assert_eq!(got, vec![&b"ab"[..], &b""[..], &b"xyz"[..]]);
            let err = ring.read_from(&mut src, &mut Heap, &mut out).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert_eq!(out.len(), 3, "a frame was carved after the bad prefix");
        }
    }

    #[test]
    fn blocks_are_recycled_once_their_frames_drop() {
        let (wire, frames) = stream();
        let mut ring = RxRing::default();
        let mut src = Splits {
            data: &wire,
            pos: 0,
            splits: &[4096, 70_000],
            i: 0,
        };
        let mut out = Vec::new();
        let mut reads = 0u64;
        let mut carved = 0;
        while ring.read_from(&mut src, &mut Heap, &mut out).unwrap() > 0 {
            reads += 1;
            carved += out.len();
            out.clear();
        }
        assert_eq!(carved, frames.len());
        let counts = ring.take_counts();
        assert!(
            counts.block_takes <= 4,
            "{} blocks taken over {reads} reads",
            counts.block_takes
        );
        assert_eq!(counts.grown_blocks, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any read splitting yields exactly the one-shot frame sequence,
        /// and frames held to the end are intact: no block was handed
        /// out again while a slice of it was alive.
        #[test]
        fn any_read_splits_yield_the_one_shot_frames(
            splits in prop::collection::vec(
                prop_oneof![1usize..6, 6usize..200, 200usize..80_000, 80_000usize..600_000],
                1..10,
            ),
            keep_seed in any::<u64>(),
        ) {
            let (wire, frames) = stream();
            let mut ring = RxRing::default();
            let mut src = Splits { data: &wire, pos: 0, splits: &splits, i: 0 };
            let mut out = Vec::new();
            let mut rng = Xoshiro256StarStar::new(keep_seed);
            let mut kept: Vec<(usize, Bytes)> = Vec::new();
            let mut next = 0;
            while ring.read_from(&mut src, &mut Heap, &mut out).unwrap() > 0 {
                for f in out.drain(..) {
                    let b = f.to_bytes();
                    prop_assert_eq!(&b[..], &frames[next][..]);
                    if rng.chance(0.5) {
                        kept.push((next, b));
                    }
                    next += 1;
                }
            }
            prop_assert_eq!(next, frames.len());
            for (i, b) in &kept {
                prop_assert_eq!(&b[..], &frames[*i][..]);
            }
            prop_assert_eq!(ring.take_counts().grown_blocks, 0);
        }
    }
}
