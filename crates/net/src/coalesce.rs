//! GSO-style frame coalescing for the UDP send path.
//!
//! The batched send verbs used to pay two per-frame costs the kernel never
//! required: every frame rode its own datagram (one `sendmmsg` slot, one
//! in-kernel delivery, per frame), and every frame was encoded into a fresh
//! allocation then cloned per destination. The [`Coalescer`] removes both.
//! It keeps one *open datagram* per destination, encodes each outgoing
//! packet **directly** into that pooled buffer with
//! [`encode_frame_into`] (zero
//! copies, zero intermediate allocations), and seals a datagram only when it
//! fills past its budget or the flush ends. The receive side unpacks with
//! [`frames`](harmonia_types::wire::frames) — GRO.
//!
//! Buffers come from a [`BufferPool`]
//! ([`checkout_empty`](BufferPool::checkout_empty)), and sealing goes
//! through [`BufferPool::commit`], whose alias-aware reclamation is the
//! guarantee here: **a sealed datagram's buffer is never reused while any
//! [`Bytes`] handle to it is in flight** — the `Arc` refcount is the proof.
//! Once the transport drops a sent payload, the next checkout recycles it;
//! steady-state sending allocates nothing.
//!
//! Ordering: at most one datagram per destination is ever open, and sealed
//! datagrams are flushed in seal order, so frames to the *same* destination
//! always arrive in send order on a loss-free link. Cross-destination order
//! is unspecified — UDP never promised it.

use std::net::SocketAddr;

use bytes::{Bytes, BytesMut};
use harmonia_types::wire::{encode_frame_into, Wire, MAX_FRAME_BYTES};
use harmonia_types::TypeError;

use crate::pool::{BufferPool, PoolStats};

/// One packed datagram ready for the wire: destination, payload (one or
/// more back-to-back length-prefixed frames), and the frame count — the
/// unit the transport's per-frame accounting credits or charges when the
/// kernel accepts or refuses the whole datagram.
#[derive(Debug)]
pub struct SealedDatagram {
    /// Where the datagram goes.
    pub dst: SocketAddr,
    /// The coalesced frames, aliasing a pooled buffer until dropped.
    pub payload: Bytes,
    /// How many frames `payload` carries (≥ 1).
    pub frames: u32,
}

/// Per-destination datagram packer over a [`BufferPool`].
///
/// The per-frame baseline is a flush after every push: a one-packet
/// `send_batch` does exactly that, so one frame rides one datagram there
/// while still encoding zero-copy into pooled buffers.
pub struct Coalescer {
    pool: BufferPool,
    /// Open datagrams, at most one per destination. Linear scan: a flush
    /// touches a handful of destinations (replica group + client), far
    /// below where a map would win.
    open: Vec<(SocketAddr, BytesMut, u32)>,
    /// Datagram payload budget: an open datagram seals before a frame
    /// would push it past this many bytes.
    capacity: usize,
}

impl Coalescer {
    /// A coalescer packing datagrams up to `capacity` bytes (clamped to
    /// [`MAX_FRAME_BYTES`] — larger could never cross the wire), recycling
    /// through a send pool that tracks `max_inflight` sealed payloads.
    pub fn new(capacity: usize, max_inflight: usize) -> Self {
        let capacity = capacity.min(MAX_FRAME_BYTES);
        Coalescer {
            pool: BufferPool::new(capacity, max_inflight),
            open: Vec::new(),
            capacity,
        }
    }

    /// Send-pool checkout counters (steady state: all hits, no allocation).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Encode one packet as the next frame of `dst`'s open datagram,
    /// sealing into `sealed` whenever a datagram fills. An oversized packet
    /// is refused with the
    /// open datagram intact — `encode_frame_into` rolls the buffer back —
    /// so one bad packet never discards its neighbors' frames.
    pub fn push<T: Wire>(
        &mut self,
        dst: SocketAddr,
        value: &T,
        sealed: &mut Vec<SealedDatagram>,
    ) -> Result<(), TypeError> {
        let (mut buf, mut frames) = match self.open.iter().position(|(d, ..)| *d == dst) {
            Some(i) => {
                let (_, buf, frames) = self.open.swap_remove(i);
                (buf, frames)
            }
            None => (self.pool.checkout_empty(), 0),
        };
        let start = buf.len();
        if let Err(e) = encode_frame_into(value, &mut buf) {
            self.open.push((dst, buf, frames));
            return Err(e);
        }
        if start > 0 && buf.len() > self.capacity {
            // The frame overflows the budget: undo it, seal what the
            // datagram already holds, re-encode into a fresh buffer. The
            // retry starts at offset 0, so it can only exceed `capacity`
            // if a single frame does — which then rides alone, oversized
            // datagram semantics being better than an unsendable packet.
            buf.truncate(start);
            sealed.push(SealedDatagram {
                dst,
                payload: self.pool.commit(buf),
                frames,
            });
            let mut fresh = self.pool.checkout_empty();
            if let Err(e) = encode_frame_into(value, &mut fresh) {
                // Unreachable (the same encode just succeeded), but stay
                // panic-free: return the buffer and report.
                self.pool.release(fresh);
                return Err(e);
            }
            buf = fresh;
            frames = 0;
        }
        frames += 1;
        if buf.len() < self.capacity {
            self.open.push((dst, buf, frames));
        } else {
            sealed.push(SealedDatagram {
                dst,
                payload: self.pool.commit(buf),
                frames,
            });
        }
        Ok(())
    }

    /// Seal every open datagram — the end of a flush. After this returns,
    /// no frame is left buffered.
    pub fn finish(&mut self, sealed: &mut Vec<SealedDatagram>) {
        while let Some(open) = self.open.pop() {
            self.close(open, sealed);
        }
    }

    /// Seal `dst`'s open datagram, if it has one, and leave every other
    /// destination's open: what a sender hands itself goes now, the rest
    /// keeps filling.
    pub fn seal(&mut self, dst: SocketAddr, sealed: &mut Vec<SealedDatagram>) {
        if let Some(i) = self.open.iter().position(|(d, ..)| *d == dst) {
            let open = self.open.swap_remove(i);
            self.close(open, sealed);
        }
    }

    /// Seal one open datagram onto `sealed`, or return its buffer to the
    /// pool if no frame made it in.
    fn close(
        &mut self,
        (dst, buf, frames): (SocketAddr, BytesMut, u32),
        sealed: &mut Vec<SealedDatagram>,
    ) {
        if frames == 0 {
            self.pool.release(buf);
        } else {
            sealed.push(SealedDatagram {
                dst,
                payload: self.pool.commit(buf),
                frames,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::wire::frames;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn unpack(d: &SealedDatagram) -> Vec<u64> {
        frames::<u64>(&d.payload).map(|r| r.unwrap()).collect()
    }

    #[test]
    fn packs_frames_per_destination() {
        let mut c = Coalescer::new(4096, 8);
        let mut sealed = Vec::new();
        for v in 0..10u64 {
            c.push(addr(1000 + (v % 2) as u16), &v, &mut sealed)
                .unwrap();
        }
        assert!(sealed.is_empty(), "nothing seals before the flush ends");
        c.finish(&mut sealed);
        assert_eq!(sealed.len(), 2, "one datagram per destination");
        sealed.sort_by_key(|d| d.dst.port());
        assert_eq!(unpack(&sealed[0]), vec![0, 2, 4, 6, 8]);
        assert_eq!(unpack(&sealed[1]), vec![1, 3, 5, 7, 9]);
        assert_eq!(sealed[0].frames, 5);
    }

    #[test]
    fn seals_when_budget_fills_and_preserves_order() {
        // u64 frames are 12 bytes; a 30-byte budget fits two per datagram.
        let mut c = Coalescer::new(30, 8);
        let mut sealed = Vec::new();
        for v in 0..5u64 {
            c.push(addr(9), &v, &mut sealed).unwrap();
        }
        c.finish(&mut sealed);
        let per_datagram: Vec<Vec<u64>> = sealed.iter().map(unpack).collect();
        assert_eq!(per_datagram, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(
            sealed.iter().map(|d| d.frames).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn finish_after_every_push_is_one_frame_per_datagram() {
        let mut c = Coalescer::new(4096, 8);
        let mut sealed = Vec::new();
        for v in 0..4u64 {
            c.push(addr(9), &v, &mut sealed).unwrap();
            c.finish(&mut sealed);
        }
        assert_eq!(sealed.len(), 4, "every flush seals what it holds");
        assert!(sealed.iter().all(|d| d.frames == 1));
    }

    /// Sealing one destination leaves the others open, in push order.
    #[test]
    fn seal_closes_one_destination_only() {
        let mut c = Coalescer::new(4096, 8);
        let mut sealed = Vec::new();
        for v in 0..6u64 {
            c.push(addr(1000 + (v % 3) as u16), &v, &mut sealed)
                .unwrap();
        }
        c.seal(addr(1001), &mut sealed);
        c.seal(addr(2000), &mut sealed);
        assert_eq!(sealed.len(), 1);
        assert_eq!(unpack(&sealed[0]), vec![1, 4]);
        c.push(addr(1001), &6u64, &mut sealed).unwrap();
        c.finish(&mut sealed);
        sealed.sort_by_key(|d| (d.dst.port(), d.frames));
        let packed: Vec<Vec<u64>> = sealed.iter().map(unpack).collect();
        assert_eq!(packed, [vec![0, 3], vec![6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn steady_state_reuses_pool_buffers() {
        let mut c = Coalescer::new(256, 8);
        let mut sealed = Vec::new();
        for round in 0..100u64 {
            for v in 0..8 {
                c.push(addr(9), &(round * 8 + v), &mut sealed).unwrap();
            }
            c.finish(&mut sealed);
            sealed.clear(); // transport sent + dropped the payloads
        }
        let s = c.pool_stats();
        assert!(
            s.hit_rate() > 0.95,
            "steady-state send must recycle, not allocate: {s:?}"
        );
        assert!(s.misses <= 2, "{s:?}");
    }

    #[test]
    fn held_payload_is_never_aliased_by_later_datagrams() {
        let mut c = Coalescer::new(256, 8);
        let mut sealed = Vec::new();
        c.push(addr(9), &1u64, &mut sealed).unwrap();
        c.finish(&mut sealed);
        let held = sealed.pop().unwrap().payload;
        let held_range = held.as_ptr() as usize..held.as_ptr() as usize + held.len().max(1);
        // While `held` is alive, no later sealed datagram may overlap it.
        for v in 2..50u64 {
            c.push(addr(9), &v, &mut sealed).unwrap();
            c.finish(&mut sealed);
            let d = sealed.pop().unwrap();
            let p = d.payload.as_ptr() as usize;
            assert!(
                !held_range.contains(&p),
                "in-flight payload buffer was reused"
            );
        }
        assert_eq!(unpack_one(&held), 1);
    }

    fn unpack_one(payload: &Bytes) -> u64 {
        let mut it = frames::<u64>(payload);
        let v = it.next().unwrap().unwrap();
        assert!(it.next().is_none());
        v
    }
}
