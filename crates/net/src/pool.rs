//! Per-endpoint send buffer pool for the zero-copy datagram path.
//!
//! The [`Coalescer`](crate::Coalescer) encodes frames straight into a pooled
//! [`BytesMut`] and seals it as a [`Bytes`] payload. The pool keeps a
//! full-range handle to every buffer it has sealed this way and reclaims a
//! buffer only once [`Bytes::try_into_mut`] proves the handle is the last
//! reference — i.e. the transport has sent and dropped the payload.
//!
//! That gives the safety property the proptests pin: **a buffer is never
//! recycled while any `Bytes` still references it** (the `Arc` refcount is
//! the proof, not a heuristic), and the steady-state property the bench
//! story needs: once the pool is warm, sending allocates nothing — every
//! checkout is a recycled buffer, visible as `hits` in [`PoolStats`].
//!
//! The receive side has no pool: an endpoint receives into a private
//! scratch ring it never hands out and copies each datagram once into an
//! exactly-sized `Bytes` (see [`UdpTransport`](crate::UdpTransport)), so
//! nothing a consumer keeps can pin a receive buffer. Its [`PoolStats`]
//! count those scratch slots: a miss is a receive buffer that had to be
//! allocated.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// Checkout counters (telemetry for tests and the bench profile).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by a recycled buffer (steady state).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer (warm-up, or every
    /// pooled buffer still pinned by a live payload).
    pub misses: u64,
}

impl PoolStats {
    /// Field-wise `self - earlier`, saturating at zero (snapshot deltas for
    /// incremental observability sync).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }

    /// Fraction of checkouts served without allocating, in `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fixed-size-buffer pool with alias-aware reclamation.
pub struct BufferPool {
    /// Capacity of every buffer.
    buf_len: usize,
    /// Buffers proven unaliased, ready to hand out.
    free: Vec<BytesMut>,
    /// Full-range handles to buffers whose sealed payload may still be in
    /// flight. Oldest first.
    inflight: VecDeque<Bytes>,
    /// Cap on `inflight`: beyond this the oldest handle is forgotten — its
    /// buffer is freed by the last payload drop instead of recycled, so a
    /// slow consumer degrades to plain allocation, never unbounded growth.
    max_inflight: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of buffers with `buf_len` bytes of capacity, tracking at most
    /// `max_inflight` sealed payloads.
    pub fn new(buf_len: usize, max_inflight: usize) -> Self {
        BufferPool {
            buf_len,
            free: Vec::new(),
            inflight: VecDeque::with_capacity(max_inflight),
            max_inflight,
            stats: PoolStats::default(),
        }
    }

    /// Checkout counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently awaiting their last payload reference to drop.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Hand out an *empty* writable buffer with at least `buf_len` bytes of
    /// capacity: the caller appends encoded frames and
    /// [`commit`](Self::commit)s the result, so no byte is ever written
    /// twice and allocation needs no zero-fill. Recycles a reclaimable
    /// buffer when one exists, allocates otherwise.
    pub fn checkout_empty(&mut self) -> BytesMut {
        if self.free.is_empty() {
            self.reclaim();
        }
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.hits += 1;
                buf.clear();
                if buf.capacity() < self.buf_len {
                    buf.reserve(self.buf_len);
                }
                buf
            }
            None => {
                self.stats.misses += 1;
                BytesMut::with_capacity(self.buf_len)
            }
        }
    }

    /// Freeze a filled buffer for sending, remembering a handle so the
    /// buffer can be recycled once the returned `Bytes` (and every slice
    /// cut from it) is dropped.
    pub fn commit(&mut self, buf: BytesMut) -> Bytes {
        let frame = buf.freeze();
        if self.inflight.len() == self.max_inflight {
            // Forget the oldest handle: its buffer leaves the pool and is
            // freed by whoever holds the last payload slice.
            self.inflight.pop_front();
        }
        self.inflight.push_back(frame.clone());
        frame
    }

    /// Return an unused checkout (nothing was encoded into it) straight to
    /// the free list; not counted as a fresh checkout.
    pub fn release(&mut self, buf: BytesMut) {
        self.free.push(buf);
    }

    /// One pass over the inflight handles, moving every buffer whose last
    /// outside reference has dropped to the free list. `try_into_mut`
    /// succeeds only for a uniquely owned buffer, so a buffer still aliased
    /// by an in-flight payload can never be handed out again.
    fn reclaim(&mut self) {
        for _ in 0..self.inflight.len() {
            let handle = self.inflight.pop_front().expect("len-bounded loop");
            match handle.try_into_mut() {
                Ok(buf) => self.free.push(buf),
                Err(handle) => self.inflight.push_back(handle),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pool_recycles_instead_of_allocating() {
        let mut pool = BufferPool::new(64, 8);
        // Steady state: checkout, fill, commit, drop the payload, repeat.
        for round in 0..100 {
            let mut buf = pool.checkout_empty();
            assert!(buf.is_empty(), "checkout must start empty");
            assert!(buf.capacity() >= 64);
            buf.extend_from_slice(&[round as u8; 16]);
            let frame = pool.commit(buf);
            drop(frame);
        }
        let s = pool.stats();
        // First checkout allocates (nothing to reclaim yet); from then on
        // the previous buffer is always reclaimable.
        assert_eq!(s.misses, 1, "steady state must not allocate: {s:?}");
        assert_eq!(s.hits, 99);
        assert!(s.hit_rate() > 0.98);
    }

    #[test]
    fn aliased_buffer_is_never_recycled() {
        let mut pool = BufferPool::new(64, 8);
        let mut buf = pool.checkout_empty();
        buf.extend_from_slice(&[7; 32]);
        let frame = pool.commit(buf);
        let payload = frame.slice(10..20);
        drop(frame);
        // The payload slice still aliases the buffer: every checkout while
        // it lives must be a fresh allocation.
        let ptr = payload.as_ptr() as usize;
        for _ in 0..5 {
            let buf = pool.checkout_empty();
            let base = buf.as_ptr() as usize;
            assert!(
                !(base..base + buf.capacity()).contains(&ptr),
                "handed out an aliased buffer"
            );
            pool.release(buf);
        }
        drop(payload);
        // Now it reclaims.
        let buf = pool.checkout_empty();
        assert!(pool.stats().hits >= 1);
        pool.release(buf);
    }

    #[test]
    fn inflight_is_bounded() {
        let mut pool = BufferPool::new(64, 4);
        // Commit more frames than the cap while holding every one alive.
        let held: Vec<Bytes> = (0..10)
            .map(|_| {
                let buf = pool.checkout_empty();
                pool.commit(buf)
            })
            .collect();
        assert_eq!(pool.inflight_len(), 4);
        drop(held);
        // Only the tracked handles come back.
        for _ in 0..4 {
            pool.checkout_empty();
        }
        let s = pool.stats();
        assert_eq!(s.hits, 4);
    }
}
