//! Compact binary wire codec.
//!
//! The UDP driver serializes every packet across its links with this codec;
//! the simulator and the channel driver pass packets by value and never
//! touch it. The format is little-endian, length-prefixed, and versionless
//! (both ends are always the same build — this is an intra-rack protocol,
//! not a public one).
//!
//! Every type that crosses a link implements [`Wire`]: `encode` appends to a
//! [`Writer`] (fixed-width fields staged in a stack array, one append per
//! run), `decode` reads from a [`Reader`] (a borrowed slice cursor; the
//! owning [`Bytes`] is consulted only to slice out the keys and values that
//! outlive the call). The codec is deliberately hand-rolled: the Harmonia
//! header is a fixed layout the "switch" parses in its pipeline (§4, §6.1),
//! and hand-rolling keeps the layout explicit and dependency-free.
//!
//! # Frame layout
//!
//! A frame is a `u32` body length followed by the body; a datagram is one
//! or more frames back to back ([`frames`]). Every body opens with the same
//! twelve bytes, and a request or reply — the four frames of every read —
//! continues with the fixed Harmonia header. Offsets count from the start
//! of the frame:
//!
//! | offset | bytes | field | |
//! |---:|---:|---|---|
//! | 0 | 4 | body length | everything after this prefix; at most [`MAX_FRAME_BYTES`]` − 4` |
//! | 4 | 1 | kind | 0 request · 1 reply · 2 completion · 3 protocol · 4 control |
//! | 5 | 1 | flags | [`PacketFlags`]; zero unless request or reply |
//! | 6 | 5 | src | node tag (0 client · 1 replica · 2 switch · 3 controller) + `u32` id, 0 for the controller |
//! | 11 | 5 | dst | as `src` |
//! | 16 | 4 | client | request, reply |
//! | 20 | 8 | request | request, reply |
//! | 28 | 4 | object id | request, reply |
//! | 32 | 12 | seq | request, if `SEQ`: switch `u32` + counter `u64` |
//! | … | 12 | last committed | request, if `LAST_COMMITTED`: as `seq` |
//! | … | 4 | fast-path switch | request, if `FAST_PATH` |
//! | … | 4 | key length | request |
//! | 32 | 4 | from | reply: the answering replica |
//! | 36 | 1 | write outcome | reply, if `WRITE_OUTCOME`: 0 committed · 1 dropped by switch · 2 rejected |
//! | … | 16 | completion | reply, if `PIGGYBACK_COMPLETION`: object id `u32` + `seq` |
//! | … | 4 | value length | request, reply, if `VALUE` |
//! | … | | key bytes, then value bytes | the payload, after the header |
//!
//! The op type is the `WRITE` flag. The flags give the header's length, so
//! a decoder admits the header with **one** length check and the payload
//! with one more. Kinds 2–4 follow `dst` with their own fields in
//! declaration order, one discriminant byte per enum, `u32`-length-prefixed
//! byte strings and vectors — as does every `harmonia-replication` message.
//! The golden-bytes tests at the end of this file pin the header.

use std::marker::PhantomData;

use bytes::{Bytes, BytesMut};

use crate::id::{ClientId, NodeId, ObjectId, ReplicaId, RequestId, SwitchId};
use crate::packet::{
    ClientReply, ClientRequest, ControlMsg, OpKind, Packet, PacketBody, PacketFlags, ReadMode,
    WriteCompletion, WriteOutcome,
};
use crate::seq::SwitchSeq;
use crate::TypeError;

/// Upper bound on one encoded frame, length prefix included — and therefore
/// on every length-prefixed field inside it (keys, values, vectors).
///
/// One constant governs both sides of the wire: [`encode_frame`] and
/// [`encode_frame_into`] refuse to produce a larger frame (an error, never
/// silent truncation), and [`decode_frame`] rejects any declared length
/// beyond it before allocating, so untrusted bytes can never make a decoder
/// reserve unbounded memory. The value is the largest UDP/IPv4 payload
/// (65 535 − 8 − 20): a datagram in the `harmonia-net` transport carries one
/// or more back-to-back frames (see [`frames`]) up to this budget, so a
/// single frame bigger than it could never cross the real wire anyway.
pub const MAX_FRAME_BYTES: usize = 65_507;

/// A type that can be encoded to / decoded from the wire.
pub trait Wire: Sized {
    /// Append this value to the frame `w` is writing.
    fn encode(&self, w: &mut Writer<'_>);
    /// Decode one value from the front of `r`'s unread bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError>;
}

/// Bytes a [`Writer`] stages before it touches the output buffer: the
/// length prefix, the longest header the data plane sends and a short key.
const STAGE: usize = 96;

/// The write side of the codec. Fields are staged in a stack array and
/// reach the output buffer one run at a time — a read request is a single
/// append — and a payload too long to stage is appended directly.
pub struct Writer<'a> {
    out: &'a mut BytesMut,
    stage: [u8; STAGE],
    staged: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`. What is staged reaches `out` with the
    /// next `flush`.
    fn new(out: &'a mut BytesMut) -> Self {
        Writer {
            out,
            stage: [0; STAGE],
            staged: 0,
        }
    }

    /// Append `bytes` as they are (no length prefix).
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) {
        if bytes.len() > STAGE - self.staged {
            self.flush();
            if bytes.len() > STAGE {
                self.out.extend_from_slice(bytes);
                return;
            }
        }
        let end = self.staged + bytes.len();
        if let Some(slot) = self.stage.get_mut(self.staged..end) {
            slot.copy_from_slice(bytes);
            self.staged = end;
        }
    }

    /// Append a `u32` length prefix (collection sizes, byte-string lengths).
    /// A length past `u32` wraps, and the frame is then far past
    /// [`MAX_FRAME_BYTES`]: [`encode_frame_into`] refuses it.
    #[inline]
    pub fn put_len(&mut self, len: usize) {
        self.put(&(len as u32).to_le_bytes());
    }

    /// Append the staged run.
    fn flush(&mut self) {
        if let Some(run) = self.stage.get(..self.staged) {
            self.out.extend_from_slice(run);
        }
        self.staged = 0;
    }
}

/// The read side of the codec: a cursor over the unread bytes of one frame
/// body, borrowed from the [`Bytes`] that owns them. Integers are read
/// from the slice; only a key or value read touches the owner, to hand
/// out a payload that aliases it (one reference-count bump, no copy).
pub struct Reader<'a> {
    owner: &'a Bytes,
    rest: &'a [u8],
    /// Where `rest` ends inside `owner`.
    end: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over all of `owner`.
    pub fn new(owner: &'a Bytes) -> Self {
        Reader {
            owner,
            rest: owner.as_slice(),
            end: owner.len(),
        }
    }

    /// `Ok` if at least `n` bytes are unread, else how many are missing.
    #[inline]
    fn need(&self, n: usize) -> Result<(), TypeError> {
        if self.rest.len() >= n {
            return Ok(());
        }
        Err(TypeError::Truncated {
            needed: n - self.rest.len(),
        })
    }

    /// Read `N` bytes.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], TypeError> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(*head)
            }
            None => Err(TypeError::Truncated {
                needed: N - self.rest.len(),
            }),
        }
    }

    /// Read one byte (discriminants, flags).
    #[inline]
    pub fn u8(&mut self) -> Result<u8, TypeError> {
        self.take::<1>().map(|[b]| b)
    }

    /// Read a `u32` length prefix, refusing one past [`MAX_FRAME_BYTES`]
    /// before anything is allocated for it. `field` names it in the error.
    #[inline]
    pub fn len_prefix(&mut self, field: &'static str) -> Result<usize, TypeError> {
        let len = u32::decode(self)? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(TypeError::OversizedField { field, len });
        }
        Ok(len)
    }

    /// Read `len` payload bytes as a slice of the owning buffer.
    #[inline]
    fn bytes(&mut self, len: usize) -> Result<Bytes, TypeError> {
        let Some((_, tail)) = self.rest.split_at_checked(len) else {
            return Err(TypeError::Truncated {
                needed: len - self.rest.len(),
            });
        };
        let start = self.end - self.rest.len();
        self.rest = tail;
        // lint:allow(panic_path): `Bytes::slice` has no checked variant;
        // `rest` is always a suffix of `owner[..end]`, and the split above
        // proved `len` more bytes of it, so `start + len <= end`.
        Ok(self.owner.slice(start..start + len))
    }
}

/// The error for a discriminant byte no variant of `field` claims.
pub fn bad_tag<T>(field: &'static str, tag: u8) -> Result<T, TypeError> {
    Err(TypeError::BadDiscriminant {
        field,
        value: u64::from(tag),
    })
}

/// Encode a full frame (length-prefixed) ready to write to a stream or pack
/// into one datagram. Fails with [`TypeError::OversizedField`] if the frame
/// would exceed [`MAX_FRAME_BYTES`] — the bound is enforced symmetrically
/// with [`decode_frame`], so a frame this side produces is always one the
/// other side accepts, and nothing is ever silently truncated.
pub fn encode_frame<T: Wire>(value: &T) -> Result<Bytes, TypeError> {
    let mut frame = BytesMut::with_capacity(64);
    encode_frame_into(value, &mut frame)?;
    Ok(frame.freeze())
}

/// Append one length-prefixed frame for `value` to `buf` — the zero-copy
/// sibling of [`encode_frame`], for callers (the coalescing UDP send path)
/// that pack several frames back-to-back into one pooled datagram buffer.
///
/// The length prefix is written as a placeholder first and patched once the
/// body length is known, so the value is encoded exactly once, straight into
/// `buf` — no intermediate body buffer, no copy. Returns the frame length
/// appended (prefix included). On [`TypeError::OversizedField`] the buffer is
/// rolled back to its original length, so a packer can refuse one oversized
/// frame without disturbing the frames already written before it.
pub fn encode_frame_into<T: Wire>(value: &T, buf: &mut BytesMut) -> Result<usize, TypeError> {
    let start = buf.len();
    let mut w = Writer::new(buf);
    w.put(&[0; 4]); // placeholder, patched below
    value.encode(&mut w);
    w.flush();
    let body_len = buf.len() - (start + 4);
    if body_len > MAX_FRAME_BYTES - 4 {
        buf.truncate(start);
        return Err(TypeError::OversizedField {
            field: "frame",
            len: body_len + 4,
        });
    }
    if let Some(prefix) = buf.get_mut(start..start + 4) {
        prefix.copy_from_slice(&(body_len as u32).to_le_bytes());
    }
    Ok(body_len + 4)
}

/// Decode one frame produced by [`encode_frame`]. Returns the value and the
/// number of bytes consumed, or `Ok(None)` if the buffer does not yet hold a
/// complete frame. The value must consume the frame's declared body exactly:
/// declared-but-undecoded bytes are a [`TypeError::TrailingBytes`] error, so
/// a malformed peer cannot smuggle junk inside a valid length prefix.
///
/// This is [`decode_frame_shared`] over a private copy of the frame: the
/// decoded payloads own that copy and borrow nothing from `buf`.
pub fn decode_frame<T: Wire>(buf: &[u8]) -> Result<Option<(T, usize)>, TypeError> {
    let Some(len) = whole_frame(frame_body_len(buf))? else {
        return Ok(None);
    };
    let frame = buf.get(..4 + len).unwrap_or_default();
    decode_frame_shared(&Bytes::copy_from_slice(frame))
}

/// Zero-copy variant of [`decode_frame`]: the same framing and strictness,
/// but nothing is copied, so any [`Bytes`]-typed payload fields in the
/// decoded value alias the caller's buffer. This is what lets the UDP
/// receive path hand out key/value payloads that point straight into the
/// datagram they arrived in — the buffer stays alive until the last payload
/// slice is dropped.
pub fn decode_frame_shared<T: Wire>(buf: &Bytes) -> Result<Option<(T, usize)>, TypeError> {
    let Some(len) = whole_frame(frame_body_len(buf))? else {
        return Ok(None);
    };
    decode_body(buf, 0, len).map(|value| Some((value, 4 + len)))
}

/// Decode, in place, the `len`-byte body of the frame that starts `at` bytes
/// into `buf` ([`frame_body_len`] found the whole frame present): the body
/// is read through a borrowed cursor, the only handles to `buf` taken are
/// the payload slices the value keeps, and the value must use the body up.
#[inline]
fn decode_body<T: Wire>(buf: &Bytes, at: usize, len: usize) -> Result<T, TypeError> {
    let end = at + 4 + len;
    let mut body = Reader {
        owner: buf,
        rest: buf.get(at + 4..end).unwrap_or_default(),
        end,
    };
    let value = T::decode(&mut body)?;
    match body.rest.len() {
        0 => Ok(value),
        len => Err(TypeError::TrailingBytes { len }),
    }
}

/// Iterate every back-to-back frame in one datagram buffer — GRO on receive.
///
/// A coalesced datagram is zero or more [`encode_frame`]-format frames packed
/// end to end. The iterator walks `buf` by offset and decodes each frame in
/// place: each `Ok` item is one decoded value whose `Bytes` payload fields
/// alias `buf` (the [`decode_frame_shared`] zero-copy contract), inside that
/// frame's own byte range. The iterator ends cleanly (yields `None`) only
/// when every byte of `buf` was consumed by valid frames; a garbage or
/// truncated tail yields exactly one final `Err` — a cut-off trailing frame
/// surfaces as [`TypeError::Truncated`] — after which iteration stops.
/// Frames decoded *before* the bad tail have already been yielded, so a
/// receiver can salvage the valid prefix instead of discarding the whole
/// datagram.
pub fn frames<T: Wire>(buf: &Bytes) -> FrameIter<'_, T> {
    FrameIter {
        buf,
        used: 0,
        done: false,
        _payload: PhantomData,
    }
}

/// Iterator state for [`frames`]. Fused: after the first `Err` (or the clean
/// end of the buffer) it yields `None` forever.
pub struct FrameIter<'a, T> {
    buf: &'a Bytes,
    used: usize,
    done: bool,
    _payload: PhantomData<fn() -> T>,
}

impl<T> FrameIter<'_, T> {
    /// Bytes consumed by the valid frames yielded so far.
    pub fn used(&self) -> usize {
        self.used
    }
}

impl<T: Wire> Iterator for FrameIter<'_, T> {
    type Item = Result<T, TypeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.used >= self.buf.len() {
            self.done = true;
            return None;
        }
        // A datagram that ends mid-frame is the `Truncated` the prefix
        // parse reports: how many bytes the declared length still wanted.
        let item = frame_body_len(self.buf.get(self.used..).unwrap_or_default()).and_then(|len| {
            decode_body(self.buf, self.used, len).inspect(|_| self.used += 4 + len)
        });
        self.done = item.is_err();
        Some(item)
    }
}

/// Shared prefix parse: the declared body length once the whole frame is
/// present, [`TypeError::Truncated`] with the missing byte count while it
/// is not, oversize rejected up front.
fn frame_body_len(buf: &[u8]) -> Result<usize, TypeError> {
    let &[b0, b1, b2, b3, ..] = buf else {
        return Err(TypeError::Truncated {
            needed: 4 - buf.len(),
        });
    };
    let len = u32::from_le_bytes([b0, b1, b2, b3]) as usize;
    // Overflow-proof form of `len + 4 > MAX_FRAME_BYTES`: a hostile prefix
    // can claim up to u32::MAX, which `len + 4` would wrap on 32-bit
    // targets, sneaking past the bound into the slice arithmetic above.
    if len > MAX_FRAME_BYTES - 4 {
        return Err(TypeError::OversizedField {
            field: "frame",
            len,
        });
    }
    if buf.len() >= 4 + len {
        return Ok(len);
    }
    Err(TypeError::Truncated {
        needed: 4 + len - buf.len(),
    })
}

/// For the one-frame decoders, a frame that is not all there yet is not an
/// error: `Ok(None)`, try again with more bytes.
fn whole_frame(len: Result<usize, TypeError>) -> Result<Option<usize>, TypeError> {
    match len {
        Ok(len) => Ok(Some(len)),
        Err(TypeError::Truncated { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

impl Wire for u8 {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&[*self]);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        r.u8()
    }
}

impl Wire for u32 {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        r.take().map(u32::from_le_bytes)
    }
}

impl Wire for u64 {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        r.take().map(u64::from_le_bytes)
    }
}

impl Wire for Bytes {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        w.put_len(self.len());
        w.put(self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let len = r.len_prefix("bytes")?;
        r.bytes(len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            None => w.put(&[0]),
            Some(v) => {
                w.put(&[1]);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => bad_tag("Option", v),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let len = r.len_prefix("vec")?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! wire_newtype {
    ($($t:ident($inner:ty)),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, w: &mut Writer<'_>) {
                self.0.encode(w);
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
                <$inner>::decode(r).map($t)
            }
        }
    )*};
}

wire_newtype!(
    ObjectId(u32),
    SwitchId(u32),
    ReplicaId(u32),
    ClientId(u32),
    RequestId(u64)
);

impl Wire for SwitchSeq {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        self.switch_id.encode(w);
        self.seq.encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        Ok(SwitchSeq {
            switch_id: SwitchId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

/// Five bytes whatever the variant, so `dst` and everything behind it sit
/// at constant offsets: a tag, then the id (zero for the controller, which
/// has none — anything else there is junk and is refused).
impl Wire for NodeId {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        let (tag, id) = match *self {
            NodeId::Client(c) => (0, c.0),
            NodeId::Replica(r) => (1, r.0),
            NodeId::Switch(s) => (2, s.0),
            NodeId::Controller => (3, 0),
        };
        w.put(&[tag]);
        id.encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let (tag, id) = (r.u8()?, u32::decode(r)?);
        match (tag, id) {
            (0, _) => Ok(NodeId::Client(ClientId(id))),
            (1, _) => Ok(NodeId::Replica(ReplicaId(id))),
            (2, _) => Ok(NodeId::Switch(SwitchId(id))),
            (3, 0) => Ok(NodeId::Controller),
            _ => bad_tag("NodeId", tag),
        }
    }
}

impl Wire for WriteOutcome {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&[match self {
            WriteOutcome::Committed => 0,
            WriteOutcome::DroppedBySwitch => 1,
            WriteOutcome::Rejected => 2,
        }]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(WriteOutcome::Committed),
            1 => Ok(WriteOutcome::DroppedBySwitch),
            2 => Ok(WriteOutcome::Rejected),
            v => bad_tag("WriteOutcome", v),
        }
    }
}

impl Wire for WriteCompletion {
    fn encode(&self, w: &mut Writer<'_>) {
        self.obj.encode(w);
        self.seq.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        Ok(WriteCompletion {
            obj: ObjectId::decode(r)?,
            seq: SwitchSeq::decode(r)?,
        })
    }
}

/// Decode a `T` iff its flag is set — how the header's flags byte turns
/// back into `Option`s.
fn flagged<T: Wire>(
    flags: PacketFlags,
    flag: PacketFlags,
    r: &mut Reader<'_>,
) -> Result<Option<T>, TypeError> {
    flags.contains(flag).then(|| T::decode(r)).transpose()
}

/// Refuse a flags byte with a bit outside `allowed` set: an undefined bit
/// (or a reply's bit on a request) is junk, not a field to skip.
fn check_flags(flags: PacketFlags, allowed: u8) -> Result<(), TypeError> {
    if flags.0 & !allowed != 0 {
        return bad_tag("PacketFlags", flags.0);
    }
    Ok(())
}

/// The Harmonia header's fields behind `dst` (see the module docs). The
/// kind and flags bytes in front belong to the envelope; a request that
/// travels bare is led by its flags byte alone.
impl ClientRequest {
    const FLAGS: u8 = PacketFlags::WRITE.0
        | PacketFlags::VALUE.0
        | PacketFlags::SEQ.0
        | PacketFlags::LAST_COMMITTED.0
        | PacketFlags::FAST_PATH.0;

    fn flags(&self) -> PacketFlags {
        PacketFlags::default()
            .with(PacketFlags::WRITE, self.op == OpKind::Write)
            .with(PacketFlags::VALUE, self.value.is_some())
            .with(PacketFlags::SEQ, self.seq.is_some())
            .with(PacketFlags::LAST_COMMITTED, self.last_committed.is_some())
            .with(PacketFlags::FAST_PATH, self.read_mode.is_fast_path())
    }

    /// Bytes from `client` to the last length field: what the flags say
    /// the header holds before the payload starts.
    fn header_len(flags: PacketFlags) -> usize {
        let on = |flag| usize::from(flags.contains(flag));
        20 + 12 * on(PacketFlags::SEQ)
            + 12 * on(PacketFlags::LAST_COMMITTED)
            + 4 * on(PacketFlags::FAST_PATH)
            + 4 * on(PacketFlags::VALUE)
    }

    #[inline]
    fn encode_fields(&self, w: &mut Writer<'_>) {
        self.client.encode(w);
        self.request.encode(w);
        self.obj.encode(w);
        if let Some(seq) = &self.seq {
            seq.encode(w);
        }
        if let Some(last_committed) = &self.last_committed {
            last_committed.encode(w);
        }
        if let ReadMode::FastPath { switch } = &self.read_mode {
            switch.encode(w);
        }
        w.put_len(self.key.len());
        if let Some(value) = &self.value {
            w.put_len(value.len());
        }
        w.put(&self.key);
        w.put(self.value.as_deref().unwrap_or_default());
    }

    #[inline]
    fn decode_fields(flags: PacketFlags, r: &mut Reader<'_>) -> Result<Self, TypeError> {
        check_flags(flags, Self::FLAGS)?;
        // The one length check that admits the header. (Each read below
        // still goes through the checked cursor; none can come up short.)
        r.need(Self::header_len(flags))?;
        let client = ClientId::decode(r)?;
        let request = RequestId::decode(r)?;
        let obj = ObjectId::decode(r)?;
        let seq = flagged(flags, PacketFlags::SEQ, r)?;
        let last_committed = flagged(flags, PacketFlags::LAST_COMMITTED, r)?;
        let read_mode = match flagged(flags, PacketFlags::FAST_PATH, r)? {
            Some(switch) => ReadMode::FastPath { switch },
            None => ReadMode::Normal,
        };
        let key_len = r.len_prefix("bytes")?;
        let value_len = if flags.contains(PacketFlags::VALUE) {
            Some(r.len_prefix("bytes")?)
        } else {
            None
        };
        Ok(ClientRequest {
            client,
            request,
            op: if flags.contains(PacketFlags::WRITE) {
                OpKind::Write
            } else {
                OpKind::Read
            },
            obj,
            key: r.bytes(key_len)?,
            value: value_len.map(|len| r.bytes(len)).transpose()?,
            seq,
            last_committed,
            read_mode,
        })
    }
}

impl Wire for ClientRequest {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&[self.flags().0]);
        self.encode_fields(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let flags = PacketFlags(r.u8()?);
        Self::decode_fields(flags, r)
    }
}

/// As [`ClientRequest`]: the reply half of the Harmonia header.
impl ClientReply {
    const FLAGS: u8 =
        PacketFlags::VALUE.0 | PacketFlags::WRITE_OUTCOME.0 | PacketFlags::PIGGYBACK_COMPLETION.0;

    fn flags(&self) -> PacketFlags {
        PacketFlags::default()
            .with(PacketFlags::VALUE, self.value.is_some())
            .with(PacketFlags::WRITE_OUTCOME, self.write_outcome.is_some())
            .with(PacketFlags::PIGGYBACK_COMPLETION, self.completion.is_some())
    }

    fn header_len(flags: PacketFlags) -> usize {
        let on = |flag| usize::from(flags.contains(flag));
        20 + on(PacketFlags::WRITE_OUTCOME)
            + 16 * on(PacketFlags::PIGGYBACK_COMPLETION)
            + 4 * on(PacketFlags::VALUE)
    }

    #[inline]
    fn encode_fields(&self, w: &mut Writer<'_>) {
        self.client.encode(w);
        self.request.encode(w);
        self.obj.encode(w);
        self.from.encode(w);
        if let Some(outcome) = &self.write_outcome {
            outcome.encode(w);
        }
        if let Some(completion) = &self.completion {
            completion.encode(w);
        }
        if let Some(value) = &self.value {
            value.encode(w);
        }
    }

    #[inline]
    fn decode_fields(flags: PacketFlags, r: &mut Reader<'_>) -> Result<Self, TypeError> {
        check_flags(flags, Self::FLAGS)?;
        r.need(Self::header_len(flags))?;
        let client = ClientId::decode(r)?;
        let request = RequestId::decode(r)?;
        let obj = ObjectId::decode(r)?;
        Ok(ClientReply {
            client,
            from: ReplicaId::decode(r)?,
            request,
            obj,
            write_outcome: flagged(flags, PacketFlags::WRITE_OUTCOME, r)?,
            completion: flagged(flags, PacketFlags::PIGGYBACK_COMPLETION, r)?,
            value: flagged(flags, PacketFlags::VALUE, r)?,
        })
    }
}

impl Wire for ClientReply {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&[self.flags().0]);
        self.encode_fields(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let flags = PacketFlags(r.u8()?);
        Self::decode_fields(flags, r)
    }
}

impl Wire for ControlMsg {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            ControlMsg::AddReplica(r) => {
                w.put(&[0]);
                r.encode(w);
            }
            ControlMsg::RemoveReplica(r) => {
                w.put(&[1]);
                r.encode(w);
            }
            ControlMsg::SetReplicas(rs) => {
                w.put(&[2]);
                rs.encode(w);
            }
            ControlMsg::GateReplica(r) => {
                w.put(&[3]);
                r.encode(w);
            }
            ControlMsg::UngateReplica { replica, caught_up } => {
                w.put(&[4]);
                replica.encode(w);
                caught_up.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(ControlMsg::AddReplica(ReplicaId::decode(r)?)),
            1 => Ok(ControlMsg::RemoveReplica(ReplicaId::decode(r)?)),
            2 => Ok(ControlMsg::SetReplicas(Vec::<ReplicaId>::decode(r)?)),
            3 => Ok(ControlMsg::GateReplica(ReplicaId::decode(r)?)),
            4 => Ok(ControlMsg::UngateReplica {
                replica: ReplicaId::decode(r)?,
                caught_up: SwitchSeq::decode(r)?,
            }),
            v => bad_tag("ControlMsg", v),
        }
    }
}

/// A body is its kind and flags bytes, then its fields; [`Packet`] puts
/// `src` and `dst` between the two.
impl<T: Wire> PacketBody<T> {
    fn head(&self) -> [u8; 2] {
        match self {
            PacketBody::Request(r) => [0, r.flags().0],
            PacketBody::Reply(r) => [1, r.flags().0],
            PacketBody::Completion(_) => [2, 0],
            PacketBody::Protocol(_) => [3, 0],
            PacketBody::Control(_) => [4, 0],
        }
    }

    fn encode_fields(&self, w: &mut Writer<'_>) {
        match self {
            PacketBody::Request(r) => r.encode_fields(w),
            PacketBody::Reply(r) => r.encode_fields(w),
            PacketBody::Completion(c) => c.encode(w),
            PacketBody::Protocol(p) => p.encode(w),
            PacketBody::Control(c) => c.encode(w),
        }
    }

    fn decode_fields([kind, flags]: [u8; 2], r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let flags = PacketFlags(flags);
        match kind {
            0 => ClientRequest::decode_fields(flags, r).map(PacketBody::Request),
            1 => ClientReply::decode_fields(flags, r).map(PacketBody::Reply),
            // The other kinds have no optional fields: a set bit is junk.
            2..=4 if flags.0 != 0 => bad_tag("PacketFlags", flags.0),
            2 => WriteCompletion::decode(r).map(PacketBody::Completion),
            3 => T::decode(r).map(PacketBody::Protocol),
            4 => ControlMsg::decode(r).map(PacketBody::Control),
            v => bad_tag("PacketBody", v),
        }
    }
}

impl<T: Wire> Wire for PacketBody<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&self.head());
        self.encode_fields(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let head = r.take()?;
        Self::decode_fields(head, r)
    }
}

impl<T: Wire> Wire for Packet<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put(&self.body.head());
        self.src.encode(w);
        self.dst.encode(w);
        self.body.encode_fields(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let head = r.take()?;
        Ok(Packet {
            src: NodeId::decode(r)?,
            dst: NodeId::decode(r)?,
            body: PacketBody::decode_fields(head, r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let frame = encode_frame(v).unwrap();
        let (decoded, used) = decode_frame::<T>(&frame).unwrap().unwrap();
        assert_eq!(&decoded, v);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&Bytes::from_static(b"hello"));
        roundtrip(&Some(42u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u32, 2, 3]);
    }

    #[test]
    fn request_roundtrip() {
        let mut r = ClientRequest::write(ClientId(9), RequestId(77), &b"key"[..], &b"val"[..]);
        r.seq = Some(SwitchSeq::new(SwitchId(2), 1234));
        r.last_committed = Some(SwitchSeq::new(SwitchId(2), 1200));
        r.read_mode = ReadMode::FastPath {
            switch: SwitchId(2),
        };
        roundtrip(&r);
    }

    #[test]
    fn reply_roundtrip() {
        let r = ClientReply {
            client: ClientId(1),
            from: ReplicaId(4),
            request: RequestId(2),
            obj: ObjectId(3),
            value: Some(Bytes::from_static(b"v")),
            write_outcome: Some(WriteOutcome::Committed),
            completion: Some(WriteCompletion {
                obj: ObjectId(3),
                seq: SwitchSeq::new(SwitchId(1), 5),
            }),
        };
        roundtrip(&r);
    }

    #[test]
    fn packet_roundtrip_all_bodies() {
        type P = Packet<u64>;
        let bodies: Vec<PacketBody<u64>> = vec![
            PacketBody::Request(ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..])),
            PacketBody::Completion(WriteCompletion {
                obj: ObjectId(7),
                seq: SwitchSeq::new(SwitchId(1), 9),
            }),
            PacketBody::Protocol(0xdead_beef),
            PacketBody::Control(ControlMsg::SetReplicas(vec![ReplicaId(0), ReplicaId(1)])),
            PacketBody::Control(ControlMsg::GateReplica(ReplicaId(2))),
            PacketBody::Control(ControlMsg::UngateReplica {
                replica: ReplicaId(2),
                caught_up: SwitchSeq::new(SwitchId(1), 41),
            }),
        ];
        for body in bodies {
            let p: P = Packet::new(
                NodeId::Client(ClientId(1)),
                NodeId::Switch(SwitchId(1)),
                body,
            );
            roundtrip(&p);
        }
    }

    #[test]
    fn partial_frame_returns_none() {
        let frame = encode_frame(&u64::MAX).unwrap();
        for cut in 0..frame.len() {
            assert!(decode_frame::<u64>(&frame[..cut]).unwrap().is_none());
        }
    }

    #[test]
    fn encode_refuses_oversized_frames() {
        // A value field larger than the frame bound must be an encode-time
        // error, never a silently truncated frame the peer cannot parse.
        let huge = Bytes::from(vec![0u8; MAX_FRAME_BYTES]);
        assert!(matches!(
            encode_frame(&huge),
            Err(TypeError::OversizedField { field: "frame", .. })
        ));
        // Just under the bound round-trips: frame = 4 (prefix) + 4 (field
        // length) + payload.
        let fits = Bytes::from(vec![7u8; MAX_FRAME_BYTES - 8]);
        let frame = encode_frame(&fits).unwrap();
        assert_eq!(frame.len(), MAX_FRAME_BYTES);
        let (decoded, used) = decode_frame::<Bytes>(&frame).unwrap().unwrap();
        assert_eq!(decoded, fits);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn shared_decode_matches_and_aliases() {
        let mut r = ClientRequest::write(ClientId(3), RequestId(11), &b"a-key"[..], &b"a-val"[..]);
        r.seq = Some(SwitchSeq::new(SwitchId(1), 7));
        let frame = encode_frame(&r).unwrap();
        let (decoded, used) = decode_frame_shared::<ClientRequest>(&frame)
            .unwrap()
            .unwrap();
        assert_eq!(decoded, r);
        assert_eq!(used, frame.len());
        // Zero-copy: the decoded key points into the frame's own storage.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        let key_ptr = decoded.key.as_ptr() as usize;
        assert!(
            frame_range.contains(&key_ptr),
            "key was copied out of the frame buffer"
        );
    }

    #[test]
    fn declared_body_must_be_fully_consumed() {
        // A frame whose length prefix covers the value *plus* junk decodes
        // the value fine but must still be rejected: the junk is inside the
        // declared body, invisible to the transport's whole-datagram check.
        let clean = encode_frame(&7u32).unwrap();
        let mut padded = BytesMut::new();
        padded.extend_from_slice(&((clean.len() - 4 + 3) as u32).to_le_bytes());
        padded.extend_from_slice(&clean[4..]);
        padded.extend_from_slice(&[0xee, 0xee, 0xee]);
        let padded = padded.freeze();
        assert_eq!(
            decode_frame::<u32>(&padded),
            Err(TypeError::TrailingBytes { len: 3 })
        );
        assert_eq!(
            decode_frame_shared::<u32>(&padded),
            Err(TypeError::TrailingBytes { len: 3 })
        );
    }

    #[test]
    fn encode_into_matches_encode_frame_and_rolls_back() {
        let r = ClientRequest::write(ClientId(9), RequestId(77), &b"key"[..], &b"val"[..]);
        let standalone = encode_frame(&r).unwrap();
        // Appending after existing content produces the same frame bytes.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"prior");
        let n = encode_frame_into(&r, &mut buf).unwrap();
        assert_eq!(n, standalone.len());
        assert_eq!(&buf[5..], &standalone[..]);
        // An oversized value rolls the buffer back to exactly where it was.
        let huge = Bytes::from(vec![0u8; MAX_FRAME_BYTES]);
        let before = buf.len();
        assert!(matches!(
            encode_frame_into(&huge, &mut buf),
            Err(TypeError::OversizedField { field: "frame", .. })
        ));
        assert_eq!(buf.len(), before, "failed encode must not disturb buf");
        assert_eq!(&buf[5..], &standalone[..]);
    }

    #[test]
    fn frames_iterates_coalesced_datagrams() {
        let values = [1u64, u64::MAX, 42, 7];
        let mut buf = BytesMut::new();
        for v in &values {
            encode_frame_into(v, &mut buf).unwrap();
        }
        let datagram = buf.freeze();
        let decoded: Vec<u64> = frames::<u64>(&datagram).map(|r| r.unwrap()).collect();
        assert_eq!(decoded, values);
        // An empty datagram iterates cleanly to nothing.
        assert_eq!(frames::<u64>(&Bytes::new()).count(), 0);
    }

    #[test]
    fn frames_salvages_valid_prefix_before_bad_tail() {
        let mut buf = BytesMut::new();
        encode_frame_into(&3u32, &mut buf).unwrap();
        encode_frame_into(&4u32, &mut buf).unwrap();
        buf.extend_from_slice(&[0xde, 0xad]); // garbage tail: cut-off header
        let datagram = buf.freeze();
        let mut it = frames::<u32>(&datagram);
        assert_eq!(it.next(), Some(Ok(3)));
        assert_eq!(it.next(), Some(Ok(4)));
        assert_eq!(it.next(), Some(Err(TypeError::Truncated { needed: 2 })));
        assert_eq!(it.next(), None, "iterator must fuse after an error");
        assert_eq!(it.used(), 16, "used counts only the valid frames");
    }

    #[test]
    fn frames_never_panics_on_any_cut() {
        // Truncate a two-frame datagram at every byte boundary: each cut
        // yields the decodable prefix then at most one error, never a panic.
        let mut buf = BytesMut::new();
        encode_frame_into(&0xaabbu64, &mut buf).unwrap();
        encode_frame_into(&0xccddu64, &mut buf).unwrap();
        let full = buf.freeze();
        for cut in 0..=full.len() {
            let datagram = full.slice(0..cut);
            let mut ok = 0usize;
            let mut errs = 0usize;
            for item in frames::<u64>(&datagram) {
                match item {
                    Ok(_) => ok += 1,
                    Err(_) => errs += 1,
                }
            }
            let whole_frames = [0, 12, 24].iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(ok, whole_frames, "cut={cut}");
            assert_eq!(errs, usize::from(cut != 0 && cut != 12 && cut != 24));
        }
    }

    #[test]
    fn bad_discriminant_is_an_error() {
        let b = Bytes::from_static(&[9]); // not a valid WriteOutcome
        assert!(matches!(
            WriteOutcome::decode(&mut Reader::new(&b)),
            Err(TypeError::BadDiscriminant {
                field: "WriteOutcome",
                value: 9,
            })
        ));
    }

    #[test]
    fn oversized_field_rejected() {
        let frame = u32::MAX.to_le_bytes(); // absurd frame length
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(TypeError::OversizedField { .. })
        ));
    }

    // ---- the header, byte for byte -------------------------------------
    //
    // Four golden frames, one per step of the paper's data path. A moved
    // offset, a renumbered flag or a reordered optional fails here, next to
    // the bytes that document it (the table in the module docs).

    const CLIENT: [u8; 4] = [7, 0, 0, 0];
    const REQUEST: [u8; 8] = [0x02, 0x01, 0, 0, 0, 0, 0, 0];
    const OBJ: [u8; 4] = [0xd4, 0xc3, 0xb2, 0xa1];

    fn golden_request(op: fn(&mut ClientRequest)) -> ClientRequest {
        let mut r = ClientRequest::read(ClientId(7), RequestId(0x0102), &b"k1"[..]);
        r.obj = ObjectId(0xa1b2_c3d4);
        op(&mut r);
        r
    }

    /// The frame must be exactly `parts`, and `parts` must decode to `pkt`.
    fn assert_golden(pkt: &Packet<u64>, parts: &[&[u8]]) {
        let golden = parts.concat();
        assert_eq!(&encode_frame(pkt).unwrap()[..], &golden[..]);
        assert_eq!(
            decode_frame::<Packet<u64>>(&golden),
            Ok(Some((pkt.clone(), golden.len())))
        );
    }

    #[test]
    fn golden_unstamped_read_request() {
        let pkt = Packet::new(
            NodeId::Client(ClientId(7)),
            NodeId::Switch(SwitchId(1)),
            PacketBody::Request(golden_request(|_| {})),
        );
        assert_golden(
            &pkt,
            &[
                &[34, 0, 0, 0],   // 0: body length
                &[0],             // 4: kind = request
                &[0b0000_0000],   // 5: flags: a read, nothing optional
                &[0, 7, 0, 0, 0], // 6: src = client 7
                &[2, 1, 0, 0, 0], // 11: dst = switch 1
                &CLIENT,          // 16
                &REQUEST,         // 20
                &OBJ,             // 28
                &[2, 0, 0, 0],    // 32: key length
                b"k1",            // 36: payload
            ],
        );
    }

    #[test]
    fn golden_stamped_write_request() {
        let pkt = Packet::new(
            NodeId::Client(ClientId(7)),
            NodeId::Replica(ReplicaId(0)),
            PacketBody::Request(golden_request(|r| {
                r.op = OpKind::Write;
                r.value = Some(Bytes::from_static(b"val"));
                r.seq = Some(SwitchSeq::new(SwitchId(2), 0x1122));
            })),
        );
        assert_golden(
            &pkt,
            &[
                &[53, 0, 0, 0],
                &[0],             // kind = request
                &[0b0100_1100],   // flags: WRITE | SEQ | VALUE
                &[0, 7, 0, 0, 0], // src = client 7
                &[1, 0, 0, 0, 0], // dst = replica 0 (the head)
                &CLIENT,
                &REQUEST,
                &OBJ,
                &[2, 0, 0, 0, 0x22, 0x11, 0, 0, 0, 0, 0, 0], // 32: seq = 2:0x1122
                &[2, 0, 0, 0],                               // 44: key length
                &[3, 0, 0, 0],                               // 48: value length
                b"k1",                                       // 52: payload: key, value
                b"val",
            ],
        );
    }

    #[test]
    fn golden_fast_path_read_as_the_switch_re_emits_it() {
        let pkt = Packet::new(
            NodeId::Client(ClientId(7)),
            NodeId::Replica(ReplicaId(1)),
            PacketBody::Request(golden_request(|r| {
                r.last_committed = Some(SwitchSeq::new(SwitchId(2), 0x1121));
                r.read_mode = ReadMode::FastPath {
                    switch: SwitchId(2),
                };
            })),
        );
        assert_golden(
            &pkt,
            &[
                &[50, 0, 0, 0],
                &[0],             // kind = request
                &[0b0001_0001],   // flags: LAST_COMMITTED | FAST_PATH
                &[0, 7, 0, 0, 0], // src = client 7
                &[1, 1, 0, 0, 0], // dst = replica 1 (the switch's pick)
                &CLIENT,
                &REQUEST,
                &OBJ,
                &[2, 0, 0, 0, 0x21, 0x11, 0, 0, 0, 0, 0, 0], // 32: last committed = 2:0x1121
                &[2, 0, 0, 0],                               // 44: fast-path switch = 2
                &[2, 0, 0, 0],                               // 48: key length
                b"k1",                                       // 52: payload
            ],
        );
    }

    #[test]
    fn golden_write_reply_with_piggybacked_completion() {
        let pkt = Packet::new(
            NodeId::Replica(ReplicaId(2)),
            NodeId::Switch(SwitchId(2)),
            PacketBody::Reply(ClientReply {
                client: ClientId(7),
                from: ReplicaId(2),
                request: RequestId(0x0102),
                obj: ObjectId(0xa1b2_c3d4),
                value: None,
                write_outcome: Some(WriteOutcome::Committed),
                completion: Some(WriteCompletion {
                    obj: ObjectId(0xa1b2_c3d4),
                    seq: SwitchSeq::new(SwitchId(2), 0x1122),
                }),
            }),
        );
        assert_golden(
            &pkt,
            &[
                &[49, 0, 0, 0],
                &[1],             // kind = reply
                &[0b0010_0010],   // flags: WRITE_OUTCOME | PIGGYBACK_COMPLETION
                &[1, 2, 0, 0, 0], // src = replica 2 (the tail)
                &[2, 2, 0, 0, 0], // dst = switch 2, which snoops the completion
                &CLIENT,
                &REQUEST,
                &OBJ,
                &[2, 0, 0, 0], // 32: from = replica 2
                &[0],          // 36: write outcome = committed
                &OBJ,          // 37: completion: object id, then seq = 2:0x1122
                &[2, 0, 0, 0, 0x22, 0x11, 0, 0, 0, 0, 0, 0],
            ],
        );
    }

    #[test]
    fn empty_value_and_no_value_stay_distinct() {
        let key = &b"k"[..];
        let empty = ClientRequest::write(ClientId(1), RequestId(1), key, Bytes::new());
        let mut none = empty.clone();
        none.value = None;
        assert_ne!(encode_frame(&empty).unwrap(), encode_frame(&none).unwrap());
        roundtrip(&empty);
        roundtrip(&none);
        let mut reply = ClientReply {
            client: ClientId(1),
            from: ReplicaId(0),
            request: RequestId(1),
            obj: ObjectId(3),
            value: Some(Bytes::new()),
            write_outcome: None,
            completion: None,
        };
        let stored_empty = encode_frame(&reply).unwrap();
        roundtrip(&reply);
        reply.value = None;
        assert_ne!(stored_empty, encode_frame(&reply).unwrap());
        roundtrip(&reply);
    }

    #[test]
    fn controller_and_fast_path_roundtrip() {
        roundtrip(&NodeId::Controller);
        let mut fast = ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]);
        // The issuing switch is a field of its own: it need not be the one
        // in a stamp, and a fast-path read may carry no stamp at all.
        fast.read_mode = ReadMode::FastPath {
            switch: SwitchId(9),
        };
        roundtrip(&fast);
        fast.last_committed = Some(SwitchSeq::new(SwitchId(3), 5));
        roundtrip(&fast);
        let pkt: Packet<u64> = Packet::new(
            NodeId::Controller,
            NodeId::Switch(SwitchId(1)),
            PacketBody::Request(fast),
        );
        roundtrip(&pkt);
    }

    #[test]
    fn junk_in_the_header_is_refused() {
        let pkt: Packet<u64> = Packet::new(
            NodeId::Controller,
            NodeId::Switch(SwitchId(1)),
            PacketBody::Request(ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..])),
        );
        let clean = encode_frame(&pkt).unwrap().to_vec();
        let refused = |at: usize, byte: u8, field: &'static str| {
            let mut frame = clean.clone();
            frame[at] = byte;
            assert_eq!(
                decode_frame::<Packet<u64>>(&frame),
                Err(TypeError::BadDiscriminant {
                    field,
                    value: u64::from(byte),
                }),
                "byte {at} = {byte:#x}"
            );
        };
        refused(4, 5, "PacketBody"); // no such kind
        refused(5, 0x80, "PacketFlags"); // a bit nobody defined
        refused(5, 0x20, "PacketFlags"); // a reply's bit on a request
        refused(6, 4, "NodeId"); // no such node tag
                                 // The controller has no id: a non-zero one is junk, not ignored.
        let mut frame = clean.clone();
        frame[7] = 1;
        assert!(matches!(
            decode_frame::<Packet<u64>>(&frame),
            Err(TypeError::BadDiscriminant {
                field: "NodeId",
                ..
            })
        ));
        // Kinds without optional fields carry no flags.
        let done: Packet<u64> = Packet::new(
            NodeId::Replica(ReplicaId(2)),
            NodeId::Switch(SwitchId(1)),
            PacketBody::Completion(WriteCompletion {
                obj: ObjectId(7),
                seq: SwitchSeq::new(SwitchId(1), 9),
            }),
        );
        let mut frame = encode_frame(&done).unwrap().to_vec();
        frame[5] = 0x04;
        assert_eq!(
            decode_frame::<Packet<u64>>(&frame),
            Err(TypeError::BadDiscriminant {
                field: "PacketFlags",
                value: 4,
            })
        );
    }

    #[test]
    fn a_short_header_is_one_truncation_with_the_whole_shortfall() {
        // The flags admit the header in one check: a fast-path read cut
        // anywhere inside its header reports every byte the header still
        // needs, not just the field the cursor happened to stand on.
        let mut fast = ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]);
        fast.last_committed = Some(SwitchSeq::new(SwitchId(3), 5));
        fast.read_mode = ReadMode::FastPath {
            switch: SwitchId(3),
        };
        let frame = encode_frame(&fast).unwrap();
        let header = 1 + 20 + 12 + 4; // flags, fixed fields + key length, stamp, switch
        for body_len in 1..header {
            let mut cut = (body_len as u32).to_le_bytes().to_vec();
            cut.extend_from_slice(&frame[4..4 + body_len]);
            assert_eq!(
                decode_frame::<ClientRequest>(&cut),
                Err(TypeError::Truncated {
                    needed: header - body_len
                }),
                "body_len={body_len}"
            );
        }
    }
}
