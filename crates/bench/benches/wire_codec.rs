//! Wire-codec microbenchmarks: encode/decode cost per packet variant.
//!
//! The UDP driver pays this codec on every datagram, so its per-packet cost
//! bounds the driver's attainable rate the same way the switch emulation's
//! nanoseconds bound the sim's. Requests/replies dominate the data plane;
//! the protocol variants (chain DOWN, NOPaxos SEQUENCED) dominate
//! replica↔replica traffic. `decode_shared` is the zero-copy receive path
//! (payloads alias the frame buffer); `decode` is the copying baseline —
//! the gap between the two columns is what pooled receive saves per packet.
//! `encode_into` is the zero-copy send path (append into a reused
//! `BytesMut`, as the coalescer does); its gap against `encode` is the
//! per-frame allocation the send pool saves. The `frames_x16` row is the
//! receive path as the transport runs it: one 16-frame read-request datagram
//! walked in place by `frames()`, in ns per frame.
//!
//! Timed by hand (median of sampled batches) rather than through criterion,
//! so the per-case ns/op can be emitted as `BENCH_wire_codec.json` — the
//! committed perf-trajectory snapshot ROADMAP item 3 calls for. Knobs:
//! `HARMONIA_LIVE_BENCH_MS` scales the sampling effort down for CI smoke
//! runs; `HARMONIA_BENCH_JSON=0` suppresses the snapshot.

// Wall-clock reads are deliberate here: benchmark: measures real elapsed time.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use harmonia_bench::{print_table, Snapshot};
use harmonia_replication::messages::{ChainMsg, NopaxosMsg, ProtocolMsg, WriteOp};
use harmonia_types::wire::{
    decode_frame, decode_frame_shared, encode_frame, encode_frame_into, frames,
};
use harmonia_types::{
    ClientId, ClientReply, ClientRequest, ControlMsg, NodeId, ObjectId, Packet, PacketBody,
    ReplicaId, RequestId, SwitchId, SwitchSeq, WriteCompletion, WriteOutcome,
};

type Pkt = Packet<ProtocolMsg>;

fn op() -> WriteOp {
    WriteOp {
        seq: SwitchSeq::new(SwitchId(1), 42),
        obj: ObjectId::from_key(b"bench-key"),
        key: Bytes::from_static(b"bench-key"),
        value: Bytes::from(vec![0x5au8; 128]),
        client: ClientId(7),
        request: RequestId(99),
    }
}

fn variants() -> Vec<(&'static str, Pkt)> {
    let src = NodeId::Client(ClientId(7));
    let dst = NodeId::Switch(SwitchId(1));
    let mut write = ClientRequest::write(
        ClientId(7),
        RequestId(99),
        &b"bench-key"[..],
        vec![0x5au8; 128],
    );
    write.seq = Some(SwitchSeq::new(SwitchId(1), 42));
    let reply = ClientReply {
        client: ClientId(7),
        from: ReplicaId(2),
        request: RequestId(99),
        obj: ObjectId::from_key(b"bench-key"),
        value: None,
        write_outcome: Some(WriteOutcome::Committed),
        completion: Some(WriteCompletion {
            obj: ObjectId::from_key(b"bench-key"),
            seq: SwitchSeq::new(SwitchId(1), 42),
        }),
    };
    vec![
        (
            "request_read",
            Packet::new(
                src,
                dst,
                PacketBody::Request(ClientRequest::read(
                    ClientId(7),
                    RequestId(98),
                    &b"bench-key"[..],
                )),
            ),
        ),
        (
            "request_write_128B",
            Packet::new(src, dst, PacketBody::Request(write)),
        ),
        (
            "reply_with_completion",
            Packet::new(dst, src, PacketBody::Reply(reply)),
        ),
        (
            "completion",
            Packet::new(
                NodeId::Replica(ReplicaId(2)),
                dst,
                PacketBody::Completion(WriteCompletion {
                    obj: ObjectId::from_key(b"bench-key"),
                    seq: SwitchSeq::new(SwitchId(1), 42),
                }),
            ),
        ),
        (
            "protocol_chain_down",
            Packet::new(
                NodeId::Replica(ReplicaId(0)),
                NodeId::Replica(ReplicaId(1)),
                PacketBody::Protocol(ProtocolMsg::Chain(ChainMsg::Down(op()))),
            ),
        ),
        (
            "protocol_nopaxos_sequenced",
            Packet::new(
                dst,
                NodeId::Replica(ReplicaId(1)),
                PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
                    session: 1,
                    oum_seq: 42,
                    op: op(),
                })),
            ),
        ),
        (
            "control_set_replicas",
            Packet::new(
                NodeId::Controller,
                dst,
                PacketBody::Control(ControlMsg::SetReplicas(vec![
                    ReplicaId(0),
                    ReplicaId(1),
                    ReplicaId(2),
                ])),
            ),
        ),
    ]
}

/// Median batch time over `SAMPLES` batches of `BATCH` calls, in ns/op.
/// Median (not mean) so a stray scheduler preemption cannot skew a row.
fn time_ns_per_op(mut f: impl FnMut()) -> f64 {
    // Scale effort with the CI smoke knob: the default 400 "ms" window maps
    // to 40 samples of 2000 ops.
    let effort = harmonia_bench::live_measure_window().as_millis() as usize;
    let samples = (effort / 10).clamp(5, 100);
    let batch = 2000usize;
    // Warm-up: touch the allocator and branch predictors off the clock.
    for _ in 0..batch {
        f();
    }
    let mut per_batch: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    per_batch.sort_by(|a, b| a.total_cmp(b));
    per_batch[per_batch.len() / 2] / batch as f64
}

struct Row {
    case: &'static str,
    frame_bytes: usize,
    encode_ns: f64,
    encode_into_ns: f64,
    decode_ns: f64,
    decode_shared_ns: f64,
    roundtrip_ns: f64,
}

fn measure(case: &'static str, pkt: &Pkt) -> Row {
    let frame = encode_frame(pkt).unwrap();
    let encode_ns = time_ns_per_op(|| {
        black_box(encode_frame(black_box(pkt)).unwrap());
    });
    let mut scratch = BytesMut::with_capacity(frame.len() * 2);
    let encode_into_ns = time_ns_per_op(|| {
        scratch.clear();
        black_box(encode_frame_into(black_box(pkt), &mut scratch).unwrap());
    });
    let decode_ns = time_ns_per_op(|| {
        black_box(decode_frame::<Pkt>(black_box(&frame)).unwrap().unwrap());
    });
    let decode_shared_ns = time_ns_per_op(|| {
        black_box(
            decode_frame_shared::<Pkt>(black_box(&frame))
                .unwrap()
                .unwrap(),
        );
    });
    let roundtrip_ns = time_ns_per_op(|| {
        let f = encode_frame(black_box(pkt)).unwrap();
        black_box(decode_frame_shared::<Pkt>(&f).unwrap().unwrap());
    });
    Row {
        case,
        frame_bytes: frame.len(),
        encode_ns,
        encode_into_ns,
        decode_ns,
        decode_shared_ns,
        roundtrip_ns,
    }
}

/// Frames in the `frames_x16` datagram.
const COALESCED: usize = 16;

/// A coalesced datagram of [`COALESCED`] copies of `pkt` through `frames()`:
/// (frame bytes, ns per frame).
fn measure_frames(pkt: &Pkt) -> (usize, f64) {
    let mut buf = BytesMut::new();
    for _ in 0..COALESCED {
        encode_frame_into(pkt, &mut buf).unwrap();
    }
    let datagram = buf.freeze();
    let ns = time_ns_per_op(|| {
        for frame in frames::<Pkt>(black_box(&datagram)) {
            black_box(frame.unwrap());
        }
    });
    (datagram.len() / COALESCED, ns / COALESCED as f64)
}

fn write_json(rows: &[Row], (frame_bytes, frames_ns): (usize, f64)) {
    // Schema 4: the `frames_x16` row (its own columns) joined the
    // per-variant rows, which are unchanged from 3.
    let mut snap = Snapshot::new(
        "wire_codec",
        4,
        "Per-variant codec cost; decode_shared is the zero-copy \
         (Bytes-aliasing) receive path, decode the copying baseline; encode_into appends \
         into a reused buffer (the coalescer's zero-copy send path), encode allocates; \
         frames_x16 walks one 16-frame read-request datagram in place with frames()",
    );
    snap.text("unit", "ns_per_op");
    let mut rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{ \"case\": \"{}\", \"frame_bytes\": {}, \"encode_ns\": {:.1}, \
                 \"encode_into_ns\": {:.1}, \"decode_ns\": {:.1}, \"decode_shared_ns\": {:.1}, \
                 \"roundtrip_ns\": {:.1} }}",
                r.case,
                r.frame_bytes,
                r.encode_ns,
                r.encode_into_ns,
                r.decode_ns,
                r.decode_shared_ns,
                r.roundtrip_ns
            )
        })
        .collect();
    rendered.push(format!(
        "{{ \"case\": \"frames_x16\", \"frame_bytes\": {frame_bytes}, \
         \"frames\": {COALESCED}, \"ns_per_frame\": {frames_ns:.1} }}"
    ));
    snap.rows("rows", &rendered);
    snap.write();
}

fn main() {
    let cases = variants();
    let rows: Vec<Row> = cases.iter().map(|(name, pkt)| measure(name, pkt)).collect();
    let (_, read_request) = &cases[0];
    let coalesced = measure_frames(read_request);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.case.to_string(),
                r.frame_bytes.to_string(),
                format!("{:.1}", r.encode_ns),
                format!("{:.1}", r.encode_into_ns),
                format!("{:.1}", r.decode_ns),
                format!("{:.1}", r.decode_shared_ns),
                format!("{:.1}", r.roundtrip_ns),
            ]
        })
        .collect();
    print_table(
        "Wire codec: ns/op per packet variant",
        "tens of ns for small frames, growing with payload size; \
         decode_shared at or below decode (no payload memcpy, no body alloc); \
         enc_into at or below enc (reused buffer, no per-frame alloc)",
        &[
            "case",
            "bytes",
            "enc_ns",
            "enc_into_ns",
            "dec_ns",
            "dec_shared_ns",
            "rt_ns",
        ],
        &table,
    );
    println!(
        "frames_x16\t{}\t{:.1} ns/frame ({COALESCED} read requests in one datagram, walked in place)",
        coalesced.0, coalesced.1
    );
    // Sanity, not perf assertions: every path decodes what it encoded.
    for (name, pkt) in &cases {
        let frame = encode_frame(pkt).unwrap();
        let mut buf = BytesMut::new();
        encode_frame_into(pkt, &mut buf).unwrap();
        assert_eq!(&buf[..], &frame[..], "encode_into mismatch in {name}");
        let (a, _) = decode_frame::<Pkt>(&frame).unwrap().unwrap();
        let (b, _) = decode_frame_shared::<Pkt>(&frame).unwrap().unwrap();
        assert!(a == *pkt && b == *pkt, "codec mismatch in {name}");
    }
    write_json(&rows, coalesced);
}
