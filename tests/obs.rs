//! The unified observability surface, exercised driver-agnostically: the
//! same workload through `Box<dyn Cluster>` on all three drivers must yield
//! an [`ObsSnapshot`] whose switch, client, replica, and latency sections
//! are populated, whose trace timeline covers the run, and whose Prometheus
//! and JSON renderings are well-formed. Plus property tests on the bounded
//! trace ring: overflow drops oldest, never panics, and the accounting
//! (`recorded`/`dropped`) always balances.

mod common;

use common::make_plans;
use harmonia::obs::TraceRing;
use harmonia::prelude::*;
use harmonia::types::{RequestId, TraceId};
use proptest::prelude::*;

fn all_drivers(spec: &DeploymentSpec) -> Vec<(&'static str, Box<dyn Cluster>)> {
    vec![
        ("sim", Box::new(spec.build_sim())),
        ("live", Box::new(spec.spawn_live())),
        ("udp", Box::new(spec.spawn_udp())),
    ]
}

/// One snapshot from any driver exposes the full cross-layer picture:
/// switch counters, client counters, replica counters, latency quantiles,
/// and trace accounting — through nothing but the `Cluster` trait.
#[test]
fn snapshot_covers_every_layer_on_every_driver() {
    let spec = DeploymentSpec::new().protocol(ProtocolKind::Chain).seed(77);
    for (name, mut cluster) in all_drivers(&spec) {
        let plans = make_plans(3, 40, 8, 0.4, 77);
        let histories = cluster.run_plans(plans);
        let ops: u64 = histories.iter().flatten().filter(|r| r.ok).count() as u64;
        assert!(ops > 0, "{name}: workload ran");

        let snap = cluster.obs_snapshot();
        assert_eq!(snap.driver, name, "snapshot self-identifies its driver");
        assert_eq!(snap.protocol, "chain");
        assert_eq!((snap.groups, snap.replicas), (1, 3), "{name}");

        // Switch layer: the spine actually classified traffic.
        let sw = &snap.switch;
        assert!(sw.writes_forwarded > 0, "{name}: no writes forwarded");
        assert!(
            sw.reads_fast_path + sw.reads_normal > 0,
            "{name}: no reads classified"
        );
        assert_eq!(snap.per_group.len(), 1, "{name}: one group's detail");
        assert_eq!(
            snap.per_group[0].writes_forwarded, sw.writes_forwarded,
            "{name}: single-group totals agree with the spine aggregate"
        );

        // Client layer: issue/complete counters consistent with the
        // histories the harness already holds.
        let cl = &snap.clients;
        assert!(
            cl.reads_sent > 0 && cl.writes_sent > 0,
            "{name}: clients recorded sends: {cl:?}"
        );
        assert_eq!(
            cl.reads_done + cl.writes_done,
            ops,
            "{name}: completions match the recorded histories"
        );

        // Replica layer: every completed op executed somewhere.
        assert!(
            snap.replica.requests >= ops,
            "{name}: replicas executed at least one hop per op: {:?}",
            snap.replica
        );

        // Latency summaries: ordered quantiles with real samples.
        for (which, h) in [("read", &snap.read_latency), ("write", &snap.write_latency)] {
            assert!(h.count > 0, "{name}: no {which} latency samples");
            assert!(
                h.p50_ns <= h.p99_ns && h.p99_ns <= h.p999_ns && h.p999_ns <= h.max_ns,
                "{name}: {which} quantiles out of order: {h:?}"
            );
            assert!(h.p50_ns > 0, "{name}: {which} p50 is zero");
        }

        // Trace layer: the rings saw the run, and the merged timeline is
        // time-sorted with client bookends.
        let events = cluster.trace_events();
        assert!(
            snap.trace.recorded >= ops,
            "{name}: fewer trace events than ops"
        );
        assert!(!events.is_empty(), "{name}: no trace events surfaced");
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "{name}: trace timeline is not time-sorted"
        );
        assert!(
            events.iter().any(|e| e.stage == TraceStage::ClientSend)
                && events.iter().any(|e| e.stage == TraceStage::ClientDone),
            "{name}: timeline lacks client bookends"
        );
        assert!(
            events.iter().any(|e| e.stage == TraceStage::ReplicaExecute),
            "{name}: no replica-execute hop traced"
        );

        // Second pass: the synchronous `Cluster::client()` handle is a
        // client like any other — its operations move the same counters,
        // latency series and traces on every driver, the sim included.
        {
            let mut client = cluster.client();
            for i in 0..4 {
                client.set(format!("sync-{i}").as_bytes(), b"v").unwrap();
                client.get(format!("sync-{i}").as_bytes()).unwrap();
            }
        }
        let after = cluster.obs_snapshot();
        assert_eq!(
            (
                after.clients.reads_sent - cl.reads_sent,
                after.clients.writes_sent - cl.writes_sent,
                after.clients.reads_done - cl.reads_done,
                after.clients.writes_done - cl.writes_done,
            ),
            (4, 4, 4, 4),
            "{name}: client() operations are invisible to the snapshot"
        );
        assert_eq!(
            after.read_latency.count - snap.read_latency.count,
            4,
            "{name}: client() reads recorded no latency"
        );
        assert!(
            after.trace.recorded >= snap.trace.recorded + 16,
            "{name}: client() operations left no send/done traces"
        );
    }
}

/// The UDP driver is the only one with a wire: its snapshot must carry
/// transport and pool counters, and the in-memory drivers must report that
/// layer as all-zero rather than inventing numbers.
#[test]
fn transport_section_is_populated_only_where_a_wire_exists() {
    let spec = DeploymentSpec::new().seed(5);
    for (name, mut cluster) in all_drivers(&spec) {
        {
            let mut client = cluster.client();
            for i in 0..10 {
                client.set(format!("k{i}").as_bytes(), b"v").unwrap();
                client.get(format!("k{i}").as_bytes()).unwrap();
            }
        }
        let snap = cluster.obs_snapshot();
        let tr = &snap.transport;
        if name == "udp" {
            assert!(tr.frames_sent > 0, "udp: no frames counted");
            assert!(
                tr.datagrams_sent > 0 && tr.datagrams_sent <= tr.frames_sent,
                "udp: coalescing invariant violated: {tr:?}"
            );
            assert!(tr.frames_received > 0, "udp: no frames received");
            assert_eq!(tr.decode_errors, 0, "udp: clean run decoded everything");
            let p = &snap.pool;
            assert!(
                p.recv_hits + p.recv_misses > 0,
                "udp: receive pool never consulted"
            );
        } else {
            assert_eq!(
                *tr,
                Default::default(),
                "{name}: in-memory substrate must not fake wire counters"
            );
        }
    }
}

/// Both renderers accept any driver's snapshot: the Prometheus text carries
/// typed, labelled series and the JSON document is schema-versioned with a
/// fixed key order (same snapshot → same bytes).
#[test]
fn exporters_render_all_drivers() {
    let spec = DeploymentSpec::new().seed(11);
    for (name, mut cluster) in all_drivers(&spec) {
        {
            let mut client = cluster.client();
            client.set(b"a", b"1").unwrap();
            client.get(b"a").unwrap();
        }
        let snap = cluster.obs_snapshot();

        let prom = prometheus_text(&snap);
        assert!(
            prom.contains(&format!("driver=\"{name}\"")),
            "{name}: missing driver label"
        );
        assert!(prom.contains("# TYPE harmonia_switch_writes_forwarded counter"));
        assert!(prom.contains("# TYPE harmonia_read_latency_ns summary"));
        assert!(prom.contains("quantile=\"0.999\""));
        // Every exposition line is either a comment or name{labels} value.
        for line in prom.lines() {
            assert!(
                line.starts_with('#') || (line.contains('{') && line.contains("} ")),
                "{name}: malformed exposition line: {line}"
            );
        }

        let json = json_text(&snap);
        assert!(json.starts_with("{\n  \"schema_version\":"), "{name}");
        assert!(json.contains(&format!("\"driver\": \"{name}\"")));
        assert!(json.contains("\"p999_ns\":"), "{name}: no quantiles");
        assert_eq!(
            json,
            json_text(&snap),
            "{name}: same snapshot must render to the same bytes"
        );
        // Balanced braces/brackets — cheap well-formedness without a parser.
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'), "{name}: unbalanced");
    }
}

fn ev(i: u64) -> harmonia::obs::TraceEvent {
    harmonia::obs::TraceEvent {
        at: Instant::ZERO + Duration::from_nanos(i),
        node: NodeId::Client(ClientId(1)),
        id: TraceId::new(ClientId(1), RequestId(i)),
        obj: ObjectId(7),
        stage: TraceStage::ClientSend,
    }
}

proptest! {
    /// A bounded ring never panics and never exceeds its capacity, no
    /// matter how far past capacity it is pushed; overflow drops the
    /// *oldest* events, keeping the newest `cap` in push order; and the
    /// recorded/dropped accounting always balances.
    #[test]
    fn trace_ring_overflow_drops_oldest(cap in 1usize..64, pushes in 0u64..512) {
        let mut ring = TraceRing::new(cap);
        for i in 0..pushes {
            ring.push(ev(i));
        }
        prop_assert_eq!(ring.capacity(), cap);
        prop_assert_eq!(ring.len(), (pushes as usize).min(cap));
        prop_assert_eq!(ring.recorded(), pushes);
        prop_assert_eq!(ring.dropped(), pushes.saturating_sub(cap as u64));
        let kept = ring.events();
        let first_kept = pushes.saturating_sub(cap as u64);
        let expect: Vec<_> = (first_kept..pushes).map(ev).collect();
        prop_assert_eq!(kept, expect);
    }

    /// Interleaving reads with overflowing writes keeps the ring coherent:
    /// `events()` is always a contiguous, newest-suffix window.
    #[test]
    fn trace_ring_reads_between_overflows_stay_coherent(
        batches in prop::collection::vec(1u64..40, 1..8),
    ) {
        let mut ring = TraceRing::new(16);
        let mut total = 0u64;
        for batch in batches {
            for _ in 0..batch {
                ring.push(ev(total));
                total += 1;
            }
            let kept = ring.events();
            prop_assert!(kept.len() <= 16);
            let first_kept = total.saturating_sub(16);
            let expect: Vec<_> = (first_kept..total).map(ev).collect();
            prop_assert_eq!(kept, expect);
            prop_assert_eq!(ring.recorded() - ring.dropped(), ring.len() as u64);
        }
    }
}
