//! The snapshot renderer: one JSON document per [`ObsSnapshot`].
//!
//! Hand-rolled over the plain-data snapshot with the field order fixed in
//! code, so the same snapshot always renders to the same bytes (the
//! determinism suite and the committed goldens diff rendered snapshots
//! across same-seed runs, and the e2e ledger parses them back).

use std::fmt::Write as _;

use crate::snapshot::ObsSnapshot;
use crate::OBS_SCHEMA_VERSION;

/// Render a snapshot as a single JSON document with a fixed key order.
pub fn json_text(s: &ObsSnapshot) -> String {
    let mut o = String::new();
    let _ = write!(o, "{{\n  \"schema_version\": {OBS_SCHEMA_VERSION},");
    let _ = write!(o, "\n  \"driver\": \"{}\",", s.driver);
    let _ = write!(o, "\n  \"protocol\": \"{}\",", s.protocol);
    let _ = write!(o, "\n  \"groups\": {},", s.groups);
    let _ = write!(o, "\n  \"replicas\": {},", s.replicas);
    let _ = write!(o, "\n  \"taken_at_ns\": {},", s.taken_at_ns);

    let sw = &s.switch;
    let _ = write!(
        o,
        "\n  \"switch\": {{\"reads_fast_path\": {}, \"reads_normal\": {}, \"writes_forwarded\": {}, \
         \"writes_dropped\": {}, \"completions\": {}, \"forwarded_other\": {}, \"swept\": {}, \
         \"fast_path_groups\": {}, \"dirty_len\": {}, \"memory_bytes\": {}}},",
        sw.reads_fast_path,
        sw.reads_normal,
        sw.writes_forwarded,
        sw.writes_dropped,
        sw.completions,
        sw.forwarded_other,
        sw.swept,
        sw.fast_path_groups,
        sw.dirty_len,
        sw.memory_bytes
    );

    let _ = write!(o, "\n  \"per_group\": [");
    for (i, g) in s.per_group.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            o,
            "{sep}{{\"group\": {}, \"reads_fast_path\": {}, \"reads_normal\": {}, \
             \"writes_forwarded\": {}, \"writes_dropped\": {}, \"fast_path_enabled\": {}, \
             \"dirty_len\": {}, \"memory_bytes\": {}}}",
            g.group,
            g.reads_fast_path,
            g.reads_normal,
            g.writes_forwarded,
            g.writes_dropped,
            g.fast_path_enabled,
            g.dirty_len,
            g.memory_bytes
        );
    }
    let _ = write!(o, "],");

    let tr = &s.transport;
    let _ = write!(
        o,
        "\n  \"transport\": {{\"frames_sent\": {}, \"datagrams_sent\": {}, \"frames_received\": {}, \
         \"unresolved\": {}, \"decode_errors\": {}, \"salvaged\": {}, \"oversized\": {}, \
         \"send_errors\": {}, \"config_errors\": {}}},",
        tr.frames_sent,
        tr.datagrams_sent,
        tr.frames_received,
        tr.unresolved,
        tr.decode_errors,
        tr.salvaged,
        tr.oversized,
        tr.send_errors,
        tr.config_errors
    );

    let _ = write!(
        o,
        "\n  \"pool\": {{\"recv_hits\": {}, \"recv_misses\": {}, \"send_hits\": {}, \
         \"send_misses\": {}, \"recv_hit_rate\": {:.6}, \"send_hit_rate\": {:.6}}},",
        s.pool.recv_hits,
        s.pool.recv_misses,
        s.pool.send_hits,
        s.pool.send_misses,
        s.pool.recv_hit_rate(),
        s.pool.send_hit_rate()
    );

    let _ = write!(
        o,
        "\n  \"faults\": {{\"dropped\": {}, \"duplicated\": {}, \"reordered\": {}, \"discarded\": {}}},",
        s.faults.dropped, s.faults.duplicated, s.faults.reordered, s.faults.discarded
    );

    let cl = &s.clients;
    let _ = write!(
        o,
        "\n  \"clients\": {{\"reads_sent\": {}, \"writes_sent\": {}, \"reads_done\": {}, \
         \"writes_done\": {}, \"writes_rejected\": {}, \"timeouts\": {}, \"retries\": {}}},",
        cl.reads_sent,
        cl.writes_sent,
        cl.reads_done,
        cl.writes_done,
        cl.writes_rejected,
        cl.timeouts,
        cl.retries
    );

    let rp = &s.replica;
    let _ = write!(
        o,
        "\n  \"replica\": {{\"requests\": {}, \"protocol_msgs\": {}, \"transfers\": {}, \
         \"shed\": {}, \"stray\": {}}},",
        rp.requests, rp.protocol_msgs, rp.transfers, rp.shed, rp.stray
    );

    for (name, h) in [
        ("read_latency", &s.read_latency),
        ("write_latency", &s.write_latency),
    ] {
        let _ = write!(
            o,
            "\n  \"{name}\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}}},",
            h.count, h.mean_ns, h.p50_ns, h.p99_ns, h.p999_ns, h.max_ns
        );
    }

    let _ = write!(
        o,
        "\n  \"trace\": {{\"recorded\": {}, \"dropped\": {}}}\n}}\n",
        s.trace.recorded, s.trace.dropped
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::HistSummary;
    use crate::snapshot::{
        ClientObs, FaultObs, GroupObs, PoolObs, ReplicaObs, SwitchObs, TraceObs, TransportObs,
    };

    fn sample() -> ObsSnapshot {
        let mut s = ObsSnapshot {
            driver: "sim",
            protocol: "craq",
            groups: 2,
            replicas: 3,
            ..ObsSnapshot::default()
        };
        s.switch.reads_fast_path = 7;
        s.per_group = vec![
            GroupObs {
                group: 0,
                reads_fast_path: 4,
                ..GroupObs::default()
            },
            GroupObs {
                group: 1,
                reads_fast_path: 3,
                ..GroupObs::default()
            },
        ];
        s.read_latency = HistSummary {
            count: 10,
            mean_ns: 1000,
            p50_ns: 900,
            p99_ns: 2000,
            p999_ns: 2100,
            max_ns: 2200,
        };
        s
    }

    /// A snapshot whose every numeric field holds its own value, with two
    /// `per_group` rows: a field rendered under a wrong key or in a wrong
    /// section cannot go unnoticed.
    fn distinct() -> ObsSnapshot {
        let mut n = 100u64;
        let mut next = || {
            n += 1;
            n
        };
        let mut group = |fast_path_enabled| GroupObs {
            group: next() as u32,
            reads_fast_path: next(),
            reads_normal: next(),
            writes_forwarded: next(),
            writes_dropped: next(),
            fast_path_enabled,
            dirty_len: next(),
            memory_bytes: next(),
        };
        let per_group = vec![group(true), group(false)];
        let mut hist = || HistSummary {
            count: next(),
            mean_ns: next(),
            p50_ns: next(),
            p99_ns: next(),
            p999_ns: next(),
            max_ns: next(),
        };
        let (read_latency, write_latency) = (hist(), hist());
        ObsSnapshot {
            driver: "udp",
            protocol: "chain",
            groups: next() as u32,
            replicas: next() as u32,
            taken_at_ns: next(),
            switch: SwitchObs {
                reads_fast_path: next(),
                reads_normal: next(),
                writes_forwarded: next(),
                writes_dropped: next(),
                completions: next(),
                forwarded_other: next(),
                swept: next(),
                fast_path_groups: next(),
                dirty_len: next(),
                memory_bytes: next(),
            },
            per_group,
            transport: TransportObs {
                frames_sent: next(),
                datagrams_sent: next(),
                frames_received: next(),
                unresolved: next(),
                decode_errors: next(),
                salvaged: next(),
                oversized: next(),
                send_errors: next(),
                config_errors: next(),
            },
            pool: PoolObs {
                recv_hits: next(),
                recv_misses: next(),
                send_hits: next(),
                send_misses: next(),
            },
            faults: FaultObs {
                dropped: next(),
                duplicated: next(),
                reordered: next(),
                discarded: next(),
            },
            clients: ClientObs {
                reads_sent: next(),
                writes_sent: next(),
                reads_done: next(),
                writes_done: next(),
                writes_rejected: next(),
                timeouts: next(),
                retries: next(),
            },
            replica: ReplicaObs {
                requests: next(),
                protocol_msgs: next(),
                transfers: next(),
                shed: next(),
                stray: next(),
            },
            read_latency,
            write_latency,
            trace: TraceObs {
                recorded: next(),
                dropped: next(),
            },
        }
    }

    /// Assert that `text` holds each `"key": value` as one whole field.
    fn assert_fields(text: &str, fields: &[(&str, String)]) {
        for (key, value) in fields {
            let field = format!("\"{key}\": {value}");
            assert!(
                text.split([',', '{', '}']).any(|f| f.trim() == field),
                "{field} missing from {text}"
            );
        }
    }

    #[test]
    fn json_carries_every_field_in_its_section() {
        let s = distinct();
        let json = json_text(&s);
        let section = |name: &str| {
            let head = format!("  \"{name}\": ");
            json.lines()
                .find(|l| l.starts_with(&head))
                .unwrap_or_else(|| panic!("no {name} section in {json}"))
        };
        let v = |x: u64| x.to_string();

        assert_fields(section("driver"), &[("driver", "\"udp\"".into())]);
        assert_fields(section("protocol"), &[("protocol", "\"chain\"".into())]);
        assert_fields(section("groups"), &[("groups", s.groups.to_string())]);
        assert_fields(section("replicas"), &[("replicas", s.replicas.to_string())]);
        assert_fields(section("taken_at_ns"), &[("taken_at_ns", v(s.taken_at_ns))]);

        let sw = &s.switch;
        assert_fields(
            section("switch"),
            &[
                ("reads_fast_path", v(sw.reads_fast_path)),
                ("reads_normal", v(sw.reads_normal)),
                ("writes_forwarded", v(sw.writes_forwarded)),
                ("writes_dropped", v(sw.writes_dropped)),
                ("completions", v(sw.completions)),
                ("forwarded_other", v(sw.forwarded_other)),
                ("swept", v(sw.swept)),
                ("fast_path_groups", v(sw.fast_path_groups)),
                ("dirty_len", v(sw.dirty_len)),
                ("memory_bytes", v(sw.memory_bytes)),
            ],
        );

        let rows: Vec<&str> = section("per_group").split("}, {").collect();
        assert_eq!(rows.len(), 2, "two per_group rows");
        for (row, g) in rows.iter().zip(&s.per_group) {
            assert_fields(
                row,
                &[
                    ("group", g.group.to_string()),
                    ("reads_fast_path", v(g.reads_fast_path)),
                    ("reads_normal", v(g.reads_normal)),
                    ("writes_forwarded", v(g.writes_forwarded)),
                    ("writes_dropped", v(g.writes_dropped)),
                    ("fast_path_enabled", g.fast_path_enabled.to_string()),
                    ("dirty_len", v(g.dirty_len)),
                    ("memory_bytes", v(g.memory_bytes)),
                ],
            );
        }

        let tr = &s.transport;
        assert_fields(
            section("transport"),
            &[
                ("frames_sent", v(tr.frames_sent)),
                ("datagrams_sent", v(tr.datagrams_sent)),
                ("frames_received", v(tr.frames_received)),
                ("unresolved", v(tr.unresolved)),
                ("decode_errors", v(tr.decode_errors)),
                ("salvaged", v(tr.salvaged)),
                ("oversized", v(tr.oversized)),
                ("send_errors", v(tr.send_errors)),
                ("config_errors", v(tr.config_errors)),
            ],
        );

        let pool = &s.pool;
        assert_fields(
            section("pool"),
            &[
                ("recv_hits", v(pool.recv_hits)),
                ("recv_misses", v(pool.recv_misses)),
                ("send_hits", v(pool.send_hits)),
                ("send_misses", v(pool.send_misses)),
                ("recv_hit_rate", format!("{:.6}", pool.recv_hit_rate())),
                ("send_hit_rate", format!("{:.6}", pool.send_hit_rate())),
            ],
        );

        let f = &s.faults;
        assert_fields(
            section("faults"),
            &[
                ("dropped", v(f.dropped)),
                ("duplicated", v(f.duplicated)),
                ("reordered", v(f.reordered)),
                ("discarded", v(f.discarded)),
            ],
        );

        let cl = &s.clients;
        assert_fields(
            section("clients"),
            &[
                ("reads_sent", v(cl.reads_sent)),
                ("writes_sent", v(cl.writes_sent)),
                ("reads_done", v(cl.reads_done)),
                ("writes_done", v(cl.writes_done)),
                ("writes_rejected", v(cl.writes_rejected)),
                ("timeouts", v(cl.timeouts)),
                ("retries", v(cl.retries)),
            ],
        );

        let rp = &s.replica;
        assert_fields(
            section("replica"),
            &[
                ("requests", v(rp.requests)),
                ("protocol_msgs", v(rp.protocol_msgs)),
                ("transfers", v(rp.transfers)),
                ("shed", v(rp.shed)),
                ("stray", v(rp.stray)),
            ],
        );

        for (name, h) in [
            ("read_latency", &s.read_latency),
            ("write_latency", &s.write_latency),
        ] {
            assert_fields(
                section(name),
                &[
                    ("count", v(h.count)),
                    ("mean_ns", v(h.mean_ns)),
                    ("p50_ns", v(h.p50_ns)),
                    ("p99_ns", v(h.p99_ns)),
                    ("p999_ns", v(h.p999_ns)),
                    ("max_ns", v(h.max_ns)),
                ],
            );
        }

        assert_fields(
            section("trace"),
            &[
                ("recorded", v(s.trace.recorded)),
                ("dropped", v(s.trace.dropped)),
            ],
        );
    }

    #[test]
    fn json_is_stable_and_versioned() {
        let s = sample();
        let a = json_text(&s);
        let b = json_text(&s);
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema_version\": 1,"));
        assert!(a.contains("\"p999_ns\": 2100"));
        assert!(a.contains("\"per_group\": [{\"group\": 0,"));
        assert!(a.trim_end().ends_with('}'));
    }
}
