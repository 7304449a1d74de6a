//! The metrics this benchmark declares. `BENCHMARK.json` lists the same
//! names, units and directions; `--smoke` checks the two against each other
//! and against what a run actually printed.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly for a seed (single-threaded rigs).
    pub exact: bool,
    /// Several rigs contribute a count each and the metric is their sum;
    /// otherwise it is the median of the samples.
    pub summed: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        summed: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..m(name, unit, better)
    }
}

const fn summed(name: &'static str) -> MetricDef {
    MetricDef {
        summed: true,
        ..m(name, "count", Lower)
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("udp_ops_per_s", "1/s", Higher),
    m("live_ops_per_s", "1/s", Higher),
    m("udp_p50_us", "us", Lower),
    m("live_p50_us", "us", Lower),
    m("path_ops_per_s", "1/s", Higher),
    m("sim_ops_per_s", "1/s", Higher),
];

/// Where the time went, layer by layer (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("types.encode_ns_per_frame", "ns/frame", Lower),
    m("types.decode_ns_per_frame", "ns/frame", Lower),
    exact("types.bytes_per_frame", "B/frame", Lower),
    exact("types.frames_per_op", "frames/op", Lower),
    m("net.send_ns_per_frame", "ns/frame", Lower),
    m("net.recv_ns_per_frame", "ns/frame", Lower),
    m("net.coalesce_ns_per_frame", "ns/frame", Lower),
    m("net.frames_per_datagram", "frames/dgram", Higher),
    m("net.empty_polls_per_op", "polls/op", Lower),
    m("net.send_pool_hit_rate", "ratio", Higher),
    m("net.recv_pool_hit_rate", "ratio", Higher),
    m("net.udp_frames_per_datagram", "frames/dgram", Higher),
    m("net.udp_wire_errors", "count", Lower),
    m("switch.handle_ns_per_packet", "ns/packet", Lower),
    exact("switch.packets_per_op", "packets/op", Lower),
    exact("switch.fast_path_share.path", "ratio", Higher),
    exact("switch.fast_path_share.sim", "ratio", Higher),
    m("switch.fast_path_share.udp", "ratio", Higher),
    m("switch.fast_path_share.live", "ratio", Higher),
    summed("switch.writes_dropped"),
    summed("switch.dirty_len_end"),
    m("replication.handle_ns_per_msg", "ns/msg", Lower),
    exact("replication.msgs_per_op", "msgs/op", Lower),
    m("kv.get_ns", "ns", Lower),
    m("kv.put_ns", "ns", Lower),
    m("core.udp_p99_us", "us", Lower),
    m("core.live_p99_us", "us", Lower),
    m("core.udp_read_p50_us", "us", Lower),
    m("core.udp_write_p50_us", "us", Lower),
    m("core.live_read_p50_us", "us", Lower),
    m("core.live_write_p50_us", "us", Lower),
    m("core.udp_to_switch_us", "us", Lower),
    m("core.udp_to_replica_us", "us", Lower),
    m("core.udp_to_done_us", "us", Lower),
    m("core.live_to_switch_us", "us", Lower),
    m("core.live_to_replica_us", "us", Lower),
    m("core.live_to_done_us", "us", Lower),
    summed("core.retries"),
    summed("core.timeouts"),
    exact("sim.vt_ops_per_s", "1/s", Higher),
    exact("sim.vt_read_p50_us", "us", Lower),
    exact("sim.vt_read_p99_us", "us", Lower),
    exact("sim.vt_write_p50_us", "us", Lower),
    exact("sim.vt_write_p99_us", "us", Lower),
    m("verify.check_ops_per_s", "1/s", Higher),
    summed("verify.violations"),
    m("workload.gen_ns_per_op", "ns/op", Lower),
    summed("obs.trace_dropped"),
    m("obs.snapshot_us", "us", Lower),
    m("path.client_ns_per_op", "ns/op", Lower),
    m("path.unaccounted_ns_per_op", "ns/op", Lower),
    m("path.trace_overhead_pct", "%", Lower),
    m("failed_op_share", "ratio", Lower),
];
