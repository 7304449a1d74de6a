//! What the four rigs have in common: a block's configuration, the report a
//! block returns, and the time-driven trial loop.
//!
//! A *block* sets one rig up, warms it, runs its trials alone and tears it
//! down — in a process of its own (see `run.rs`), so that no rig measures
//! the heap, the threads or the pinned buffers another one left behind.

use std::time::{Duration, Instant};

use crate::check::CheckTotals;
use crate::json::Json;
use crate::workloads::Workload;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rig {
    Udp,
    Live,
    Sim,
    Path,
}

impl Rig {
    /// Block order. The threaded rigs go first and the single-threaded ones
    /// last only by convention; every block is its own process.
    pub const ALL: [Rig; 4] = [Rig::Udp, Rig::Live, Rig::Sim, Rig::Path];

    pub fn name(self) -> &'static str {
        match self {
            Rig::Udp => "udp",
            Rig::Live => "live",
            Rig::Sim => "sim",
            Rig::Path => "path",
        }
    }

    pub fn by_name(name: &str) -> Option<Rig> {
        Rig::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Share of a block's measuring time this rig's trials get. The
    /// threaded rigs are the noisy ones (scheduler, wake-ups), so they get
    /// more of it.
    pub fn share(self) -> f64 {
        match self {
            Rig::Udp => 0.28,
            Rig::Live => 0.25,
            Rig::Sim => 0.2,
            Rig::Path => 0.27,
        }
    }
}

/// Operations per trial on each rig and how often things repeat. The full
/// scale keeps a trial to a fraction of a second on the reference host
/// (2 cores) — short trials, many of them, medians — and `--smoke` divides
/// the operation counts by 50.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Per closed-loop client on the `udp` rig.
    pub udp_ops: usize,
    /// Per closed-loop client on the `live` rig.
    pub live_ops: usize,
    /// Per closed-loop client in the simulator.
    pub sim_ops: usize,
    /// Per pumped trial on the `path` rig.
    pub path_ops: usize,
    /// Blocks (set-ups of every rig) per run; `setup_s` is their median.
    pub blocks: usize,
    /// Seconds each replay loops for.
    pub replay_s: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        udp_ops: 2_000,
        live_ops: 5_000,
        sim_ops: 10_000,
        path_ops: 50_000,
        blocks: 5,
        replay_s: 0.3,
    };

    pub const SMOKE: Scale = Scale {
        udp_ops: Scale::FULL.udp_ops / 50,
        live_ops: Scale::FULL.live_ops / 50,
        sim_ops: Scale::FULL.sim_ops / 50,
        path_ops: Scale::FULL.path_ops / 50,
        blocks: 1,
        replay_s: 0.01,
    };
}

/// Everything one block needs to know.
#[derive(Clone, Copy, Debug)]
pub struct BlockConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Which block of the run this is; trial numbers, and so plans, differ
    /// from block to block.
    pub block: u32,
    /// Seconds of timed trials.
    pub slice_s: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one read result before the checker sees it (the gate's
    /// self-test: the run must then fail).
    pub inject_fault: bool,
}

impl BlockConfig {
    /// The number plans of this block's `n`-th trial are generated from
    /// (warm-ups use 900 and up).
    pub fn trial_no(&self, n: u32) -> u32 {
        self.block * 1000 + n
    }
}

/// Repeat `trial` (numbered from 1) until `slice_s` seconds are used,
/// stopping where the total lands closest to the slice. Always runs once.
pub fn fill(slice_s: f64, mut trial: impl FnMut(u32)) {
    let started = Instant::now();
    let mut n = 0u32;
    loop {
        n += 1;
        trial(n);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(n) / 2.0 > slice_s {
            break;
        }
    }
}

/// Pin this process — and every thread it spawns from here on — to one of
/// the CPUs it may run on (the highest-numbered, which on the reference
/// host is the one not serving the virtio interrupts). Returns the CPU, or
/// `None` where pinning is not available; the result is recorded with the
/// run.
///
/// Left to the scheduler, the threaded drivers' six to eight threads on a
/// two-vCPU VM settle at random into "stacked" or "spread" placements whose
/// wake-ups differ by 2-5x (a cross-CPU wake-up is an IPI and a halt exit),
/// flip between them mid-run, and stay there: the same binary measured
/// 50 000 or 23 000 live ops/s depending on the process. On one CPU every
/// hand-off is a context switch and the numbers repeat to a few percent.
/// What the threaded rigs report is therefore the path's CPU cost plus its
/// context switches, not parallel speed-up — which two vCPUs could not
/// show anyway.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size of glibc's cpu_set_t.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // pid 0 names the calling thread, and the call writes at most `bytes`.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads; the single bit set is a CPU the kernel just reported as
    // allowed.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// What one block measured.
#[derive(Clone, Debug, Default)]
pub struct RigReport {
    /// Spawn or build, plus storing every key.
    pub setup_s: f64,
    /// Values by metric name: one per trial, or one per block for a value
    /// read once. Names outside the declared metrics (`extra.*`) are kept
    /// in the result file only.
    pub samples: Vec<(String, Vec<f64>)>,
    pub totals: CheckTotals,
    /// The driver's `json_text(&obs_snapshot())`, parsed.
    pub obs: Option<Json>,
}

impl RigReport {
    pub fn push(&mut self, name: &str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| n == name) {
            Some((_, values)) => values.push(value),
            None => self.samples.push((name.to_string(), vec![value])),
        }
    }

    pub fn to_json(&self) -> Json {
        let t = &self.totals;
        Json::obj(vec![
            ("setup_s", Json::Num(self.setup_s)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(t.attempted as f64)),
            ("failed", Json::Num(t.failed as f64)),
            ("checked", Json::Num(t.checked as f64)),
            ("check_s", Json::Num(t.time.as_secs_f64())),
            (
                "violations",
                Json::Arr(t.violations.iter().map(Json::str).collect()),
            ),
            ("obs", self.obs.clone().unwrap_or(Json::Null)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RigReport, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("block report lacks {key}"))
        };
        Ok(RigReport {
            setup_s: num("setup_s")?,
            samples: j
                .get("samples")
                .map(Json::fields)
                .unwrap_or_default()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.as_arr().iter().filter_map(Json::as_f64).collect(),
                    )
                })
                .collect(),
            totals: CheckTotals {
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                checked: num("checked")? as u64,
                violations: j
                    .get("violations")
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
                time: Duration::from_secs_f64(num("check_s")?),
            },
            obs: j.get("obs").filter(|o| **o != Json::Null).cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_runs_once_even_without_time_and_stops_near_the_slice() {
        let mut n = 0;
        fill(0.0, |_| n += 1);
        assert_eq!(n, 1);
        let mut n = 0;
        fill(0.05, |_| {
            n += 1;
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!((4..=6).contains(&n), "{n}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = RigReport {
            setup_s: 1.25,
            obs: Some(Json::obj(vec![("driver", Json::str("udp"))])),
            ..RigReport::default()
        };
        r.push("udp_ops_per_s", 1000.5);
        r.push("udp_ops_per_s", 1100.25);
        r.push("core.retries", 0.0);
        r.totals.attempted = 12;
        r.totals.failed = 1;
        r.totals.checked = 11;
        r.totals.time = Duration::from_millis(250);
        r.totals
            .violations
            .push("udp: history of key b\"k\" is not linearizable".into());
        let back = RigReport::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.setup_s, r.setup_s);
        assert_eq!(back.samples, r.samples);
        assert_eq!(back.obs, r.obs);
        assert_eq!(
            (
                back.totals.attempted,
                back.totals.failed,
                back.totals.checked
            ),
            (12, 1, 11)
        );
        assert_eq!(back.totals.violations, r.totals.violations);
        assert_eq!(back.totals.time, r.totals.time);
    }
}
