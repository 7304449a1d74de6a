//! The correctness gate: every recorded history goes through
//! `harmonia_verify::check_key_history`.
//!
//! The Wing–Gong checker takes at most 64 operations per key, and a
//! skewed trial puts thousands on the hottest key, so a key's history is
//! cut at *quiescent points* — instants with no operation on that key in
//! flight — and checked window by window. The register value carried into
//! a window is the set of values the key may hold at the cut: the preload
//! value at first, afterwards the writes of the previous window that no
//! other write strictly follows (one value unless the last writes raced).
//! A window passes if it is linearizable from any carried value. This
//! never raises a false alarm, and a read of a value that nothing wrote,
//! or of a value already overwritten before the read began, fails its
//! window.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use harmonia::core::RecordedOp;
use harmonia::types::OpKind;
use harmonia::verify::{check_key_history, Action, OpRecord};
use harmonia::workload::KeySpace;

use crate::workloads::{Workload, KEYS};

/// Operations per checked window, leaving one slot of the checker's 64 for
/// the synthetic initial write.
const WINDOW: usize = 63;

pub struct Checker {
    /// Values each key may hold right now.
    state: HashMap<Bytes, Vec<Bytes>>,
    /// Keys an abandoned operation touched: it may or may not have taken
    /// effect, so nothing about the key can be asserted afterwards (the
    /// rule `tests/common` applies).
    poisoned: HashSet<Bytes>,
    pub totals: CheckTotals,
}

/// What the checkers of a run saw, summed over rigs and trials.
#[derive(Clone, Debug, Default)]
pub struct CheckTotals {
    /// Operations issued, the preload included.
    pub attempted: u64,
    /// Operations abandoned (`ok == false`).
    pub failed: u64,
    /// Operations that went through the Wing–Gong checker.
    pub checked: u64,
    pub violations: Vec<String>,
    /// Time spent in [`Checker::check`].
    pub time: Duration,
}

impl CheckTotals {
    pub fn absorb(&mut self, other: CheckTotals) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.violations.extend(other.violations);
        self.time += other.time;
    }
}

impl Checker {
    /// A checker for a deployment whose set-up stored the workload's
    /// preload, losing `failed` of those writes.
    pub fn preloaded(w: &Workload, keys: &KeySpace, failed: u64) -> Checker {
        Checker {
            state: (0..KEYS)
                .map(|i| (keys.key(i), vec![w.preload_value(i)]))
                .collect(),
            poisoned: HashSet::new(),
            totals: CheckTotals {
                attempted: KEYS as u64,
                failed,
                ..CheckTotals::default()
            },
        }
    }

    /// Check one trial's per-client histories against the carried state.
    /// Trials on one deployment must be checked in the order they ran.
    pub fn check(&mut self, rig: &str, histories: &[Vec<RecordedOp>]) {
        let started = Instant::now();
        let mut by_key: BTreeMap<Bytes, Vec<OpRecord>> = BTreeMap::new();
        for (c, history) in histories.iter().enumerate() {
            self.totals.attempted += history.len() as u64;
            for r in history {
                if !r.ok {
                    self.totals.failed += 1;
                    self.poisoned.insert(r.key.clone());
                    continue;
                }
                by_key.entry(r.key.clone()).or_default().push(OpRecord {
                    client: c as u32,
                    key: r.key.clone(),
                    // Shifted by one so the synthetic initial write at
                    // [0, 0] strictly precedes every real operation.
                    invoke: r.invoked.nanos() + 1,
                    complete: r.completed.nanos() + 1,
                    action: match r.kind {
                        OpKind::Write => Action::Write(r.value.clone().unwrap_or_default()),
                        OpKind::Read => Action::Read(r.result.clone()),
                    },
                });
            }
        }
        for (key, mut ops) in by_key {
            if self.poisoned.contains(&key) {
                continue;
            }
            self.totals.checked += ops.len() as u64;
            ops.sort_by_key(|o| (o.invoke, o.complete));
            for window in windows(&ops) {
                if window.len() > WINDOW {
                    self.totals.violations.push(format!(
                        "{rig}: key {key:?} has {} overlapping operations, more than the checker takes",
                        window.len()
                    ));
                    self.poisoned.insert(key.clone());
                    break;
                }
                if !self.check_window(&key, window) {
                    self.totals
                        .violations
                        .push(format!("{rig}: history of key {key:?} is not linearizable"));
                    self.poisoned.insert(key.clone());
                    break;
                }
            }
        }
        self.totals.time += started.elapsed();
    }

    fn check_window(&mut self, key: &Bytes, window: &[OpRecord]) -> bool {
        let carried = self.state.get(key).cloned().unwrap_or_default();
        // A key outside the preload starts absent: no synthetic write.
        let starts: Vec<Option<Bytes>> = if carried.is_empty() {
            vec![None]
        } else {
            carried.into_iter().map(Some).collect()
        };
        let mut records = Vec::with_capacity(window.len() + 1);
        let passing: Vec<Option<Bytes>> = starts
            .into_iter()
            .filter(|start| {
                records.clear();
                if let Some(v) = start {
                    records.push(OpRecord::write(u32::MAX, key.clone(), v.clone(), 0, 0));
                }
                records.extend_from_slice(window);
                check_key_history(&records).is_ok()
            })
            .collect();
        if passing.is_empty() {
            return false;
        }
        let last = last_writes(window);
        // Reads alone narrow what the key can hold; writes replace it.
        let next = if last.is_empty() {
            passing.into_iter().flatten().collect()
        } else {
            last
        };
        self.state.insert(key.clone(), next);
        true
    }
}

/// Split a key's operations (sorted by invocation) into windows that start
/// at quiescent points, each as long as fits the checker.
fn windows(ops: &[OpRecord]) -> Vec<&[OpRecord]> {
    let mut out = Vec::new();
    let (mut start, mut cut, mut busy_until) = (0, 0, 0);
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && op.invoke > busy_until {
            // Quiescent before `i`: a window may end here.
            if i - start > WINDOW && cut > start {
                out.push(&ops[start..cut]);
                start = cut;
            }
            cut = i;
        }
        busy_until = busy_until.max(op.complete);
    }
    if ops.len() - start > WINDOW && cut > start {
        out.push(&ops[start..cut]);
        start = cut;
    }
    out.push(&ops[start..]);
    out
}

/// The written values no other write of the window strictly follows: the
/// values the key may hold once the window is over.
fn last_writes(window: &[OpRecord]) -> Vec<Bytes> {
    let writes: Vec<(&OpRecord, &Bytes)> = window
        .iter()
        .filter_map(|o| match &o.action {
            Action::Write(v) => Some((o, v)),
            Action::Read(_) => None,
        })
        .collect();
    let latest_invoke = writes.iter().map(|(o, _)| o.invoke).max().unwrap_or(0);
    writes
        .iter()
        .filter(|(o, _)| o.complete >= latest_invoke)
        .map(|(_, v)| (*v).clone())
        .collect()
}

/// The seeded fault for the gate's self-test: make the first successful
/// read of the trial return a value nothing wrote.
pub fn corrupt_one_read(histories: &mut [Vec<RecordedOp>]) -> bool {
    for r in histories.iter_mut().flatten() {
        if r.ok && r.kind == OpKind::Read {
            r.result = Some(Bytes::from_static(b"corrupted-by-inject-fault"));
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use harmonia::types::{Duration as VDuration, Instant as VInstant};

    fn at(ns: u64) -> VInstant {
        VInstant::ZERO + VDuration::from_nanos(ns)
    }

    fn write(key: &Bytes, v: &str, t0: u64, t1: u64) -> RecordedOp {
        RecordedOp {
            kind: OpKind::Write,
            key: key.clone(),
            value: Some(Bytes::copy_from_slice(v.as_bytes())),
            invoked: at(t0),
            completed: at(t1),
            result: None,
            ok: true,
        }
    }

    fn read(key: &Bytes, v: Option<Bytes>, t0: u64, t1: u64) -> RecordedOp {
        RecordedOp {
            kind: OpKind::Read,
            key: key.clone(),
            value: None,
            invoked: at(t0),
            completed: at(t1),
            result: v,
            ok: true,
        }
    }

    fn fresh() -> (Checker, Bytes, Bytes) {
        let w = WORKLOADS[0];
        let keys = w.keyspace();
        (
            Checker::preloaded(&w, &keys, 0),
            keys.key(3),
            w.preload_value(3),
        )
    }

    #[test]
    fn long_sequential_history_is_checked_in_windows() {
        let (mut c, k, pre) = fresh();
        let mut h = vec![read(&k, Some(pre), 0, 5)];
        for i in 0..500u64 {
            let t = 10 + i * 20;
            h.push(write(&k, &format!("v{i}"), t, t + 5));
            h.push(read(&k, Some(Bytes::from(format!("v{i}"))), t + 10, t + 15));
        }
        c.check("t", &[h]);
        assert!(c.totals.violations.is_empty(), "{:?}", c.totals.violations);
        assert_eq!(c.totals.checked, 1001);
    }

    #[test]
    fn state_carries_across_trials_and_stale_reads_fail() {
        let (mut c, k, pre) = fresh();
        c.check("t", &[vec![write(&k, "a", 0, 5)]]);
        // Next trial: the preload value was overwritten before this read.
        c.check("t", &[vec![read(&k, Some(pre), 0, 5)]]);
        assert_eq!(c.totals.violations.len(), 1, "{:?}", c.totals.violations);
    }

    #[test]
    fn racing_final_writes_leave_both_values_possible() {
        let (mut c, k, _) = fresh();
        c.check(
            "t",
            &[vec![write(&k, "a", 0, 10)], vec![write(&k, "b", 5, 15)]],
        );
        c.check("t", &[vec![read(&k, Some(Bytes::from_static(b"a")), 0, 5)]]);
        assert!(c.totals.violations.is_empty(), "{:?}", c.totals.violations);
        // The read settled it: "b" can no longer be observed.
        c.check("t", &[vec![read(&k, Some(Bytes::from_static(b"b")), 0, 5)]]);
        assert_eq!(c.totals.violations.len(), 1);
    }

    #[test]
    fn injected_corruption_is_caught() {
        let (mut c, k, pre) = fresh();
        let mut h = vec![vec![read(&k, Some(pre), 0, 5)]];
        assert!(corrupt_one_read(&mut h));
        c.check("t", &h);
        assert_eq!(c.totals.violations.len(), 1);
    }

    #[test]
    fn abandoned_operations_poison_their_key() {
        let (mut c, k, pre) = fresh();
        let mut lost = write(&k, "x", 0, 5);
        lost.ok = false;
        c.check("t", &[vec![lost, read(&k, Some(pre), 10, 15)]]);
        assert_eq!((c.totals.failed, c.totals.checked), (1, 0));
        assert!(c.totals.violations.is_empty());
    }
}
