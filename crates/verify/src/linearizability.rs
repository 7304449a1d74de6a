//! Wing–Gong linearizability checking for register histories.
//!
//! An operation may be linearized next iff no *other* pending operation
//! completed before it was invoked (real-time order must be respected).
//! The search walks all admissible linearization orders, pruning with a
//! memo over `(linearized-set, last-write)` states — the classic WG
//! algorithm specialized to read/write registers, which is exactly the
//! object model of the paper (GET/SET on Redis keys).
//!
//! [`Checker`] is the gate for what the clients record ([`RecordedOp`]).
//! Registers compose, so it checks each key on its own, and it cuts a
//! key's history at *quiescent points* — instants with no operation on
//! that key in flight — into windows the search can take. Every operation
//! before such a point precedes every operation after it in real time, so
//! all a window hands the next is what the register may hold: the values
//! on which some legal linearization of the prefix ends. Carried exactly,
//! that makes the windowed verdict the whole-history verdict.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bytes::Bytes;
use harmonia_types::RecordedOp;

use crate::history::{Action, OpRecord};

/// Operations one search takes: its linearized set is a `u64` bitmask.
const WINDOW: usize = u64::BITS as usize;

/// Why a history is not linearizable (or not checkable).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// No legal linearization order exists for this key's history.
    NotLinearizable {
        /// The offending key.
        key: Bytes,
    },
    /// More operations than the search's 64-operation bitmask takes had to
    /// be searched at once: a whole history given to
    /// [`check_key_history`], or a run of a key's history with no quiescent
    /// point inside it given to [`Checker::check`].
    TooLarge {
        /// The offending key.
        key: Bytes,
        /// Number of operations that had to be searched at once.
        ops: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotLinearizable { key } => {
                write!(f, "history for key {key:?} is not linearizable")
            }
            Violation::TooLarge { key, ops } => {
                write!(
                    f,
                    "history for key {key:?} has {ops} ops to search at once (checker limit 64)"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Check one key's history (all records must share the key), the register
/// starting absent.
pub fn check_key_history(ops: &[OpRecord]) -> Result<(), Violation> {
    if ops.is_empty() {
        return Ok(());
    }
    let key = ops[0].key.clone();
    if ops.len() > WINDOW {
        return Err(Violation::TooLarge {
            key,
            ops: ops.len(),
        });
    }
    if linearizable(ops, None, None) {
        Ok(())
    } else {
        Err(Violation::NotLinearizable { key })
    }
}

/// What one key may hold at its last quiescent point.
#[derive(Debug)]
enum Register {
    /// Any of these values (`None` = absent).
    Holds(Vec<Option<Bytes>>),
    /// An abandoned operation touched the key: it may or may not have taken
    /// effect, so nothing about the key can be asserted any more.
    Poisoned,
}

/// The linearizability gate for recorded client histories, carrying each
/// key's state from one [`check`](Checker::check) call to the next.
#[derive(Debug, Default)]
pub struct Checker {
    keys: BTreeMap<Bytes, Register>,
}

/// What one [`Checker::check`] call saw.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Checked {
    /// Operations that went through the search.
    pub checked: usize,
    /// Operations recorded as abandoned (`ok == false`). Their keys are
    /// left unchecked, in this call and every later one.
    pub abandoned: usize,
}

impl Checker {
    /// A checker on which every key starts absent.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// `key` holds `value` before the first checked operation.
    pub fn preload(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.keys
            .insert(key.into(), Register::Holds(vec![Some(value.into())]));
    }

    /// Check per-client histories (history `i` is client `i`) on top of
    /// what the earlier calls left. Each call's operations must all follow
    /// the previous call's, as the trials of one deployment do.
    pub fn check(&mut self, histories: &[Vec<RecordedOp>]) -> Result<Checked, Violation> {
        let mut tally = Checked::default();
        let mut by_key: BTreeMap<Bytes, Vec<OpRecord>> = BTreeMap::new();
        for (client, history) in (0..).zip(histories) {
            for r in history {
                if r.ok {
                    let op = OpRecord::recorded(client, r);
                    by_key.entry(r.key.clone()).or_default().push(op);
                } else {
                    tally.abandoned += 1;
                    self.keys.insert(r.key.clone(), Register::Poisoned);
                }
            }
        }
        for (key, mut ops) in by_key {
            let register = self
                .keys
                .entry(key)
                .or_insert_with(|| Register::Holds(vec![None]));
            let Register::Holds(values) = register else {
                continue;
            };
            ops.sort_by_key(|o| (o.invoke, o.complete));
            for window in windows(&ops)? {
                *values = ends(values, window)?;
            }
            tally.checked += ops.len();
        }
        Ok(tally)
    }
}

/// Cut a key's operations (sorted by invocation) at quiescent points into
/// windows of at most [`WINDOW`] operations.
fn windows(ops: &[OpRecord]) -> Result<Vec<&[OpRecord]>, Violation> {
    let mut out = Vec::new();
    // `start` opens the window being filled, `run` the busy run being read.
    let (mut start, mut run, mut busy_until) = (0, 0, 0);
    for i in 0..=ops.len() {
        let quiescent = i == ops.len() || (i > 0 && ops[i].invoke > busy_until);
        if quiescent && i > run {
            if i - run > WINDOW {
                return Err(Violation::TooLarge {
                    key: ops[run].key.clone(),
                    ops: i - run,
                });
            }
            if i - start > WINDOW {
                out.push(&ops[start..run]);
                start = run;
            }
            run = i;
        }
        if let Some(op) = ops.get(i) {
            busy_until = busy_until.max(op.complete);
        }
    }
    if start < ops.len() {
        out.push(&ops[start..]);
    }
    Ok(out)
}

/// The values the register may hold after `window`, having held any of
/// `starts` before it: exactly those on which a legal linearization ends.
fn ends(starts: &[Option<Bytes>], window: &[OpRecord]) -> Result<Vec<Option<Bytes>>, Violation> {
    let passing: Vec<Option<&Bytes>> = starts
        .iter()
        .map(Option::as_ref)
        .filter(|&start| linearizable(window, start, None))
        .collect();
    if passing.is_empty() {
        return Err(Violation::NotLinearizable {
            key: window[0].key.clone(),
        });
    }
    let last = last_writes(window);
    Ok(match last.len() {
        // Reads alone only narrow what the register may hold.
        0 => passing.into_iter().map(|start| start.cloned()).collect(),
        // Every linearization ends on it, and one exists.
        1 => last.into_iter().map(Some).collect(),
        _ => last
            .into_iter()
            .filter(|v| {
                passing
                    .iter()
                    .any(|&start| linearizable(window, start, Some(Some(v))))
            })
            .map(Some)
            .collect(),
    })
}

/// The values of the writes no other write of `window` strictly follows:
/// the only values a linearization of it can end on.
fn last_writes(window: &[OpRecord]) -> BTreeSet<Bytes> {
    let is_write = |o: &&OpRecord| matches!(o.action, Action::Write(_));
    let latest_invoke = window.iter().filter(is_write).map(|o| o.invoke).max();
    window
        .iter()
        .filter_map(|o| match &o.action {
            Action::Write(v) if Some(o.complete) >= latest_invoke => Some(v.clone()),
            _ => None,
        })
        .collect()
}

/// Whether `ops` (at most [`WINDOW`]) have a legal linearization on a
/// register that starts holding `start` (`None` = absent) and, if `end` is
/// given, finishes holding it.
fn linearizable(ops: &[OpRecord], start: Option<&Bytes>, end: Option<Option<&Bytes>>) -> bool {
    let mut search = Search {
        ops,
        start,
        end,
        memo: HashSet::new(),
    };
    search.run(0, START)
}

/// The `last_write` of a register that still holds the search's start value.
const START: usize = usize::MAX;

/// One Wing–Gong search.
struct Search<'a> {
    ops: &'a [OpRecord],
    start: Option<&'a Bytes>,
    end: Option<Option<&'a Bytes>>,
    /// `(done, last_write)` states already found to lead nowhere.
    memo: HashSet<(u64, usize)>,
}

impl<'a> Search<'a> {
    /// What the register holds while `last_write` is the latest write.
    fn value(&self, last_write: usize) -> Option<&'a Bytes> {
        if last_write == START {
            return self.start;
        }
        match &self.ops[last_write].action {
            Action::Write(v) => Some(v),
            Action::Read(_) => unreachable!("last_write indexes a write"),
        }
    }

    /// DFS over linearization orders. `done` is the bitmask of linearized
    /// ops; `last_write` indexes the write whose value the register
    /// currently holds. Returns true if a full order exists.
    fn run(&mut self, done: u64, last_write: usize) -> bool {
        let ops = self.ops;
        if done.count_ones() as usize == ops.len() {
            return self.end.is_none_or(|end| end == self.value(last_write));
        }
        if !self.memo.insert((done, last_write)) {
            return false;
        }
        // The earliest completion among pending ops: anything invoked after
        // it cannot be linearized next.
        let min_complete = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, o)| o.complete)
            .min()
            .expect("pending ops exist");
        for (i, op) in ops.iter().enumerate() {
            if done & (1 << i) != 0 || op.invoke > min_complete {
                continue;
            }
            let next_write = match &op.action {
                Action::Write(_) => i,
                Action::Read(observed) => {
                    if observed.as_ref() != self.value(last_write) {
                        continue; // this read cannot go here
                    }
                    last_write
                }
            };
            if self.run(done | (1 << i), next_write) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{Duration, Instant, OpKind};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn op(kind: OpKind, key: &str, t0: u64, t1: u64) -> RecordedOp {
        RecordedOp {
            kind,
            key: b(key),
            value: None,
            invoked: Instant::ZERO + Duration::from_nanos(t0),
            completed: Instant::ZERO + Duration::from_nanos(t1),
            result: None,
            ok: true,
        }
    }

    fn write(key: &str, v: &str, t0: u64, t1: u64) -> RecordedOp {
        RecordedOp {
            value: Some(b(v)),
            ..op(OpKind::Write, key, t0, t1)
        }
    }

    fn read(key: &str, v: Option<&str>, t0: u64, t1: u64) -> RecordedOp {
        RecordedOp {
            result: v.map(b),
            ..op(OpKind::Read, key, t0, t1)
        }
    }

    #[test]
    fn empty_and_single_op_histories_pass() {
        assert!(check_key_history(&[]).is_ok());
        assert!(check_key_history(&[OpRecord::read(1, "k", None, 0, 1)]).is_ok());
        assert!(check_key_history(&[OpRecord::write(1, "k", "v", 0, 1)]).is_ok());
    }

    #[test]
    fn sequential_write_then_read_passes() {
        let h = vec![
            OpRecord::write(1, "k", "v1", 0, 10),
            OpRecord::read(2, "k", Some(b("v1")), 20, 30),
        ];
        assert!(check_key_history(&h).is_ok());
    }

    #[test]
    fn stale_read_after_completed_write_fails() {
        // Write finished at 10; a read invoked at 20 returning the initial
        // value violates visibility (P1).
        let h = vec![
            OpRecord::write(1, "k", "v1", 0, 10),
            OpRecord::read(2, "k", None, 20, 30),
        ];
        assert!(matches!(
            check_key_history(&h),
            Err(Violation::NotLinearizable { .. })
        ));
    }

    #[test]
    fn read_ahead_of_uncommitted_write_fails() {
        // The write completes at 100, but a read that both started and
        // finished before any overlap window... actually overlapping is
        // fine; this one observes a value that is NEVER written.
        let h = vec![
            OpRecord::write(1, "k", "v1", 0, 100),
            OpRecord::read(2, "k", Some(b("ghost")), 10, 20),
        ];
        assert!(check_key_history(&h).is_err());
    }

    #[test]
    fn concurrent_read_may_see_either_side_of_a_write() {
        for observed in [None, Some(b("v1"))] {
            let h = vec![
                OpRecord::write(1, "k", "v1", 0, 100),
                OpRecord::read(2, "k", observed, 10, 20),
            ];
            assert!(check_key_history(&h).is_ok());
        }
    }

    #[test]
    fn oscillating_reads_fail() {
        // The paper's §3 anomaly: a value appearing, disappearing, and
        // reappearing depending on which replica answered.
        let h = vec![
            OpRecord::write(1, "k", "new", 0, 10),
            OpRecord::read(2, "k", Some(b("new")), 20, 25),
            OpRecord::read(2, "k", None, 30, 35),
        ];
        assert!(check_key_history(&h).is_err());
    }

    #[test]
    fn two_writers_and_reader_interleave_legally() {
        let h = vec![
            OpRecord::write(1, "k", "a", 0, 50),
            OpRecord::write(2, "k", "b", 10, 60),
            OpRecord::read(3, "k", Some(b("a")), 70, 80),
        ];
        // Legal: b linearizes before a.
        assert!(check_key_history(&h).is_ok());
    }

    #[test]
    fn read_ordering_between_two_readers_is_enforced() {
        // r1 sees the new value and completes before r2 starts; r2 then
        // seeing the old value is the read-behind anomaly.
        let h = vec![
            OpRecord::write(1, "k", "old", 0, 5),
            OpRecord::write(1, "k", "new", 10, 100),
            OpRecord::read(2, "k", Some(b("new")), 20, 30),
            OpRecord::read(3, "k", Some(b("old")), 40, 50),
        ];
        assert!(check_key_history(&h).is_err());
        // Swap the observation order: fine.
        let h2 = vec![
            OpRecord::write(1, "k", "old", 0, 5),
            OpRecord::write(1, "k", "new", 10, 100),
            OpRecord::read(2, "k", Some(b("old")), 20, 30),
            OpRecord::read(3, "k", Some(b("new")), 40, 50),
        ];
        assert!(check_key_history(&h2).is_ok());
    }

    #[test]
    fn multi_key_histories_compose() {
        let histories = [
            vec![write("a", "1", 0, 10), write("b", "2", 20, 30)],
            vec![read("a", Some("1"), 40, 50), read("b", Some("2"), 40, 50)],
        ];
        let checked = Checker::new().check(&histories).unwrap();
        assert_eq!(
            checked,
            Checked {
                checked: 4,
                abandoned: 0
            }
        );
    }

    #[test]
    fn violation_on_one_key_is_found_among_many() {
        let mut writer = vec![];
        let mut reader = vec![];
        for i in 0..10 {
            let key = format!("k{i}");
            writer.push(write(&key, "v", i * 100, i * 100 + 10));
            reader.push(read(&key, Some("v"), i * 100 + 20, i * 100 + 30));
        }
        // Poison one key.
        let stale = vec![read("k5", None, 2000, 2010)];
        assert_eq!(
            Checker::new().check(&[writer, reader, stale]),
            Err(Violation::NotLinearizable { key: b("k5") })
        );
    }

    #[test]
    fn oversized_history_is_rejected_not_ignored() {
        // 65 writes all in flight together: no quiescent point to cut at.
        let h: Vec<OpRecord> = (0..65)
            .map(|i| OpRecord::write(1, "k", format!("v{i}"), i, 1000))
            .collect();
        assert!(matches!(
            check_key_history(&h),
            Err(Violation::TooLarge { ops: 65, .. })
        ));
        let histories: Vec<Vec<RecordedOp>> = (0..65)
            .map(|i| vec![write("k", &format!("v{i}"), i, 1000)])
            .collect();
        assert_eq!(
            Checker::new().check(&histories),
            Err(Violation::TooLarge {
                key: b("k"),
                ops: 65
            })
        );
    }

    #[test]
    fn deep_concurrent_history_checks_quickly() {
        // 20 fully-overlapping writes + a read: stresses the memo.
        let mut h: Vec<OpRecord> = (0..20)
            .map(|i| OpRecord::write(i, "k", format!("v{i}"), 0, 1000))
            .collect();
        h.push(OpRecord::read(99, "k", Some(b("v7")), 2000, 2001));
        assert!(check_key_history(&h).is_ok());
    }

    #[test]
    fn long_sequential_history_is_checked_in_windows() {
        let mut h = vec![];
        for i in 0..500u64 {
            let (t, v) = (i * 20, format!("v{i}"));
            h.push(write("k", &v, t, t + 5));
            h.push(read("k", Some(&v), t + 10, t + 15));
        }
        let checked = Checker::new().check(&[h]).unwrap();
        assert_eq!(checked.checked, 1000);
    }

    #[test]
    fn a_busy_run_longer_than_the_search_is_too_large() {
        let mut h: Vec<RecordedOp> = (0..100)
            .map(|i| write("k", &format!("s{i}"), i * 10, i * 10 + 5))
            .collect();
        let busy: Vec<Vec<RecordedOp>> = (0..70)
            .map(|i| vec![write("k", &format!("c{i}"), 2000 + i, 3000)])
            .collect();
        h.push(read("k", Some("s99"), 1500, 1600));
        let mut histories = busy;
        histories.push(h);
        assert_eq!(
            Checker::new().check(&histories),
            Err(Violation::TooLarge {
                key: b("k"),
                ops: 70
            })
        );
    }

    #[test]
    fn preload_and_state_carry_across_calls() {
        let mut c = Checker::new();
        c.preload("k", "pre");
        c.check(&[vec![read("k", Some("pre"), 0, 5)]]).unwrap();
        c.check(&[vec![write("k", "a", 0, 5)]]).unwrap();
        // The preload value was overwritten before this read.
        assert!(c.check(&[vec![read("k", Some("pre"), 0, 5)]]).is_err());
    }

    #[test]
    fn racing_final_writes_leave_both_values_possible() {
        let mut c = Checker::new();
        c.check(&[vec![write("k", "a", 0, 10)], vec![write("k", "b", 5, 15)]])
            .unwrap();
        c.check(&[vec![read("k", Some("a"), 0, 5)]]).unwrap();
        // The read settled it: "b" can no longer be observed.
        assert!(c.check(&[vec![read("k", Some("b"), 0, 5)]]).is_err());
    }

    /// A read that ordered two racing writes settles which one is final:
    /// the value of the other one is overwritten and stays so.
    #[test]
    fn a_read_that_ordered_racing_writes_is_carried() {
        let mut c = Checker::new();
        let trial = [
            vec![write("k", "a", 0, 10)],
            vec![write("k", "b", 5, 15), read("k", Some("b"), 12, 14)],
        ];
        c.check(&trial).unwrap();
        assert_eq!(
            c.check(&[vec![read("k", Some("a"), 0, 5)]]),
            Err(Violation::NotLinearizable { key: b("k") })
        );
        // The same four operations as one history fail too.
        let whole = [
            OpRecord::write(1, "k", "a", 0, 10),
            OpRecord::write(2, "k", "b", 5, 15),
            OpRecord::read(2, "k", Some(b("b")), 12, 14),
            OpRecord::read(3, "k", Some(b("a")), 20, 25),
        ];
        assert!(check_key_history(&whole).is_err());
    }

    #[test]
    fn abandoned_operations_poison_their_key() {
        let mut c = Checker::new();
        let mut lost = write("k", "x", 0, 5);
        lost.ok = false;
        let checked = c.check(&[vec![lost, read("k", None, 10, 15)]]).unwrap();
        assert_eq!(
            checked,
            Checked {
                checked: 0,
                abandoned: 1
            }
        );
        // ... in every later call too.
        let later = c.check(&[vec![read("k", Some("ghost"), 0, 5)]]).unwrap();
        assert_eq!(later, Checked::default());
    }
}
