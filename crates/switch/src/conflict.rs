//! The read-write conflict detection module — Algorithm 1 of the paper.
//!
//! The detector tracks three pieces of state (§5):
//!
//! 1. a monotonically increasing **sequence number**, stamped into writes;
//! 2. the **dirty set** — for each object with pending writes, the largest
//!    pending sequence number (held in the [`MultiStageHashTable`]);
//! 3. the **last-committed point** — the largest sequence number known to be
//!    committed, stamped into fast-path reads so replicas can apply the
//!    visibility/integrity guards of §7.
//!
//! It also implements the §5.3 failover rule: a freshly initialized switch
//! forwards everything through the normal protocol until it observes the
//! first WRITE-COMPLETION carrying *its own* switch id, at which point its
//! dirty set and last-committed point are guaranteed up to date and the
//! single-replica fast path is enabled.

use harmonia_types::{ObjectId, SwitchId, SwitchSeq, WriteCompletion};

use crate::table::{MultiStageHashTable, TableConfig, TableStats};

/// Detector construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ConflictConfig {
    /// This switch incarnation's id (must exceed every predecessor's).
    pub switch_id: SwitchId,
    /// Dirty-set geometry.
    pub table: TableConfig,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        ConflictConfig {
            switch_id: SwitchId(1),
            table: TableConfig::default(),
        }
    }
}

/// Outcome of processing a write (Algorithm 1, lines 1–4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteDecision {
    /// The write was stamped with this sequence number and the object was
    /// added to the dirty set; forward to the replication protocol.
    Stamped(SwitchSeq),
    /// Every hash-table stage collided: the write is dropped (§6.1) and the
    /// client must retry.
    Dropped,
}

/// Outcome of processing a read (Algorithm 1, lines 9–12).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadDecision {
    /// Contended (or fast path not yet enabled): forward unmodified through
    /// the normal replication protocol.
    Normal,
    /// Uncontended: send to one replica, stamped with the last-committed
    /// point.
    FastPath {
        /// Value to stamp into `pkt.last_committed`.
        last_committed: SwitchSeq,
    },
}

/// Algorithm 1, plus failover gating. Pure state machine: no I/O, no clock.
#[derive(Clone, Debug)]
pub struct ConflictDetector {
    switch_id: SwitchId,
    next_seq: u64,
    table: MultiStageHashTable,
    last_committed: SwitchSeq,
    fast_path_enabled: bool,
    /// An entry may have gone stale since the last sweep: the
    /// last-committed point moved, or a write was stamped at or below it.
    /// Nothing else can make a sweep find something.
    stale_since_sweep: bool,
}

impl ConflictDetector {
    /// A freshly booted switch: empty dirty set, fast path disabled.
    pub fn new(config: ConflictConfig) -> Self {
        ConflictDetector {
            switch_id: config.switch_id,
            next_seq: 0,
            table: MultiStageHashTable::new(config.table),
            last_committed: SwitchSeq::ZERO,
            fast_path_enabled: false,
            stale_since_sweep: false,
        }
    }

    /// This incarnation's id.
    pub fn switch_id(&self) -> SwitchId {
        self.switch_id
    }

    /// Largest committed sequence number observed.
    pub fn last_committed(&self) -> SwitchSeq {
        self.last_committed
    }

    /// Whether single-replica reads are currently being issued.
    pub fn fast_path_enabled(&self) -> bool {
        self.fast_path_enabled
    }

    /// Process a WRITE (Algorithm 1 lines 1–4): assign the next sequence
    /// number and track the object as dirty.
    pub fn process_write(&mut self, obj: ObjectId) -> WriteDecision {
        self.next_seq += 1;
        let seq = SwitchSeq::new(self.switch_id, self.next_seq);
        if self.table.insert(obj, seq) {
            // Only after a completion from beyond this incarnation's own
            // sequence space (a stray or forged one): born stale.
            self.stale_since_sweep |= seq <= self.last_committed;
            WriteDecision::Stamped(seq)
        } else {
            WriteDecision::Dropped
        }
    }

    /// Process a WRITE-COMPLETION (Algorithm 1 lines 5–8): clear the dirty
    /// entry if this was the last pending write to the object, and advance
    /// the last-committed point.
    pub fn process_completion(&mut self, completion: WriteCompletion) {
        self.table.delete(completion.obj, completion.seq);
        if completion.seq > self.last_committed {
            self.last_committed = completion.seq;
            // Whatever is still tracked may now sit at or below the point;
            // an empty set has nothing to go stale.
            self.stale_since_sweep = self.table.occupancy() > 0;
        }
        // §5.3: the first completion stamped by *this* incarnation proves the
        // dirty set and last-committed point are up to date. The bottom
        // sequence number is stamped by no one, even under switch id 0.
        if completion.seq.switch_id == self.switch_id && !completion.seq.is_zero() {
            self.fast_path_enabled = true;
        }
    }

    /// Process a READ (Algorithm 1 lines 9–12): decide its route. Probing
    /// doubles as lazy cleanup of stale entries (§5.2).
    pub fn process_read(&mut self, obj: ObjectId) -> ReadDecision {
        if !self.fast_path_enabled {
            return ReadDecision::Normal;
        }
        match self.table.search_and_scrub(obj, self.last_committed) {
            Some(_pending) => ReadDecision::Normal,
            None => ReadDecision::FastPath {
                last_committed: self.last_committed,
            },
        }
    }

    /// Control-plane periodic sweep of stale dirty entries (§5.2). Returns
    /// the number of entries removed — without scanning when
    /// [`sweep_pending`](Self::sweep_pending) says there is nothing to find.
    pub fn sweep(&mut self) -> usize {
        if !self.sweep_pending() {
            return 0;
        }
        self.stale_since_sweep = false;
        self.table.sweep(self.last_committed)
    }

    /// Whether a sweep could remove anything: the dirty set is non-empty
    /// and an entry may have gone stale since the last sweep. Exact in the
    /// direction that matters — `false` means a full scan would return 0 —
    /// so a control plane may sleep until it turns `true`.
    #[inline]
    pub fn sweep_pending(&self) -> bool {
        self.stale_since_sweep && self.table.occupancy() > 0
    }

    /// Dirty-set occupancy (live entries).
    pub fn dirty_len(&self) -> usize {
        self.table.occupancy()
    }

    /// SRAM the dirty set needed at its fullest under the §6.2 resource
    /// model: its peak occupancy in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.table.peak_bytes()
    }

    /// Dirty-set behaviour counters.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// SRAM footprint of the dirty set under the §6.2 resource model.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> ConflictDetector {
        ConflictDetector::new(ConflictConfig {
            switch_id: SwitchId(1),
            table: TableConfig {
                stages: 3,
                slots_per_stage: 64,
                entry_bytes: 8,
            },
        })
    }

    /// Drive a write through commit so the fast path turns on.
    fn prime(d: &mut ConflictDetector) {
        let WriteDecision::Stamped(seq) = d.process_write(ObjectId(999)) else {
            panic!("insert failed in empty table");
        };
        d.process_completion(WriteCompletion {
            obj: ObjectId(999),
            seq,
        });
    }

    #[test]
    fn reads_take_normal_path_until_first_completion() {
        let mut d = detector();
        assert_eq!(d.process_read(ObjectId(1)), ReadDecision::Normal);
        let WriteDecision::Stamped(seq) = d.process_write(ObjectId(1)) else {
            panic!()
        };
        // Still gated: the write is pending, no completion yet.
        assert_eq!(d.process_read(ObjectId(2)), ReadDecision::Normal);
        d.process_completion(WriteCompletion {
            obj: ObjectId(1),
            seq,
        });
        assert!(d.fast_path_enabled());
        assert_eq!(
            d.process_read(ObjectId(2)),
            ReadDecision::FastPath {
                last_committed: seq
            }
        );
    }

    #[test]
    fn contended_object_routes_through_normal_path() {
        let mut d = detector();
        prime(&mut d);
        let WriteDecision::Stamped(seq) = d.process_write(ObjectId(5)) else {
            panic!()
        };
        assert_eq!(d.process_read(ObjectId(5)), ReadDecision::Normal);
        d.process_completion(WriteCompletion {
            obj: ObjectId(5),
            seq,
        });
        assert!(matches!(
            d.process_read(ObjectId(5)),
            ReadDecision::FastPath { .. }
        ));
    }

    #[test]
    fn sequence_numbers_strictly_increase() {
        let mut d = detector();
        let mut last = SwitchSeq::ZERO;
        for i in 0..100u32 {
            if let WriteDecision::Stamped(seq) = d.process_write(ObjectId(i)) {
                assert!(seq > last);
                last = seq;
            }
        }
    }

    #[test]
    fn completion_of_older_write_keeps_object_dirty() {
        let mut d = detector();
        prime(&mut d);
        let WriteDecision::Stamped(s1) = d.process_write(ObjectId(7)) else {
            panic!()
        };
        let WriteDecision::Stamped(s2) = d.process_write(ObjectId(7)) else {
            panic!()
        };
        assert!(s2 > s1);
        // First write completes, but the second is still pending.
        d.process_completion(WriteCompletion {
            obj: ObjectId(7),
            seq: s1,
        });
        assert_eq!(d.process_read(ObjectId(7)), ReadDecision::Normal);
        d.process_completion(WriteCompletion {
            obj: ObjectId(7),
            seq: s2,
        });
        assert!(matches!(
            d.process_read(ObjectId(7)),
            ReadDecision::FastPath { .. }
        ));
    }

    #[test]
    fn lost_completion_is_scrubbed_lazily_after_later_commit() {
        let mut d = detector();
        prime(&mut d);
        let WriteDecision::Stamped(s1) = d.process_write(ObjectId(11)) else {
            panic!()
        };
        // s1's completion is lost. A later write to a different object
        // commits, advancing last_committed past s1 (in-order processing).
        let WriteDecision::Stamped(s2) = d.process_write(ObjectId(12)) else {
            panic!()
        };
        assert!(s2 > s1);
        d.process_completion(WriteCompletion {
            obj: ObjectId(12),
            seq: s2,
        });
        // The stray entry for 11 is removed as the read probes.
        assert!(matches!(
            d.process_read(ObjectId(11)),
            ReadDecision::FastPath { .. }
        ));
        assert_eq!(d.dirty_len(), 0);
        assert_eq!(d.table_stats().scrubbed_by_reads, 1);
    }

    #[test]
    fn periodic_sweep_clears_stale_entries() {
        let mut d = detector();
        prime(&mut d);
        let WriteDecision::Stamped(s1) = d.process_write(ObjectId(21)) else {
            panic!()
        };
        let WriteDecision::Stamped(s2) = d.process_write(ObjectId(22)) else {
            panic!()
        };
        d.process_completion(WriteCompletion {
            obj: ObjectId(22),
            seq: s2,
        });
        let _ = s1;
        assert_eq!(d.sweep(), 1, "21's stray entry swept");
        assert_eq!(d.dirty_len(), 0);
    }

    #[test]
    fn table_exhaustion_drops_writes() {
        let mut d = ConflictDetector::new(ConflictConfig {
            switch_id: SwitchId(1),
            table: TableConfig {
                stages: 1,
                slots_per_stage: 1,
                entry_bytes: 8,
            },
        });
        assert!(matches!(
            d.process_write(ObjectId(1)),
            WriteDecision::Stamped(_)
        ));
        // Any object hashing to the same single slot is dropped. With one
        // slot everything collides.
        assert_eq!(d.process_write(ObjectId(2)), WriteDecision::Dropped);
        assert_eq!(d.table_stats().insert_drops, 1);
    }

    #[test]
    fn new_incarnation_ignores_predecessor_completions_for_gating() {
        let mut d2 = ConflictDetector::new(ConflictConfig {
            switch_id: SwitchId(2),
            ..ConflictConfig::default()
        });
        // A completion stamped by switch 1 arrives after failover: it must
        // advance last_committed but NOT enable the fast path.
        d2.process_completion(WriteCompletion {
            obj: ObjectId(1),
            seq: SwitchSeq::new(SwitchId(1), 500),
        });
        assert!(!d2.fast_path_enabled());
        assert_eq!(d2.last_committed(), SwitchSeq::new(SwitchId(1), 500));
        assert_eq!(d2.process_read(ObjectId(9)), ReadDecision::Normal);
        // Its own write committing flips the gate.
        let WriteDecision::Stamped(seq) = d2.process_write(ObjectId(3)) else {
            panic!()
        };
        assert_eq!(seq.switch_id, SwitchId(2));
        d2.process_completion(WriteCompletion {
            obj: ObjectId(3),
            seq,
        });
        assert!(d2.fast_path_enabled());
    }

    #[test]
    fn last_committed_is_monotone() {
        let mut d = detector();
        prime(&mut d);
        let high = d.last_committed();
        // A duplicate/reordered completion for an old write must not regress.
        d.process_completion(WriteCompletion {
            obj: ObjectId(42),
            seq: SwitchSeq::new(SwitchId(1), 0),
        });
        assert_eq!(d.last_committed(), high.max(SwitchSeq::new(SwitchId(1), 0)));
        assert!(d.last_committed() >= high);
    }

    #[test]
    fn the_bottom_never_arms_the_fast_path_even_under_switch_id_0() {
        let mut d = ConflictDetector::new(ConflictConfig {
            switch_id: SwitchId(0),
            table: TableConfig::default(),
        });
        d.process_completion(WriteCompletion {
            obj: ObjectId(1),
            seq: SwitchSeq::ZERO,
        });
        assert!(!d.fast_path_enabled());
        let WriteDecision::Stamped(seq) = d.process_write(ObjectId(1)) else {
            panic!()
        };
        assert!(seq > SwitchSeq::ZERO);
        d.process_completion(WriteCompletion {
            obj: ObjectId(1),
            seq,
        });
        assert!(d.fast_path_enabled());
    }

    proptest::proptest! {
        /// The sweep that skips (empty set, nothing gone stale since the
        /// last one) removes exactly what a scan of the table would, and
        /// `sweep_pending` is never false while a scan would find
        /// something — over any mix of writes, reads that scrub, sweeps,
        /// reboots, and completions that are in order, late, duplicated,
        /// or from beyond every sequence number issued (which makes later
        /// writes stale at birth).
        #[test]
        fn skipping_sweep_matches_a_scan(
            ops in proptest::prop::collection::vec((0u8..7, 0u32..12, 0u64..4), 1..200)
        ) {
            let mut d = ConflictDetector::new(ConflictConfig {
                switch_id: SwitchId(1),
                table: TableConfig { stages: 2, slots_per_stage: 4, entry_bytes: 8 },
            });
            let mut issued: Vec<WriteCompletion> = Vec::new();
            for (kind, obj, pick) in ops {
                let obj = ObjectId(obj);
                match kind {
                    0 | 1 => {
                        if let WriteDecision::Stamped(seq) = d.process_write(obj) {
                            issued.push(WriteCompletion { obj, seq });
                        }
                    }
                    2 if !issued.is_empty() => {
                        let i = (pick as usize * 7 + obj.0 as usize) % issued.len();
                        d.process_completion(issued[i]);
                    }
                    3 if pick == 0 => d.process_completion(WriteCompletion {
                        obj,
                        seq: SwitchSeq::new(SwitchId(1), d.next_seq + 1 + u64::from(obj.0)),
                    }),
                    4 => {
                        d.process_read(obj);
                    }
                    5 => {
                        let by_scan = d.table.stale_by_scan(d.last_committed);
                        proptest::prop_assert_eq!(d.sweep(), by_scan);
                        proptest::prop_assert_eq!(d.table.stale_by_scan(d.last_committed), 0);
                    }
                    6 if pick == 0 => d.table.clear(),
                    _ => {}
                }
                proptest::prop_assert!(
                    d.sweep_pending() || d.table.stale_by_scan(d.last_committed) == 0,
                    "sweep_pending() is false with stale entries in the table"
                );
            }
        }
    }
}
