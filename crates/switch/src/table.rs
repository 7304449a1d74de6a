//! The multi-stage hash table holding the dirty set (Figure 4).
//!
//! One register array per stage, a different hash function per stage. Each
//! data-plane operation is a single pipeline traversal touching each stage's
//! array at most once:
//!
//! * **Insertion** (write): the entry is written into the first stage whose
//!   slot is empty *or already holds the same object* (which updates its
//!   sequence number, keeping only the largest per object as §5 requires).
//!   If every stage's slot is taken by a different object, the write is
//!   **dropped** — the behaviour Figure 8 measures under skew.
//! * **Search** (read): all stages are probed; the largest matching sequence
//!   number wins.
//! * **Deletion** (write completion): all stages are probed; entries for the
//!   object with `seq <= completion.seq` are cleared.
//!
//! Lazy cleanup (§5.2): because writes are processed in order, any entry
//! with `seq <= last_committed` is stale; reads scrub such entries as they
//! probe, and the control plane sweeps the table periodically. The
//! registers are sparse (see [`register`](crate::register)): a sweep visits
//! the occupied slots and nothing else, occupancy is their count, and a
//! table costs memory in proportion to what it holds, while
//! [`memory_bytes`](MultiStageHashTable::memory_bytes) still charges the
//! whole geometry, as the ASIC's SRAM would.

use harmonia_types::{ObjectId, SwitchSeq};

use crate::hash::StageHash;
use crate::register::RegisterArray;

/// One register slot: an object id and the largest pending sequence number.
/// `seq == SwitchSeq::ZERO` means the slot is empty (an incarnation stamps
/// its writes from 1, so no live entry can carry the sentinel). The table
/// empties a slot by writing `Slot::default()`, which the sparse registers
/// do not store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Object occupying the slot (meaningless when empty).
    pub obj: ObjectId,
    /// Largest pending write sequence number for `obj`.
    pub seq: SwitchSeq,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            obj: ObjectId(0),
            seq: SwitchSeq::ZERO,
        }
    }
}

impl Slot {
    fn is_empty(self) -> bool {
        self.seq == SwitchSeq::ZERO
    }
}

/// Table geometry.
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// Number of pipeline stages dedicated to the dirty set.
    pub stages: usize,
    /// Slots per stage.
    pub slots_per_stage: usize,
    /// SRAM bytes per entry for the resource model (32-bit id + 32-bit seq
    /// = 8 in the paper's configuration).
    pub entry_bytes: usize,
}

impl Default for TableConfig {
    /// The prototype configuration from §8: 3 stages × 64K slots.
    fn default() -> Self {
        TableConfig {
            stages: 3,
            slots_per_stage: 64 * 1024,
            entry_bytes: 8,
        }
    }
}

/// Running counters for table behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Successful insertions (including in-place sequence updates).
    pub inserts: u64,
    /// Writes dropped because all stages collided.
    pub insert_drops: u64,
    /// Entries removed by write completions.
    pub deletes: u64,
    /// Stale entries scrubbed lazily by reads.
    pub scrubbed_by_reads: u64,
    /// Stale entries removed by control-plane sweeps.
    pub swept: u64,
}

/// The dirty set.
#[derive(Clone, Debug)]
pub struct MultiStageHashTable {
    stages: Vec<(StageHash, RegisterArray<Slot>)>,
    /// SRAM bytes per slot (the resource model's, not this process's).
    entry_bytes: usize,
    /// The most slots ever occupied at once.
    peak: usize,
    stats: TableStats,
}

impl MultiStageHashTable {
    /// Build a table with the given geometry, clamped to at least one stage
    /// of one slot and to at most `u32::MAX` slots in all.
    pub fn new(config: TableConfig) -> Self {
        let stages = config.stages.max(1);
        let slots_per_stage = config
            .slots_per_stage
            .clamp(1, (u32::MAX as usize / stages).max(1));
        MultiStageHashTable {
            stages: (0..stages)
                .map(|s| {
                    (
                        StageHash::for_stage(s as u32),
                        RegisterArray::new(slots_per_stage, config.entry_bytes),
                    )
                })
                .collect(),
            entry_bytes: config.entry_bytes,
            peak: 0,
            stats: TableStats::default(),
        }
    }

    /// Insert `obj` with pending sequence `seq`, or refresh its existing
    /// entry. Returns `false` if the write must be dropped (full collision).
    pub fn insert(&mut self, obj: ObjectId, seq: SwitchSeq) -> bool {
        debug_assert!(seq > SwitchSeq::ZERO, "real writes have non-sentinel seqs");
        // `Some(filled an empty slot)` from the first stage that takes the
        // entry; the stages behind it are not touched.
        let taken = self.stages.iter_mut().find_map(|(hash, array)| {
            let idx = hash.slot(obj, array.len());
            array.begin_packet();
            array.access(idx, |slot| {
                let was_empty = slot.is_empty();
                (was_empty || slot.obj == obj).then(|| {
                    *slot = Slot { obj, seq };
                    was_empty
                })
            })
        });
        let Some(was_empty) = taken else {
            self.stats.insert_drops += 1;
            return false;
        };
        if was_empty {
            self.peak = self.peak.max(self.occupancy());
        }
        self.stats.inserts += 1;
        true
    }

    /// Probe for `obj`; returns the largest pending sequence number if the
    /// object is dirty.
    pub fn search(&mut self, obj: ObjectId) -> Option<SwitchSeq> {
        let mut best: Option<SwitchSeq> = None;
        for (hash, array) in &mut self.stages {
            let idx = hash.slot(obj, array.len());
            array.begin_packet();
            array.access(idx, |slot| {
                if !slot.is_empty() && slot.obj == obj {
                    best = Some(best.map_or(slot.seq, |b: SwitchSeq| b.max(slot.seq)));
                }
            });
        }
        best
    }

    /// Probe for `obj` while lazily scrubbing stale entries: any matching
    /// entry with `seq <= last_committed` denotes a write that has already
    /// completed (writes are processed in order) and is cleared in passing.
    /// Returns the largest *live* pending sequence number.
    pub fn search_and_scrub(
        &mut self,
        obj: ObjectId,
        last_committed: SwitchSeq,
    ) -> Option<SwitchSeq> {
        let mut best: Option<SwitchSeq> = None;
        let mut scrubbed = 0;
        for (hash, array) in &mut self.stages {
            let idx = hash.slot(obj, array.len());
            array.begin_packet();
            array.access(idx, |slot| {
                if !slot.is_empty() && slot.obj == obj {
                    if slot.seq <= last_committed {
                        *slot = Slot::default();
                        scrubbed += 1;
                    } else {
                        best = Some(best.map_or(slot.seq, |b: SwitchSeq| b.max(slot.seq)));
                    }
                }
            });
        }
        self.stats.scrubbed_by_reads += scrubbed;
        best
    }

    /// Process a write completion: clear every entry for `obj` whose pending
    /// sequence number is covered by `seq`. Returns how many were cleared.
    pub fn delete(&mut self, obj: ObjectId, seq: SwitchSeq) -> usize {
        let mut removed = 0;
        for (hash, array) in &mut self.stages {
            let idx = hash.slot(obj, array.len());
            array.begin_packet();
            array.access(idx, |slot| {
                if !slot.is_empty() && slot.obj == obj && slot.seq <= seq {
                    *slot = Slot::default();
                    removed += 1;
                }
            });
        }
        self.stats.deletes += removed as u64;
        removed
    }

    /// Control-plane sweep clearing every entry with `seq <= last_committed`
    /// (§5.2 "this removal can also be done periodically"). It visits the
    /// occupied slots only.
    pub fn sweep(&mut self, last_committed: SwitchSeq) -> usize {
        let removed: usize = (self.stages.iter_mut())
            .map(|(_, array)| array.zero_unless(|slot| slot.seq > last_committed))
            .sum();
        self.stats.swept += removed as u64;
        removed
    }

    /// Clear everything (switch reboot: all soft state is lost).
    pub fn clear(&mut self) {
        for (_, array) in &mut self.stages {
            array.clear();
        }
    }

    /// Occupied slots across all stages.
    pub fn occupancy(&self) -> usize {
        self.stages.iter().map(|(_, a)| a.occupied()).sum()
    }

    /// The most slots ever occupied at once: the SRAM the workload needed,
    /// beside the [`capacity`](Self::capacity) it was given.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Occupied slots per stage (front to back).
    pub fn occupancy_per_stage(&self) -> Vec<usize> {
        self.stages.iter().map(|(_, a)| a.occupied()).collect()
    }

    /// Total slots across all stages.
    pub fn capacity(&self) -> usize {
        self.stages.iter().map(|(_, a)| a.len()).sum()
    }

    /// SRAM consumed under the resource model.
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().map(|(_, a)| a.memory_bytes()).sum()
    }

    /// SRAM the [`peak_occupancy`](Self::peak_occupancy) needed under the
    /// resource model.
    pub fn peak_bytes(&self) -> usize {
        self.peak * self.entry_bytes
    }

    /// Behaviour counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }
}

impl Default for MultiStageHashTable {
    fn default() -> Self {
        MultiStageHashTable::new(TableConfig::default())
    }
}

/// The reference scan the tests hold the detector's sweep to.
#[cfg(test)]
impl MultiStageHashTable {
    /// What a sweep at `last_committed` would remove.
    pub(crate) fn stale_by_scan(&self, last_committed: SwitchSeq) -> usize {
        self.stages
            .iter()
            .flat_map(|(_, a)| a.iter())
            .filter(|(_, s)| s.seq <= last_committed)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::SwitchId;

    fn seq(n: u64) -> SwitchSeq {
        SwitchSeq::new(SwitchId(1), n)
    }

    fn small() -> MultiStageHashTable {
        MultiStageHashTable::new(TableConfig {
            stages: 3,
            slots_per_stage: 16,
            entry_bytes: 8,
        })
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        let mut t = small();
        assert!(t.insert(ObjectId(1), seq(10)));
        assert_eq!(t.search(ObjectId(1)), Some(seq(10)));
        assert_eq!(t.search(ObjectId(2)), None);
        assert_eq!(t.delete(ObjectId(1), seq(10)), 1);
        assert_eq!(t.search(ObjectId(1)), None);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn reinsert_updates_sequence_in_place() {
        let mut t = small();
        t.insert(ObjectId(1), seq(10));
        t.insert(ObjectId(1), seq(20));
        assert_eq!(t.search(ObjectId(1)), Some(seq(20)));
        assert_eq!(t.occupancy(), 1, "no duplicate entry created");
    }

    #[test]
    fn delete_ignores_newer_pending_write() {
        // Completion of write 10 must not clear the entry tracking write 20
        // (Algorithm 1 line 6: only delete when pkt.seq >= stored seq).
        let mut t = small();
        t.insert(ObjectId(1), seq(20));
        assert_eq!(t.delete(ObjectId(1), seq(10)), 0);
        assert_eq!(t.search(ObjectId(1)), Some(seq(20)));
    }

    #[test]
    fn full_collision_drops_write() {
        let mut t = MultiStageHashTable::new(TableConfig {
            stages: 2,
            slots_per_stage: 1,
            entry_bytes: 8,
        });
        // With one slot per stage every object maps to slot 0 in both stages:
        // the third distinct object must be dropped.
        assert!(t.insert(ObjectId(1), seq(1)));
        assert!(t.insert(ObjectId(2), seq(2)));
        assert!(!t.insert(ObjectId(3), seq(3)));
        assert_eq!(t.stats().insert_drops, 1);
        assert_eq!(t.search(ObjectId(3)), None);
    }

    #[test]
    fn scrub_on_read_removes_stale_entries() {
        let mut t = small();
        t.insert(ObjectId(1), seq(5));
        // The completion for write 5 was lost, but a later write committed:
        // last_committed advanced past 5, so the entry is stale.
        assert_eq!(t.search_and_scrub(ObjectId(1), seq(7)), None);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats().scrubbed_by_reads, 1);
    }

    #[test]
    fn scrub_keeps_live_entries() {
        let mut t = small();
        t.insert(ObjectId(1), seq(9));
        assert_eq!(t.search_and_scrub(ObjectId(1), seq(7)), Some(seq(9)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn sweep_clears_only_stale() {
        let mut t = small();
        for i in 1..=10u64 {
            assert!(t.insert(ObjectId(i as u32), seq(i)));
        }
        let removed = t.sweep(seq(6));
        assert_eq!(removed, 6);
        assert_eq!(t.occupancy(), 4);
        for i in 7..=10u64 {
            assert_eq!(t.search(ObjectId(i as u32)), Some(seq(i)));
        }
    }

    #[test]
    fn duplicate_entries_across_stages_are_all_cleared_by_delete() {
        // Construct the duplicate scenario: obj A lands in stage 2 because
        // stage 1 is blocked by B; B completes, freeing stage 1; A's next
        // write then occupies stage 1, leaving a stale copy in stage 2.
        let mut t = MultiStageHashTable::new(TableConfig {
            stages: 2,
            slots_per_stage: 1,
            entry_bytes: 8,
        });
        assert!(t.insert(ObjectId(66), seq(1))); // B at stage 1
        assert!(t.insert(ObjectId(65), seq(2))); // A at stage 2
        assert_eq!(t.delete(ObjectId(66), seq(1)), 1); // B completes
        assert!(t.insert(ObjectId(65), seq(3))); // A again -> stage 1
        assert_eq!(t.occupancy(), 2, "A now present twice");
        // Search reports the largest pending seq.
        assert_eq!(t.search(ObjectId(65)), Some(seq(3)));
        // The completion for seq 3 covers both copies.
        assert_eq!(t.delete(ObjectId(65), seq(3)), 2);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut t = small();
        for i in 1..=5u64 {
            t.insert(ObjectId(i as u32), seq(i));
        }
        t.clear();
        assert_eq!(t.occupancy(), 0);
        for i in 1..=5u64 {
            assert_eq!(t.search(ObjectId(i as u32)), None);
        }
    }

    #[test]
    fn memory_accounting_matches_paper_example() {
        // §6.2: 3 stages × 64K slots × (32-bit id + 32-bit seq) = 1.5 MB.
        let t = MultiStageHashTable::new(TableConfig {
            stages: 3,
            slots_per_stage: 64_000,
            entry_bytes: 8,
        });
        assert_eq!(t.memory_bytes(), 3 * 64_000 * 8);
        assert!((t.memory_bytes() as f64 / (1024.0 * 1024.0) - 1.46).abs() < 0.1);
    }

    #[test]
    fn occupancy_per_stage_prefers_early_stages() {
        let mut t = MultiStageHashTable::new(TableConfig {
            stages: 3,
            slots_per_stage: 64,
            entry_bytes: 8,
        });
        for i in 1..=60u64 {
            t.insert(ObjectId(i as u32), seq(i));
        }
        let per = t.occupancy_per_stage();
        assert_eq!(per.iter().sum::<usize>(), 60);
        assert!(per[0] > per[1], "first stage fills first: {per:?}");
    }

    #[test]
    fn a_sweep_over_the_prototype_geometry_removes_what_a_scan_finds() {
        let mut t = MultiStageHashTable::default();
        let k = 200u64;
        for round in 0..3u64 {
            let first = round * k + 1;
            let obj = |s: u64| ObjectId(s as u32);
            for s in first..first + k {
                assert!(t.insert(obj(s), seq(s)));
            }
            // Every third write completes, newest first, and the ten newest
            // never do: the completions that overtake the others leave
            // their entries stale.
            let last_committed = first + k - 11;
            for s in (first..=last_committed).rev().step_by(3) {
                assert_eq!(t.delete(obj(s), seq(s)), 1);
            }
            let stale = t.stale_by_scan(seq(last_committed));
            assert!(stale > 100, "{stale}");
            assert_eq!(t.sweep(seq(last_committed)), stale);
            assert_eq!(t.stale_by_scan(seq(last_committed)), 0);
            assert_eq!(t.occupancy(), 10);
        }
        assert_eq!(t.capacity(), 3 * 65_536);
        assert_eq!(t.memory_bytes(), 1_572_864);
    }

    #[test]
    fn the_peak_is_the_high_water_mark_and_survives_a_reboot() {
        let mut t = MultiStageHashTable::default();
        assert_eq!((t.peak_occupancy(), t.peak_bytes()), (0, 0));
        for s in 1..=100_000u64 {
            let obj = ObjectId((s % 16) as u32);
            assert!(t.insert(obj, seq(s)));
            match s % 3 {
                0 => assert_eq!(t.delete(obj, seq(s)), 1),
                1 => assert_eq!(t.search_and_scrub(obj, seq(s)), None),
                _ => {}
            }
        }
        // 16 objects, each in at most one slot of each of 3 stages.
        let peak = t.peak_occupancy();
        assert!((1..=16 * 3).contains(&peak), "{peak}");
        assert!(peak >= t.occupancy());
        assert_eq!(t.peak_bytes(), peak * 8);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.peak_occupancy(), peak);
    }

    /// The dense layout: every slot of every stage in memory, each
    /// operation the same one pass over the stages, a sweep that scans
    /// every slot. The sparse table must be indistinguishable from it.
    struct Dense {
        stages: Vec<(StageHash, Vec<Slot>)>,
        stats: TableStats,
    }

    impl Dense {
        fn new(config: TableConfig) -> Self {
            let stages = config.stages.max(1);
            let slots = config.slots_per_stage.max(1);
            Dense {
                stages: (0..stages)
                    .map(|s| (StageHash::for_stage(s as u32), vec![Slot::default(); slots]))
                    .collect(),
                stats: TableStats::default(),
            }
        }

        fn slot(&mut self, stage: usize, obj: ObjectId) -> &mut Slot {
            let (hash, slots) = &mut self.stages[stage];
            let idx = hash.slot(obj, slots.len());
            &mut slots[idx]
        }

        fn insert(&mut self, obj: ObjectId, seq: SwitchSeq) -> bool {
            for stage in 0..self.stages.len() {
                let slot = self.slot(stage, obj);
                if slot.is_empty() || slot.obj == obj {
                    *slot = Slot { obj, seq };
                    self.stats.inserts += 1;
                    return true;
                }
            }
            self.stats.insert_drops += 1;
            false
        }

        /// Search, scrubbing what `scrub_to` covers.
        fn probe(&mut self, obj: ObjectId, scrub_to: SwitchSeq) -> Option<SwitchSeq> {
            let mut best = None;
            for stage in 0..self.stages.len() {
                let slot = self.slot(stage, obj);
                if slot.is_empty() || slot.obj != obj {
                    continue;
                }
                if slot.seq <= scrub_to {
                    *slot = Slot::default();
                    self.stats.scrubbed_by_reads += 1;
                } else {
                    best = best.max(Some(slot.seq));
                }
            }
            best
        }

        fn delete(&mut self, obj: ObjectId, seq: SwitchSeq) -> usize {
            let mut removed = 0;
            for stage in 0..self.stages.len() {
                let slot = self.slot(stage, obj);
                if !slot.is_empty() && slot.obj == obj && slot.seq <= seq {
                    *slot = Slot::default();
                    removed += 1;
                }
            }
            self.stats.deletes += removed as u64;
            removed
        }

        fn sweep(&mut self, last_committed: SwitchSeq) -> usize {
            let mut removed = 0;
            for (_, slots) in &mut self.stages {
                for slot in slots.iter_mut() {
                    if !slot.is_empty() && slot.seq <= last_committed {
                        *slot = Slot::default();
                        removed += 1;
                    }
                }
            }
            self.stats.swept += removed as u64;
            removed
        }

        fn clear(&mut self) {
            for (_, slots) in &mut self.stages {
                slots.fill(Slot::default());
            }
        }

        /// `(index, slot)` of every occupied slot, per stage.
        fn occupied(&self) -> Vec<Vec<(usize, Slot)>> {
            (self.stages.iter())
                .map(|(_, slots)| {
                    (slots.iter().copied().enumerate())
                        .filter(|(_, s)| !s.is_empty())
                        .collect()
                })
                .collect()
        }
    }

    fn occupied(t: &MultiStageHashTable) -> Vec<Vec<(usize, Slot)>> {
        (t.stages.iter())
            .map(|(_, a)| a.iter().map(|(i, &s)| (i, s)).collect())
            .collect()
    }

    /// Random runs of every operation over geometries small enough that
    /// whole-slot collisions and dropped writes are common: every return
    /// value, every counter, the occupancy, the peak and the slot contents
    /// of the sparse table equal the dense one's after every step.
    #[test]
    fn sparse_registers_are_indistinguishable_from_dense_ones() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (mut drops, mut scrubs, mut swept) = (0, 0, 0);
        for case in 0..2_000u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let config = TableConfig {
                stages: rng.gen_range(1..=3),
                slots_per_stage: rng.gen_range(1..=8),
                entry_bytes: 8,
            };
            let (mut sparse, mut dense) = (MultiStageHashTable::new(config), Dense::new(config));
            let objects = rng.gen_range(1..=16u32);
            let mut next = 0u64;
            let mut peak = 0;
            for _ in 0..rng.gen_range(1..=200) {
                let obj = ObjectId(rng.gen_range(0..objects));
                // Anywhere from the sentinel to past every issued number.
                let at = match rng.gen_range(0..8) {
                    0 => SwitchSeq::ZERO,
                    _ => seq(rng.gen_range(0..=next + 1)),
                };
                match rng.gen_range(0..16) {
                    0..=5 => {
                        next += 1;
                        assert_eq!(sparse.insert(obj, seq(next)), dense.insert(obj, seq(next)));
                    }
                    6 | 7 => assert_eq!(sparse.search(obj), dense.probe(obj, SwitchSeq::ZERO)),
                    8..=10 => assert_eq!(sparse.search_and_scrub(obj, at), dense.probe(obj, at)),
                    11..=13 => assert_eq!(sparse.delete(obj, at), dense.delete(obj, at)),
                    14 => assert_eq!(sparse.sweep(at), dense.sweep(at)),
                    _ if rng.gen_range(0..4) == 0 => {
                        sparse.clear();
                        dense.clear();
                    }
                    _ => {}
                }
                let want = dense.occupied();
                peak = peak.max(want.iter().map(Vec::len).sum::<usize>());
                assert_eq!(occupied(&sparse), want, "case {case}");
                assert_eq!(sparse.stats(), dense.stats, "case {case}");
                assert_eq!(
                    sparse.occupancy_per_stage(),
                    want.iter().map(Vec::len).collect::<Vec<_>>()
                );
                assert_eq!(
                    sparse.occupancy(),
                    sparse.occupancy_per_stage().iter().sum()
                );
                assert_eq!(sparse.peak_occupancy(), peak, "case {case}");
            }
            assert_eq!(sparse.capacity(), config.stages * config.slots_per_stage);
            assert_eq!(sparse.memory_bytes(), sparse.capacity() * 8);
            drops += sparse.stats().insert_drops;
            scrubs += sparse.stats().scrubbed_by_reads;
            swept += sparse.stats().swept;
        }
        // The runs reached every regime they are meant to compare.
        assert!(
            drops > 1_000 && scrubs > 1_000 && swept > 1_000,
            "{drops} {scrubs} {swept}"
        );
    }

    #[test]
    fn degenerate_geometry_is_clamped() {
        let t = MultiStageHashTable::new(TableConfig {
            stages: 0,
            slots_per_stage: 0,
            entry_bytes: 8,
        });
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.memory_bytes(), 8);
    }
}
