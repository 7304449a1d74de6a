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
//! probe, and the control plane sweeps the table periodically. A sweep
//! visits only the slots writes have filled since they were last found
//! empty, listed by an index that is the simulator's bookkeeping, not
//! switch SRAM: a switch CPU reads its registers out of band, but a
//! simulator that scanned all 3 × 65 536 of them per sweep would spend its
//! time on empty slots.

use harmonia_types::{ObjectId, SwitchSeq};

use crate::hash::StageHash;
use crate::register::RegisterArray;

/// One register slot: an object id and the largest pending sequence number.
/// `seq == SwitchSeq::ZERO` means the slot is empty (real switch ids start
/// at 1, so no live entry can carry the sentinel).
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

/// Every slot that may be occupied, by flat position
/// (`stage * slots_per_stage + index`): where a sweep looks. Every occupied
/// slot is listed, once; a listed slot a completion or a scrubbing read has
/// emptied since stays listed until the next sweep finds it empty.
#[derive(Clone, Debug)]
struct Filled {
    slots_per_stage: usize,
    positions: Vec<u32>,
    /// One bit per slot, set iff its position is in `positions`.
    listed: Vec<u64>,
}

impl Filled {
    fn new(stages: usize, slots_per_stage: usize) -> Self {
        Filled {
            slots_per_stage,
            positions: Vec::new(),
            listed: vec![0; (stages * slots_per_stage).div_ceil(64)],
        }
    }

    /// List slot `idx` of `stage` unless it already is.
    fn list(&mut self, stage: usize, idx: usize) {
        let pos = stage * self.slots_per_stage + idx;
        if let Some(word) = self.listed.get_mut(pos / 64) {
            let bit = 1 << (pos % 64);
            if *word & bit == 0 {
                *word |= bit;
                // `MultiStageHashTable::new` keeps every position in a u32.
                self.positions.push(pos as u32);
            }
        }
    }

    fn reset(&mut self) {
        self.positions.clear();
        self.listed.fill(0);
    }
}

/// Clear `pos`'s bit in a [`Filled::listed`] (a free function: the sweep
/// holds `positions` mutably while it unlists).
fn unlist(listed: &mut [u64], pos: u32) {
    if let Some(word) = listed.get_mut(pos as usize / 64) {
        *word &= !(1 << (pos % 64));
    }
}

/// The dirty set.
#[derive(Clone, Debug)]
pub struct MultiStageHashTable {
    stages: Vec<(StageHash, RegisterArray<Slot>)>,
    /// Occupied slots, kept in step with every operation that fills or
    /// clears one — `occupancy()` and the empty-table `sweep()` never scan.
    live: usize,
    /// Boxed: every threaded pipeline holds its table inline, and the
    /// index is only touched when a slot fills and when a sweep runs.
    filled: Box<Filled>,
    stats: TableStats,
    /// Slots the sweeps have looked at.
    #[cfg(test)]
    sweep_visits: usize,
}

impl MultiStageHashTable {
    /// Build a table with the given geometry, clamped to at least one stage
    /// of one slot and to no more slots than a `u32` position can name.
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
            live: 0,
            filled: Box::new(Filled::new(stages, slots_per_stage)),
            stats: TableStats::default(),
            #[cfg(test)]
            sweep_visits: 0,
        }
    }

    /// Insert `obj` with pending sequence `seq`, or refresh its existing
    /// entry. Returns `false` if the write must be dropped (full collision).
    pub fn insert(&mut self, obj: ObjectId, seq: SwitchSeq) -> bool {
        debug_assert!(seq > SwitchSeq::ZERO, "real writes have non-sentinel seqs");
        for (stage, (hash, array)) in self.stages.iter_mut().enumerate() {
            let idx = hash.slot(obj, array.len());
            array.begin_packet();
            // `Some(filled an empty slot)` if this stage took the entry.
            let done = array.access(idx, |slot| {
                let was_empty = slot.is_empty();
                (was_empty || slot.obj == obj).then(|| {
                    *slot = Slot { obj, seq };
                    was_empty
                })
            });
            if let Some(was_empty) = done {
                if was_empty {
                    self.live += 1;
                    self.filled.list(stage, idx);
                }
                self.stats.inserts += 1;
                return true;
            }
        }
        self.stats.insert_drops += 1;
        false
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
        self.live -= scrubbed;
        self.stats.scrubbed_by_reads += scrubbed as u64;
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
        self.live -= removed;
        self.stats.deletes += removed as u64;
        removed
    }

    /// Control-plane sweep clearing every entry with `seq <= last_committed`
    /// (§5.2 "this removal can also be done periodically"). It visits the
    /// slots writes filled since a sweep last found them empty, not the
    /// whole table, and stops listing every slot it finds empty or empties.
    /// That list is the simulator's, not the switch's: a switch CPU reads
    /// its registers out of band, and [`memory_bytes`](Self::memory_bytes)
    /// counts only the registers.
    pub fn sweep(&mut self, last_committed: SwitchSeq) -> usize {
        if self.live == 0 {
            // Every listed slot is empty.
            self.filled.reset();
            return 0;
        }
        let stages = &mut self.stages;
        let Filled {
            slots_per_stage: n,
            positions,
            listed,
        } = &mut *self.filled;
        let n = *n;
        #[cfg(test)]
        {
            self.sweep_visits += positions.len();
        }
        let mut removed = 0;
        positions.retain(|&pos| {
            let (stage, idx) = (pos as usize / n, pos as usize % n);
            let Some((_, array)) = stages.get_mut(stage) else {
                return false;
            };
            let slot = *array.control_read(idx);
            if !slot.is_empty() && slot.seq > last_committed {
                return true;
            }
            if !slot.is_empty() {
                array.control_write(idx, Slot::default());
                removed += 1;
            }
            unlist(listed, pos);
            false
        });
        self.live -= removed;
        self.stats.swept += removed as u64;
        removed
    }

    /// Clear everything (switch reboot: all soft state is lost).
    pub fn clear(&mut self) {
        let n = self.filled.slots_per_stage;
        for &pos in &self.filled.positions {
            if let Some((_, array)) = self.stages.get_mut(pos as usize / n) {
                array.control_write(pos as usize % n, Slot::default());
            }
        }
        self.filled.reset();
        self.live = 0;
    }

    /// Occupied slots across all stages.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Occupied slots per stage (front to back).
    pub fn occupancy_per_stage(&self) -> Vec<usize> {
        self.stages
            .iter()
            .map(|(_, a)| a.iter().filter(|s| !s.is_empty()).count())
            .collect()
    }

    /// Total slots across all stages.
    pub fn capacity(&self) -> usize {
        self.stages.iter().map(|(_, a)| a.len()).sum()
    }

    /// SRAM consumed under the resource model.
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().map(|(_, a)| a.memory_bytes()).sum()
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

/// The reference scan the tests hold the skipping sweep to.
#[cfg(test)]
impl MultiStageHashTable {
    /// What a sweep that skips nothing would remove at `last_committed`.
    pub(crate) fn stale_by_scan(&self, last_committed: SwitchSeq) -> usize {
        self.stages
            .iter()
            .flat_map(|(_, a)| a.iter())
            .filter(|s| !s.is_empty() && s.seq <= last_committed)
            .count()
    }

    /// The sweep's index against a scan: every position listed once, its
    /// bit set iff listed, every occupied slot listed, at most `capacity()`
    /// entries.
    pub(crate) fn index_matches_scan(&self) -> Result<(), String> {
        let Filled {
            positions, listed, ..
        } = &*self.filled;
        if positions.len() > self.capacity() {
            return Err(format!(
                "{} listed, capacity {}",
                positions.len(),
                self.capacity()
            ));
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != positions.len() {
            return Err(format!("a position listed twice: {positions:?}"));
        }
        let bits: u32 = listed.iter().map(|w| w.count_ones()).sum();
        if bits as usize != positions.len()
            || positions
                .iter()
                .any(|&p| listed[p as usize / 64] & (1 << (p % 64)) == 0)
        {
            return Err(format!("bits disagree with {positions:?}"));
        }
        let occupied = self.stages.iter().flat_map(|(_, a)| a.iter()).enumerate();
        for (pos, _) in occupied.filter(|(_, s)| !s.is_empty()) {
            if sorted.binary_search(&(pos as u32)).is_err() {
                return Err(format!("occupied slot {pos} not listed"));
            }
        }
        Ok(())
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
    fn a_sweep_visits_what_writes_filled_not_the_table() {
        let mut t = MultiStageHashTable::default();
        let k = 200u64;
        let mut kept = 0;
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
            let visits_before = t.sweep_visits;
            assert_eq!(t.sweep(seq(last_committed)), stale);
            assert_eq!(t.stale_by_scan(seq(last_committed)), 0);
            // The slots filled since the last sweep, and the ones it kept.
            assert_eq!(t.sweep_visits - visits_before, k as usize + kept);
            assert_eq!(t.occupancy(), 10);
            kept = t.occupancy();
            t.index_matches_scan().unwrap();
        }
        assert_eq!(t.capacity(), 3 * 65_536);
    }

    #[test]
    fn without_sweeps_the_index_holds_only_the_slots_objects_hash_to() {
        let mut t = MultiStageHashTable::default();
        for s in 1..=1_000_000u64 {
            let obj = ObjectId((s % 16) as u32);
            assert!(t.insert(obj, seq(s)));
            match s % 3 {
                0 => assert_eq!(t.delete(obj, seq(s)), 1),
                1 => assert_eq!(t.search_and_scrub(obj, seq(s)), None),
                _ => {}
            }
        }
        assert!(
            t.filled.positions.len() <= 16 * 3,
            "{:?}",
            t.filled.positions
        );
        t.index_matches_scan().unwrap();
        assert_eq!(t.sweep_visits, 0);
    }

    #[test]
    fn clear_and_an_empty_sweep_reset_the_index() {
        let mut t = small();
        for i in 1..=5u64 {
            t.insert(ObjectId(i as u32), seq(i));
        }
        t.clear();
        assert!(t.filled.positions.is_empty());
        t.index_matches_scan().unwrap();
        t.insert(ObjectId(1), seq(6));
        t.delete(ObjectId(1), seq(6));
        assert_eq!(t.sweep(seq(6)), 0);
        assert!(t.filled.positions.is_empty());
        assert_eq!(t.sweep_visits, 0, "an empty table is not visited");
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
