//! Multi-group scheduling — the read side of the §6.3 cloud-scale deployment.
//!
//! For rack-scale storage the ToR switch hosts one conflict detector. For
//! cloud-scale storage, replicas spread across racks and all traffic for a
//! replica group is serialized through a designated switch (e.g. a spine
//! switch in a leaf-spine fabric); the paper argues one switch can host
//! *many* replica groups because each group's dirty set is tiny (§9.4
//! measures ~16 KB per group).
//!
//! A real Tofino processes different groups' packets in parallel at line
//! rate, so nothing in a group's state is inherently shared: each group's
//! detector is independent, and only the *accounting* is whole-switch. The
//! per-group state and packet logic live in `harmonia-core`'s `GroupCore`,
//! hosted by the one node runtime on every driver — all groups on the
//! simulator's switch node, dealt over the worker threads on the threaded
//! drivers; this module holds what every host exports. Whoever owns a group
//! hands out [`GroupObservation`] snapshots,
//! and [`SpineView`] folds them into the whole-switch `memory_bytes` / stats
//! totals, so the §6.3 claim — "the capacity of a switch far exceeds that of
//! a single replica group" — can be checked against a tens-of-MB SRAM
//! budget.

use crate::stats::SwitchStats;

/// Identifies one replica group served by a spine switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// A point-in-time snapshot of one group's switch-resident state, exported
/// by whichever worker exclusively owns that group (a per-group pipeline
/// thread in the live driver). Snapshots are plain data: collecting them
/// never locks the owner's packet path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupObservation {
    /// The observed group.
    pub group: GroupId,
    /// The group's data-plane counters.
    pub stats: SwitchStats,
    /// Whether the group's fast path is currently enabled.
    pub fast_path_enabled: bool,
    /// Dirty-set SRAM consumed by the group.
    pub memory_bytes: usize,
    /// Dirty-set occupancy.
    pub dirty_len: usize,
    /// Dirty-set SRAM the group's busiest moment needed: its peak
    /// occupancy in bytes, beside the `memory_bytes` it was given.
    pub peak_bytes: usize,
}

/// Aggregate-only view over per-group observations: the whole-switch
/// `memory_bytes`/stats accounting, reconstructed from snapshots instead of
/// owned state. This is what a control plane sees when the groups
/// themselves live on independent pipeline workers.
#[derive(Clone, Debug, Default)]
pub struct SpineView {
    observations: Vec<GroupObservation>,
}

impl SpineView {
    /// Build the view from per-group snapshots (any order).
    pub fn new(mut observations: Vec<GroupObservation>) -> Self {
        observations.sort_by_key(|o| o.group);
        SpineView { observations }
    }

    /// Number of observed groups.
    pub fn group_count(&self) -> usize {
        self.observations.len()
    }

    /// One group's snapshot.
    pub fn group(&self, group: GroupId) -> Option<&GroupObservation> {
        self.observations.iter().find(|o| o.group == group)
    }

    /// All snapshots, in group order.
    pub fn groups(&self) -> &[GroupObservation] {
        &self.observations
    }

    /// Aggregate data-plane counters across every observed group.
    pub fn stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for o in &self.observations {
            total.merge(&o.stats);
        }
        total
    }

    /// Total dirty-set SRAM across every observed group (§6.3 budget
    /// check).
    pub fn memory_bytes(&self) -> usize {
        self.observations.iter().map(|o| o.memory_bytes).sum()
    }

    /// Dirty-set SRAM the observed groups needed: each group's peak
    /// occupancy in bytes, summed (each group has registers of its own).
    pub fn peak_bytes(&self) -> usize {
        self.observations.iter().map(|o| o.peak_bytes).sum()
    }

    /// Total dirty-set occupancy (in-flight-write entries) across every
    /// observed group.
    pub fn dirty_len(&self) -> usize {
        self.observations.iter().map(|o| o.dirty_len).sum()
    }

    /// How many observed groups currently have their fast path enabled.
    pub fn fast_path_groups(&self) -> usize {
        self.observations
            .iter()
            .filter(|o| o.fast_path_enabled)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spine_view_stats_merge_per_group_counters() {
        let mk = |group, fast, normal, armed, dirty_len| GroupObservation {
            group: GroupId(group),
            stats: SwitchStats {
                reads_fast_path: fast,
                reads_normal: normal,
                ..SwitchStats::default()
            },
            fast_path_enabled: armed,
            memory_bytes: 64,
            dirty_len,
            peak_bytes: 8 * dirty_len,
        };
        let view = SpineView::new(vec![mk(2, 5, 1, true, 0), mk(0, 3, 2, false, 1)]);
        assert_eq!(view.group_count(), 2);
        assert_eq!(view.groups()[0].group, GroupId(0), "snapshots sorted");
        let total = view.stats();
        assert_eq!(total.reads_fast_path, 8);
        assert_eq!(total.reads_normal, 3);
        assert_eq!(view.memory_bytes(), 128);
        assert_eq!(view.dirty_len(), 1);
        assert_eq!(view.peak_bytes(), 8);
        assert_eq!(view.fast_path_groups(), 1);
        assert!(view.group(GroupId(2)).unwrap().fast_path_enabled);
        assert!(view.group(GroupId(1)).is_none());
    }
}
