//! Register arrays — per-stage stateful switch memory.
//!
//! A Tofino stage exposes register arrays that a packet may access **once**
//! per traversal (a single read-modify-write at one index). We model the
//! array itself here; the access discipline is enforced structurally by the
//! callers (each table operation loops over stages exactly once) and audited
//! by the per-packet access counter, which `debug_assert`s the single-access
//! rule in test builds.
//!
//! The array is sparse: it has its configured number of slots, and the
//! §6.2 resource model charges for every one of them, but only slots that
//! hold something other than `T::default()` take memory here. A freshly
//! booted switch's registers are all zero, so building one costs nothing
//! per slot, and the occupied entries, in index order, are what the control
//! plane scans.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Fixed-size array of register entries, the unit of switch SRAM. A slot
/// that is not stored holds `T::default()`.
#[derive(Clone, Debug)]
pub struct RegisterArray<T> {
    /// Number of slots.
    len: usize,
    /// Every slot not equal to `T::default()`, by index. Ordered, so a
    /// control-plane scan visits slots in the same order on every run.
    occupied: BTreeMap<usize, T>,
    /// Bytes of SRAM one entry occupies on the ASIC (for the §6.2 resource
    /// model; independent of Rust's in-memory layout).
    entry_bytes: usize,
    /// Read-modify-write operations performed (lifetime counter).
    accesses: u64,
    /// Accesses within the current packet (reset by [`begin_packet`]).
    ///
    /// [`begin_packet`]: RegisterArray::begin_packet
    packet_accesses: u32,
}

impl<T: Default + PartialEq> RegisterArray<T> {
    /// `slots` zeroed registers of `entry_bytes` each.
    pub fn new(slots: usize, entry_bytes: usize) -> Self {
        RegisterArray {
            len: slots,
            occupied: BTreeMap::new(),
            entry_bytes,
            accesses: 0,
            packet_accesses: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots holding something other than `T::default()`.
    pub fn occupied(&self) -> usize {
        self.occupied.len()
    }

    /// SRAM consumed by this array under the resource model.
    pub fn memory_bytes(&self) -> usize {
        self.len * self.entry_bytes
    }

    /// Begin a new packet traversal (resets the per-packet access audit).
    pub fn begin_packet(&mut self) {
        self.packet_accesses = 0;
    }

    /// The single read-modify-write a packet may perform on this stage.
    /// `index` is below [`len`](Self::len); a write past the end is lost,
    /// as it would be on an ASIC.
    ///
    /// Panics in debug builds if the same packet touches the array twice —
    /// that program would not compile to the ASIC.
    pub fn access<R>(&mut self, index: usize, f: impl FnOnce(&mut T) -> R) -> R {
        self.packet_accesses += 1;
        debug_assert!(
            self.packet_accesses <= 1,
            "register array accessed {} times by one packet (hardware allows 1)",
            self.packet_accesses
        );
        debug_assert!(index < self.len, "slot {index} of {}", self.len);
        self.accesses += 1;
        match self.occupied.entry(index) {
            Entry::Occupied(mut slot) => {
                let out = f(slot.get_mut());
                if *slot.get() == T::default() {
                    slot.remove();
                }
                out
            }
            Entry::Vacant(slot) => {
                let mut value = T::default();
                let out = f(&mut value);
                if value != T::default() && index < self.len {
                    slot.insert(value);
                }
                out
            }
        }
    }

    /// Control plane: the occupied slots, by index (not subject to the
    /// per-packet limit — the switch CPU reads registers out of band, which
    /// is how periodic sweeps and occupancy reporting work).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.occupied.iter().map(|(&index, value)| (index, value))
    }

    /// Control plane: zero every occupied slot for which `keep` is false.
    /// Returns how many it zeroed.
    pub fn zero_unless(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.occupied.len();
        self.occupied.retain(|_, value| keep(value));
        before - self.occupied.len()
    }

    /// Control plane: zero every slot (a reboot).
    pub fn clear(&mut self) {
        self.occupied.clear();
    }

    /// Lifetime data-plane access count.
    pub fn total_accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let r: RegisterArray<u32> = RegisterArray::new(8, 4);
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
        assert_eq!(r.occupied(), 0);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.memory_bytes(), 32);
    }

    #[test]
    fn access_reads_and_writes() {
        let mut r: RegisterArray<u32> = RegisterArray::new(4, 4);
        r.begin_packet();
        let old = r.access(2, |v| {
            let old = *v;
            *v = 99;
            old
        });
        assert_eq!(old, 0);
        assert_eq!(r.iter().collect::<Vec<_>>(), [(2, &99)]);
        assert_eq!(r.total_accesses(), 1);
    }

    #[test]
    fn writing_the_default_frees_the_slot() {
        let mut r: RegisterArray<u32> = RegisterArray::new(4, 4);
        r.begin_packet();
        r.access(1, |v| *v = 5);
        r.begin_packet();
        r.access(1, |v| *v = 0);
        assert_eq!(r.occupied(), 0);
        // A read of an empty slot stores nothing.
        r.begin_packet();
        assert_eq!(r.access(3, |v| *v), 0);
        assert_eq!(r.occupied(), 0);
    }

    #[test]
    #[should_panic(expected = "hardware allows 1")]
    #[cfg(debug_assertions)]
    fn double_access_in_one_packet_panics() {
        let mut r: RegisterArray<u32> = RegisterArray::new(4, 4);
        r.begin_packet();
        r.access(0, |_| ());
        r.access(1, |_| ());
    }

    #[test]
    fn new_packet_resets_the_audit() {
        let mut r: RegisterArray<u32> = RegisterArray::new(4, 4);
        for i in 0..4 {
            r.begin_packet();
            r.access(i, |v| *v = i as u32);
        }
        assert_eq!(r.total_accesses(), 4);
        // Slot 0 was written its default: three slots hold something.
        assert_eq!(r.occupied(), 3);
    }

    #[test]
    fn control_plane_bypasses_audit() {
        let mut r: RegisterArray<u32> = RegisterArray::new(8, 4);
        for i in 0..8 {
            r.begin_packet();
            r.access(i, |v| *v = i as u32 * 10);
        }
        // Control-plane scans and writes count no data-plane accesses.
        assert_eq!(r.zero_unless(|&v| v > 40), 4);
        let left: Vec<_> = r.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(left, [(5, 50), (6, 60), (7, 70)]);
        r.clear();
        assert_eq!(r.occupied(), 0);
        assert_eq!(r.total_accesses(), 8);
    }
}
