//! Register arrays — per-stage stateful switch memory.
//!
//! A Tofino stage exposes register arrays that a packet may access **once**
//! per traversal (a single read-modify-write at one index). We model the
//! array itself here; the access discipline is enforced structurally by the
//! callers (each table operation loops over stages exactly once) and audited
//! by the per-packet access counter, which `debug_assert`s the single-access
//! rule in test builds.

/// Fixed-size array of register entries, the unit of switch SRAM.
#[derive(Clone, Debug)]
pub struct RegisterArray<T> {
    slots: Vec<T>,
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

impl<T: Clone + Default> RegisterArray<T> {
    /// Allocate `slots` zeroed registers of `entry_bytes` each.
    pub fn new(slots: usize, entry_bytes: usize) -> Self {
        RegisterArray {
            slots: vec![T::default(); slots],
            entry_bytes,
            accesses: 0,
            packet_accesses: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// SRAM consumed by this array under the resource model.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * self.entry_bytes
    }

    /// Begin a new packet traversal (resets the per-packet access audit).
    pub fn begin_packet(&mut self) {
        self.packet_accesses = 0;
    }

    /// The single read-modify-write a packet may perform on this stage.
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
        self.accesses += 1;
        f(&mut self.slots[index])
    }

    /// Control-plane read (not subject to the per-packet limit): the switch
    /// CPU can scan registers out-of-band, which is how periodic sweeps and
    /// occupancy reporting work.
    pub fn control_read(&self, index: usize) -> &T {
        &self.slots[index]
    }

    /// Control-plane write (e.g. clearing state on reboot).
    pub fn control_write(&mut self, index: usize, value: T) {
        self.slots[index] = value;
    }

    /// Iterate all slots (control plane).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
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
        assert!(r.iter().all(|&v| v == 0));
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
        assert_eq!(*r.control_read(2), 99);
        assert_eq!(r.total_accesses(), 1);
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
    }

    #[test]
    fn control_plane_bypasses_audit() {
        let mut r: RegisterArray<u32> = RegisterArray::new(2, 4);
        r.begin_packet();
        r.access(0, |v| *v = 1);
        // Multiple control accesses within the same packet are fine.
        r.control_write(1, 7);
        assert_eq!(*r.control_read(1), 7);
    }
}
