//! A switch costs memory in proportion to what its dirty sets hold, not to
//! the SRAM they model: building one allocates a few kilobytes per group
//! however large the register arrays are, and a dirty set whose occupancy
//! stays put allocates nothing per packet. Counted per thread by `mmsg`'s
//! counting allocator, in a test binary of its own.

use harmonia::core::SwitchCore;
use harmonia::prelude::DeploymentSpec;
use harmonia::switch::MultiStageHashTable;
use harmonia::types::{ObjectId, SwitchId, SwitchSeq};
use mmsg::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes and blocks this thread asked for while `f` ran, and its result.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (bytes, blocks) = (CountingAlloc::bytes(), CountingAlloc::allocations());
    let out = f();
    (
        CountingAlloc::bytes() - bytes,
        CountingAlloc::allocations() - blocks,
        out,
    )
}

const KIB: u64 = 1024;

/// The prototype geometry (3 stages × 65 536 slots × 8 B, 1.5 MB of SRAM
/// per group) is charged in full by the resource model and costs the
/// process almost nothing to build.
#[test]
fn building_a_switch_costs_kilobytes_per_group_not_its_sram() {
    for groups in [1usize, 8] {
        let spec = DeploymentSpec::new().groups(groups);
        let (bytes, _, core) = allocated_by(|| SwitchCore::for_deployment(&spec, SwitchId(1)));
        assert!(
            bytes < groups as u64 * 64 * KIB,
            "{groups} group(s): {bytes} bytes allocated"
        );
        let view = core.view();
        assert_eq!(view.memory_bytes(), groups * 3 * 65_536 * 8);
        assert_eq!((view.dirty_len(), view.peak_bytes()), (0, 0));
    }
}

/// Past warm-up, writes that come and go — stamped, read, completed, with
/// a window of them in flight — allocate nothing: the occupied entries'
/// storage is reused as they turn over.
#[test]
fn a_dirty_set_in_steady_state_allocates_nothing() {
    let mut table = MultiStageHashTable::default();
    let seq = |n: u64| SwitchSeq::new(SwitchId(1), n);
    const IN_FLIGHT: u64 = 8;
    let mut step = |n: u64| {
        let obj = ObjectId((n % 64) as u32);
        assert!(table.insert(obj, seq(n)));
        table.search_and_scrub(
            ObjectId(((n + 7) % 64) as u32),
            seq(n.saturating_sub(IN_FLIGHT)),
        );
        if n > IN_FLIGHT {
            let done = n - IN_FLIGHT;
            table.delete(ObjectId((done % 64) as u32), seq(done));
        }
    };
    for n in 1..=1_000 {
        step(n);
    }
    let (bytes, blocks, ()) = allocated_by(|| (1_001..=100_000).for_each(&mut step));
    assert_eq!((bytes, blocks), (0, 0));
}
