//! Sharded scale-out (§6.3): many replica groups behind one spine switch.
//!
//! Rack-scale Harmonia pairs one replica group with one ToR switch. For
//! cloud-scale storage the paper routes *many* groups' traffic through a
//! single designated spine switch — each group's dirty set is tiny, so one
//! switch's SRAM hosts hundreds of groups. This example spins up a 4-group
//! deployment on OS threads, spreads a keyspace over it, and then checks
//! the §6.3 capacity claim with the switch's own memory accounting.
//!
//! Run with: `cargo run --example shard_scaleout`

use harmonia::prelude::*;

fn main() {
    // Four 3-replica chain-replication groups, all scheduled by one spine
    // switch. The keyspace is partitioned by a pure hash of the object id,
    // so clients stay oblivious: they talk to the switch, the switch
    // routes each request to its key's group.
    let config = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(4)
        .replicas(3)
        // The §9.4 measured geometry: 2000 slots × 8 bytes = 16 KB per
        // group — the number behind "one switch hosts hundreds of groups".
        .table(TableConfig {
            stages: 1,
            slots_per_stage: 2000,
            entry_bytes: 8,
        });
    let cluster = config.spawn_live();
    let mut client = cluster.client();

    // The same GET/SET API as the single-group deployment.
    for user in 0..200 {
        client
            .set(format!("user:{user}"), format!("profile-{user}"))
            .expect("write");
    }
    for user in (0..200).rev() {
        let got = client.get(format!("user:{user}")).expect("read");
        assert_eq!(got.as_deref(), Some(format!("profile-{user}").as_bytes()));
    }

    // Where did the keys actually go? Ask the shard map and the switch's
    // snapshot, which has a row per group.
    let map = config.shard_map();
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.per_group.len(), 4, "every group hosted");
    for row in &snap.per_group {
        let g = row.group;
        let owned = (0..200)
            .filter(|u| map.shard_of_key(format!("user:{u}").as_bytes()) == g)
            .count();
        println!(
            "group {g}: owns {owned:3} of 200 keys, forwarded {:4} writes, \
             served {:4} fast-path reads",
            row.writes_forwarded, row.reads_fast_path
        );
        assert!(owned > 0, "no group should starve");
    }

    // The §6.3 claim, quantitatively: this deployment's whole dirty-set
    // footprint vs. a commodity switch's tens of MB of SRAM.
    let used = snap.switch.memory_bytes as usize;
    let table = config.table;
    let per_group = table.stages * table.slots_per_stage * table.entry_bytes;
    let budget = 10 * 1024 * 1024;
    println!(
        "switch SRAM: {used} bytes for 4 groups ({per_group} bytes/group) — \
         a 10 MB switch could host ~{} such groups",
        budget / per_group
    );
    assert_eq!(used, 4 * per_group);
    assert!(used < budget / 10);

    println!("4 groups, one switch, every read observed its write — shutting down");
    cluster.shutdown();
}
