//! The UDP driver end to end: a sharded deployment whose every packet
//! crosses a real loopback `UdpSocket` through the wire codec — including
//! the §5.3 switch replacement (the pipeline fleet's sockets are swapped in
//! the deployment's address book) and a run under injected datagram faults.
//!
//! ```sh
//! cargo run --example udp_cluster
//! ```

use harmonia::prelude::*;

fn main() {
    // 1. A 2-group chain deployment over loopback UDP sockets.
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .replicas(3)
        .groups(2);
    let mut cluster = spec.spawn_udp();
    let mut client = cluster.client();

    println!("== UDP cluster: every packet is a real datagram ==");
    for i in 0..20 {
        client
            .set(format!("user:{i}"), format!("profile-{i}"))
            .expect("write over UDP");
    }
    assert_eq!(
        client.get("user:7").unwrap().as_deref(),
        Some(&b"profile-7"[..])
    );
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.per_group.len(), 2, "both pipelines answer");
    println!(
        "switch saw {} writes, {} fast-path / {} normal reads across {} groups",
        snap.switch.writes_forwarded,
        snap.switch.reads_fast_path,
        snap.switch.reads_normal,
        snap.per_group.len(),
    );

    // 2. §5.3: kill the switch fleet (its sockets leave the address book),
    //    activate a replacement on fresh sockets, service resumes.
    println!("\n== switch replacement over real sockets ==");
    cluster.kill_switch();
    assert!(cluster.switch_incarnation().is_none());
    assert!(cluster.obs_snapshot().per_group.is_empty());
    let mut stranded = cluster.client();
    assert!(
        stranded.get("user:7").is_err(),
        "no switch, requests vanish into dropped datagrams"
    );
    cluster.replace_switch(SwitchId(2));
    assert_eq!(
        client.get("user:7").unwrap().as_deref(),
        Some(&b"profile-7"[..]),
        "replacement serves reads through the normal path"
    );
    let rows = cluster.obs_snapshot().per_group;
    assert_eq!(rows.len(), 2, "the replacement hosts every group");
    assert!(
        rows.iter().all(|row| !row.fast_path_enabled),
        "no completion of its own yet: every group reads on the normal path"
    );
    println!(
        "incarnation {:?} serving; fast path re-arms per group on its first completion",
        cluster.switch_incarnation().unwrap()
    );
    cluster.shutdown();

    // 3. The same deployment under an adversarial network: 3% loss,
    //    duplication, and reordering injected at the client and switch
    //    sockets by a seeded FaultyTransport. Retries and the exactly-once
    //    session layer absorb all of it.
    println!("\n== datagram faults: loss + duplication + reordering ==");
    let faulty = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(42)
        .link(LinkConfig {
            drop_prob: 0.03,
            duplicate_prob: 0.03,
            reorder_prob: 0.03,
            ..LinkConfig::ideal(Duration::from_micros(5))
        });
    let cluster = faulty.spawn_udp();
    let mut client = cluster.client();
    let mut completed = 0u32;
    for i in 0..60 {
        let key = format!("k{}", i % 10);
        let ok = if i % 3 == 0 {
            client.set(key, format!("v{i}")).is_ok()
        } else {
            client.get(key).is_ok()
        };
        completed += u32::from(ok);
    }
    let faults = cluster.obs_snapshot().faults;
    println!(
        "{completed}/60 ops completed while the adversary dropped {}, \
         duplicated {}, reordered {} datagrams",
        faults.dropped, faults.duplicated, faults.reordered
    );
    cluster.shutdown();
}
