//! What a UDP deployment keeps must cost what it holds, not what it
//! arrived in.
//!
//! Every stored key and value, every logged write and every read result a
//! caller keeps is a `Bytes` cut from a received datagram. The endpoint
//! copies each datagram once, exactly sized, out of a private scratch ring
//! (`harmonia-net`), so those slices pin ~a hundred bytes each — when they
//! aliased pooled 64 KB receive buffers instead, the preload below alone
//! held ≈ 1.9 GB. Its own test binary, one test: resident set size is a
//! property of the whole process.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use harmonia::prelude::*;

/// Resident set size of this process, in bytes (`/proc/self/statm` counts
/// pages; every Linux target this runs on uses 4 KiB pages).
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm's second field is the resident page count");
    pages * 4096
}

#[test]
fn ten_thousand_keys_and_every_read_result_kept_stay_under_256_mb() {
    const KEYS: u32 = 10_000;
    const READS: u32 = 20_000;
    let cluster = DeploymentSpec::new().seed(16).spawn_udp();
    let mut client = cluster.client();
    for k in 0..KEYS {
        client
            .set(format!("key-{k:05}"), vec![k as u8; 128])
            .expect("preload write");
    }
    let kept: Vec<Bytes> = (0..READS)
        .map(|i| {
            let k = i % KEYS;
            client
                .get(format!("key-{k:05}"))
                .expect("read")
                .expect("every key was stored")
        })
        .collect();
    let rss = rss_bytes();
    println!("resident after preload + kept reads: {} MB", rss >> 20);
    assert!(kept
        .iter()
        .enumerate()
        .all(|(i, v)| v[..] == [(i as u32 % KEYS) as u8; 128]));
    assert!(
        rss < 256 << 20,
        "{KEYS} keys x 128 B stored and {READS} read results kept hold {} MB resident",
        rss >> 20
    );
    cluster.shutdown();
}
