//! The three traffic mixes and the plans generated from them.
//!
//! Plans are a pure function of `(seed, rig, trial, plan index)`; the
//! deployments under test only ever see the generated operations.

use bytes::Bytes;
use harmonia::core::client::OpSpec;
use harmonia::types::OpKind;
use harmonia::workload::{KeySpace, Mix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Keys in every workload's population (all preloaded during set-up).
pub const KEYS: usize = 2_000;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub write_ratio: f64,
    /// `None` = uniform keys.
    pub zipf_theta: Option<f64>,
    pub value_len: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read95_small",
        write_ratio: 0.05,
        zipf_theta: None,
        value_len: 128,
    },
    Workload {
        name: "write50_zipf",
        write_ratio: 0.5,
        zipf_theta: Some(0.99),
        value_len: 128,
    },
    Workload {
        name: "read95_4k",
        write_ratio: 0.05,
        zipf_theta: None,
        value_len: 4096,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn keyspace(&self) -> KeySpace {
        match self.zipf_theta {
            Some(theta) => KeySpace::zipf(KEYS, theta),
            None => KeySpace::uniform(KEYS),
        }
    }

    /// The value set-up stores under key `i`.
    pub fn preload_value(&self, i: usize) -> Bytes {
        padded(format!("p{i}"), self.value_len)
    }

    /// Write-only plans that store every key once, split over `clients`
    /// parallel clients.
    pub fn preload_plans(&self, keys: &KeySpace, clients: usize) -> Vec<Vec<OpSpec>> {
        (0..clients)
            .map(|c| {
                (c..KEYS)
                    .step_by(clients)
                    .map(|i| OpSpec::write(keys.key(i), self.preload_value(i)))
                    .collect()
            })
            .collect()
    }

    /// One client's plan. Written values are unique per operation
    /// (`{rig}c{plan}t{trial}i{op}` padded to the value size), so the
    /// checker can tell exactly which write a read observed.
    pub fn plan(
        &self,
        keys: &KeySpace,
        seed: u64,
        rig: char,
        trial: u32,
        plan: usize,
        ops: usize,
    ) -> Vec<OpSpec> {
        let mix = Mix {
            write_ratio: self.write_ratio,
        };
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((rig as u64) << 48 | u64::from(trial) << 16 | plan as u64);
        let mut rng = SmallRng::seed_from_u64(stream);
        (0..ops)
            .map(|i| {
                let kind = mix.draw(&mut rng);
                let key = keys.sample(&mut rng);
                match kind {
                    OpKind::Read => OpSpec::read(key),
                    OpKind::Write => OpSpec::write(
                        key,
                        padded(format!("{rig}c{plan}t{trial}i{i}"), self.value_len),
                    ),
                }
            })
            .collect()
    }
}

fn padded(tag: String, len: usize) -> Bytes {
    let mut v = tag.into_bytes();
    v.push(b'|');
    if v.len() < len {
        v.resize(len, b'.');
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_trials() {
        let w = WORKLOADS[1];
        let keys = w.keyspace();
        let a = w.plan(&keys, 7, 'u', 1, 0, 200);
        let b = w.plan(&keys, 7, 'u', 1, 0, 200);
        let c = w.plan(&keys, 7, 'u', 2, 0, 200);
        let same = |x: &[OpSpec], y: &[OpSpec]| {
            x.iter()
                .zip(y)
                .all(|(p, q)| p.kind == q.kind && p.key == q.key && p.value == q.value)
        };
        assert!(same(&a, &b));
        assert!(!same(&a, &c));
        let writes: Vec<_> = a.iter().filter_map(|o| o.value.clone()).collect();
        assert!(writes.len() > 60 && writes.len() < 140, "{}", writes.len());
        assert!(writes.iter().all(|v| v.len() == w.value_len));
        let distinct: std::collections::HashSet<_> = writes.iter().collect();
        assert_eq!(distinct.len(), writes.len(), "values unique per op");
    }

    #[test]
    fn preload_covers_every_key_once() {
        let w = WORKLOADS[0];
        let keys = w.keyspace();
        let plans = w.preload_plans(&keys, 2);
        let all: std::collections::HashSet<_> =
            plans.iter().flatten().map(|o| o.key.clone()).collect();
        assert_eq!(all.len(), KEYS);
        assert_eq!(plans[0].len() + plans[1].len(), KEYS);
    }
}
