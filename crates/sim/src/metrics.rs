//! Counters and latency histograms.
//!
//! The benchmark harnesses read throughput from counters (completed ops in a
//! measurement window) and latency from histograms. A [`Histogram`] is
//! `harmonia-obs`'s log-bucketed [`harmonia_obs::LogHistogram`] under the
//! name this crate has always exported: fixed memory no matter how long the
//! run, exact count/mean/min/max, and ≤ 3.2% relative error on interior
//! percentiles.

use std::collections::BTreeMap;

pub use harmonia_obs::LogHistogram as Histogram;
use harmonia_types::Duration;

/// Named counters and histograms for one simulation run.
///
/// Name-ordered maps so every iteration (resets, debugging dumps) visits
/// entries in the same order on every run — the registry is tiny and cold,
/// so the ordered map costs nothing on the hot record path.
#[derive(Default, Debug)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to counter `name`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read counter `name` (0 if never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a duration into histogram `name`.
    pub fn observe(&mut self, name: &'static str, d: Duration) {
        self.histograms.entry(name).or_default().record(d);
    }

    /// Access histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Reset every counter and histogram (used to discard warmup).
    pub fn reset(&mut self) {
        self.counters.clear();
        for h in self.histograms.values_mut() {
            h.reset();
        }
    }

    /// Iterate counters in name order (for debugging dumps).
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(k, c)| (*k, *c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("ops");
        m.add("ops", 4);
        assert_eq!(m.counter("ops"), 5);
        assert_eq!(m.counter("absent"), 0);
        m.reset();
        assert_eq!(m.counter("ops"), 0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Duration::from_nanos(50_500));
        assert_eq!(h.max(), Duration::from_micros(100));
        assert_eq!(h.percentile(0.0), Duration::from_micros(1));
        assert_eq!(h.percentile(1.0), Duration::from_micros(100));
        let p50 = h.percentile(0.5);
        assert!(p50 >= Duration::from_micros(48) && p50 <= Duration::from_micros(52));
        assert!(h.percentile(0.999) <= h.max());
    }

    #[test]
    fn histogram_memory_stays_fixed_and_mean_exact() {
        // The point of the log-bucketed rewrite: a long run records far
        // beyond any sample cap and the exact statistics still hold.
        let mut h = Histogram::new();
        for us in 0..1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), Duration::from_nanos(499_500));
        let p99 = h.percentile(0.99).nanos() as f64;
        assert!(
            (p99 - 990_000.0).abs() / 990_000.0 <= 1.0 / 32.0,
            "p99={p99}"
        );
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(0.99), Duration::ZERO);
    }
}
