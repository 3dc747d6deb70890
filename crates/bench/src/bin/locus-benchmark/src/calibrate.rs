//! The reference computation end-to-end times are measured against.
//!
//! The benchmark is meant for small shared machines, where the speed of
//! memory-heavy code drifts with the neighbours' load: a fixed,
//! deterministic tuning session took anywhere from 90 to 200 ms over
//! three minutes on the machine it was sized on. A run therefore times
//! a fixed reference computation, code of its own that no change to the
//! tuner can speed up, around its set-ups and at regular points of its
//! timed part, and reports times relative to the reference's median
//! time. Allocation churn tracks the tuner's drift best of the
//! candidates tried; dividing by it cut the run-to-run spread of
//! latency medians by two to four times.

use std::time::{Duration, Instant};

/// The reference's time, in milliseconds, on the machine a set-up time
/// in seconds is scaled to: about its median on the machine the
/// benchmark was sized on.
pub const NOMINAL_MS: f64 = 1.0;

/// Times one run of the reference computation, in milliseconds: about
/// a millisecond of allocating, filling and dropping small vectors.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..20_000u64 {
        live.push((0..i % 64).collect());
        if live.len() > 500 {
            live.clear();
        }
    }
    std::hint::black_box(live);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reference samples taken during a timed part.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Times the reference unless the last sample is less than
    /// `interval` old.
    pub fn sample_every(&mut self, interval: Duration) {
        if self.last.is_none_or(|last| last.elapsed() >= interval) {
            self.samples.push(reference_ms());
            self.last = Some(Instant::now());
        }
    }

    /// The median reference time, in milliseconds.
    pub fn median_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_spaced_by_the_interval() {
        let mut calibration = Calibration::default();
        assert_eq!(calibration.median_ms(), None);
        calibration.sample_every(Duration::from_secs(3600));
        calibration.sample_every(Duration::from_secs(3600));
        assert_eq!(calibration.samples.len(), 1);
        calibration.sample_every(Duration::ZERO);
        assert_eq!(calibration.samples.len(), 2);
        assert!(calibration.median_ms().expect("two samples") > 0.0);
    }
}
