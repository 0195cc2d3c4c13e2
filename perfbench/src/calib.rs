//! Host speed index: a fixed kernel timed around every measurement, so
//! that host times can be scaled to a reference speed.
//!
//! The benchmark host is shared: with the other tenants' load, the same
//! campaign's repetitions drift by 10-35 % over minutes, far more than
//! the medians of one run can absorb, and CPU time drifts with wall
//! time. The kernel below (two threads of random read-modify-writes
//! over 32 MiB each, ordered-map churn and small-string formatting, like
//! the simulator's cache arrays, page trackers and per-cell JSON) slows
//! with the host but never with the code under test, because it is the
//! benchmark's own. Timing it just before and just after each
//! measurement and scaling the measurement by `REFERENCE_UNIT_S / unit`
//! cancels most of the drift: on that host, over five sets of ten
//! 15-second runs per workload, the largest spread of a workload's
//! median fell from 25 % unscaled to 14 %.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Unit time the normalized host times are expressed in: a quiet
/// 2-core benchmark host runs one unit in about this long.
pub const REFERENCE_UNIT_S: f64 = 0.012;

/// Words per calibration thread (32 MiB, beyond the host's caches).
const WORDS: usize = 4 << 20;

/// Share of the neighbouring measurement's time spent calibrating on
/// each side of it.
const SHARE: f64 = 0.04;

/// Fewest units per calibration: single units scatter by about 10 %.
const MIN_UNITS: usize = 8;

/// The calibration kernel's state: one buffer per thread, allocated
/// once and reused.
pub struct Calibrator {
    bufs: Vec<Vec<u64>>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// Allocates and touches the buffers (two threads, like the
    /// workloads' load), then runs a few units untimed: the first units
    /// after the allocation run slow.
    pub fn new() -> Self {
        let mut cal = Self {
            bufs: (0..2u64)
                .map(|k| (0..WORDS as u64).map(|i| i ^ k).collect())
                .collect(),
        };
        for _ in 0..3 {
            cal.unit();
        }
        cal
    }

    /// Bytes the calibrator holds allocated for its whole life.
    pub fn bytes(&self) -> usize {
        self.bufs.len() * WORDS * std::mem::size_of::<u64>()
    }

    /// Host seconds of one unit of the kernel: on each thread, about
    /// equal times of random read-modify-writes over its buffer, ordered
    /// map churn, and small-string formatting and splitting (the
    /// simulator's cache arrays, page trackers, and per-cell JSON).
    fn unit(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (k, v) in self.bufs.iter_mut().enumerate() {
                s.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15 ^ k as u64;
                    for _ in 0..250_000 {
                        let i = (xorshift(&mut x) % WORDS as u64) as usize;
                        v[i] = v[i].wrapping_add(x).rotate_left(9);
                    }
                    let mut m: BTreeMap<u64, u64> = BTreeMap::new();
                    for j in 0..40_000u64 {
                        let key = xorshift(&mut x) % 4_096;
                        if j % 3 == 2 {
                            m.remove(&key);
                        } else {
                            *m.entry(key).or_insert(0) += j;
                        }
                    }
                    let mut text = 0usize;
                    for j in 0..2_500u64 {
                        let s = format!(
                            "{{\"k\":{},\"v\":[{j},{},{}],\"name\":\"cell-{}\"}}",
                            xorshift(&mut x),
                            x % 977,
                            x >> 40,
                            j % 13
                        );
                        let parts: Vec<String> = s.split(',').map(str::to_string).collect();
                        text += parts.iter().map(String::len).sum::<usize>();
                    }
                    black_box((v[(x % WORDS as u64) as usize], m.len(), text));
                });
            }
        });
        t.elapsed().as_secs_f64()
    }

    /// Median unit time over enough units to fill [`SHARE`] of
    /// `neighbour_s`, the length of the measurement next to this one,
    /// and at least [`MIN_UNITS`].
    pub fn measure(&mut self, neighbour_s: f64) -> f64 {
        let units =
            ((SHARE * neighbour_s / REFERENCE_UNIT_S).round() as usize).clamp(MIN_UNITS, 40);
        let times: Vec<f64> = (0..units).map(|_| self.unit()).collect();
        crate::metrics::median(&times).expect("at least one unit")
    }
}

/// `raw_s` host seconds, measured between calibrations that took
/// `before` and `after` per unit, in reference-host seconds.
pub fn normalize(raw_s: f64, before: f64, after: f64) -> f64 {
    raw_s * REFERENCE_UNIT_S * 2.0 / (before + after)
}

/// One line on the host speed seen by a run: the calibration units
/// measured, and the raw (unscaled) median of `metric`.
pub fn describe(units: &[f64], raw: f64, metric: &str) -> String {
    let med = crate::metrics::median(units).unwrap_or(f64::NAN);
    format!(
        "host speed: calibration unit median {:.2} ms over {} calibrations (reference {:.0} ms); raw {metric} {raw:.4}",
        med * 1e3,
        units.len(),
        REFERENCE_UNIT_S * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_by_the_bracketing_speed() {
        assert_eq!(normalize(1.0, REFERENCE_UNIT_S, REFERENCE_UNIT_S), 1.0);
        // A host running the kernel at half speed ran the work at half
        // speed too: half the time on the reference host.
        let slow = 2.0 * REFERENCE_UNIT_S;
        assert!((normalize(3.0, slow, slow) - 1.5).abs() < 1e-12);
        assert!((normalize(1.0, REFERENCE_UNIT_S, 3.0 * REFERENCE_UNIT_S) - 0.5).abs() < 1e-12);
    }
}
