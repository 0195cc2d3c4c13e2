//! Live campaign progress: a lock-light sink the harness ticks as cells
//! resolve, snapshotted on demand by observers (the server's `/metrics`
//! and `status` endpoints, the CLI's `--progress` heartbeat).
//!
//! A [`Progress`] is shared as an `Arc` between the campaign runner
//! (writer) and any number of observers (readers): counters are relaxed
//! atomics, and only the moving-rate clock takes a tiny mutex per tick.
//! Nothing here touches the result path — runs without an attached
//! sink are byte-identical to runs before this module existed.
//!
//! ETA follows the repo's n/a convention (see `TELEMETRY.md`): when an
//! estimate would require dividing by zero — a zero-cell campaign, no
//! cells resolved yet, zero elapsed time — [`ProgressSnapshot::eta_ms`]
//! is `None` and renders as `n/a`, never a fabricated number.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// How many recent cell completions feed the moving-rate window.
const RATE_WINDOW: usize = 64;

/// How a resolved cell was satisfied (mirrors
/// [`crate::campaign::CampaignRunStats`]' resolution classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Replayed from the journal.
    Journal,
    /// Served from the shared result cache.
    Cache,
    /// Actually simulated.
    Simulated,
}

/// Moving-rate clock: start instant plus the elapsed-ns stamps of the
/// most recent completions.
#[derive(Debug, Default)]
struct Clock {
    started: Option<Instant>,
    recent: VecDeque<u64>,
}

/// Shared progress sink for one campaign run.
#[derive(Debug, Default)]
pub struct Progress {
    total: AtomicUsize,
    journal: AtomicUsize,
    cache: AtomicUsize,
    simulated: AtomicUsize,
    /// Epoch for elapsed math, guarded so `begin` can set it once.
    clock: Mutex<Clock>,
}

impl Progress {
    /// Starts (or restarts) tracking a run of `total` cells.
    pub fn begin(&self, total: usize) {
        self.total.store(total, Ordering::Relaxed);
        let mut clock = self.clock.lock().expect("progress clock");
        if clock.started.is_none() {
            clock.started = Some(Instant::now());
        }
    }

    /// Records one resolved cell.
    pub fn tick(&self, how: Resolution) {
        match how {
            Resolution::Journal => &self.journal,
            Resolution::Cache => &self.cache,
            Resolution::Simulated => &self.simulated,
        }
        .fetch_add(1, Ordering::Relaxed);
        let mut clock = self.clock.lock().expect("progress clock");
        let elapsed = clock
            .started
            .map(|s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        if clock.recent.len() == RATE_WINDOW {
            clock.recent.pop_front();
        }
        clock.recent.push_back(elapsed);
    }

    /// Cells resolved so far (any resolution class).
    pub fn done(&self) -> usize {
        self.journal.load(Ordering::Relaxed)
            + self.cache.load(Ordering::Relaxed)
            + self.simulated.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time view for rendering or serialization.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let journal = self.journal.load(Ordering::Relaxed);
        let cache = self.cache.load(Ordering::Relaxed);
        let simulated = self.simulated.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let done = journal + cache + simulated;
        let clock = self.clock.lock().expect("progress clock");
        let elapsed_ns = clock
            .started
            .map(|s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let window: Vec<u64> = clock.recent.iter().copied().collect();
        drop(clock);
        ProgressSnapshot {
            total,
            done,
            journal,
            cache,
            simulated,
            elapsed_ms: elapsed_ns / 1_000_000,
            eta_ms: eta_ms(total, done, elapsed_ns, &window),
        }
    }
}

/// A serializable point-in-time view of a [`Progress`] sink, surfaced in
/// `JobView` / `HealthReply` and the CLI heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Cells this run owns (after shard filtering).
    pub total: usize,
    /// Cells resolved so far, `journal + cache + simulated`.
    pub done: usize,
    /// Cells replayed from the journal.
    pub journal: usize,
    /// Cells served from the result cache.
    pub cache: usize,
    /// Cells actually simulated.
    pub simulated: usize,
    /// Wall-clock ms since the run began.
    pub elapsed_ms: u64,
    /// Moving-rate ETA in ms; `None` renders as `n/a` (zero-cell or
    /// zero-elapsed runs — the empty-histogram convention).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eta_ms: Option<u64>,
}

impl ProgressSnapshot {
    /// `"42s"` / `"4m05s"` / `"n/a"` — the ETA as a human label.
    pub fn eta_label(&self) -> String {
        match self.eta_ms {
            None => "n/a".to_string(),
            Some(ms) => fmt_duration_ms(ms),
        }
    }

    /// One-line rendering for heartbeats and `status --watch`.
    pub fn render(&self) -> String {
        let pct = if self.total > 0 {
            format!(" ({:.1}%)", 100.0 * self.done as f64 / self.total as f64)
        } else {
            String::new()
        };
        format!(
            "cells {}/{}{pct} — {} journal + {} cache + {} simulated — eta {}",
            self.done,
            self.total,
            self.journal,
            self.cache,
            self.simulated,
            self.eta_label()
        )
    }
}

/// Rounds-up-to-seconds human duration: `0s`, `42s`, `4m05s`, `1h02m`.
fn fmt_duration_ms(ms: u64) -> String {
    let secs = ms.div_ceil(1_000);
    if secs >= 3_600 {
        format!("{}h{:02}m", secs / 3_600, (secs % 3_600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

/// Moving-rate ETA over the most recent completions, falling back to the
/// whole-run average when the window is too small to carry a rate.
///
/// Returns `None` — the `n/a` convention — whenever an estimate would
/// need a division by zero: a zero-cell campaign, no cells resolved yet,
/// or zero elapsed time. `Some(0)` means the run is already complete.
pub fn eta_ms(total: usize, done: usize, elapsed_ns: u64, window: &[u64]) -> Option<u64> {
    if total == 0 || done == 0 {
        return None;
    }
    if done >= total {
        return Some(0);
    }
    let remaining = (total - done) as f64;
    // Rate from the recent window when it spans real time; otherwise the
    // whole-run average (e.g. a burst of journal hits lands on one
    // instant and carries no rate of its own).
    let cells_per_ns = match (window.first(), window.last()) {
        (Some(&first), Some(&last)) if window.len() >= 2 && last > first => {
            (window.len() - 1) as f64 / (last - first) as f64
        }
        _ if elapsed_ns > 0 => done as f64 / elapsed_ns as f64,
        _ => return None,
    };
    let eta_ns = remaining / cells_per_ns;
    Some((eta_ns / 1e6).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_guards_refuse_to_divide_by_zero() {
        // Zero-cell campaign: nothing to estimate.
        assert_eq!(eta_ms(0, 0, 1_000_000, &[]), None);
        // Nothing resolved yet: no rate exists.
        assert_eq!(eta_ms(10, 0, 1_000_000, &[]), None);
        // Zero elapsed and a window that spans no time: still n/a.
        assert_eq!(eta_ms(10, 5, 0, &[0, 0, 0]), None);
        // Complete runs answer zero, not n/a.
        assert_eq!(eta_ms(10, 10, 0, &[]), Some(0));
        assert_eq!(eta_ms(10, 12, 5, &[1, 2]), Some(0));
    }

    #[test]
    fn eta_uses_moving_rate_then_falls_back() {
        // Window: 4 completions 1ms apart -> 1 cell/ms; 6 remain -> 6ms.
        let w: Vec<u64> = (0..4).map(|i| i * 1_000_000).collect();
        assert_eq!(eta_ms(10, 4, 3_000_000, &w), Some(6));
        // Degenerate window (single entry) falls back to run average:
        // 4 cells over 8ms -> 2ms/cell; 6 remain -> 12ms.
        assert_eq!(eta_ms(10, 4, 8_000_000, &[8_000_000]), Some(12));
    }

    #[test]
    fn zero_cell_snapshot_renders_na() {
        let p = Progress::default();
        p.begin(0);
        let s = p.snapshot();
        assert_eq!(s.total, 0);
        assert_eq!(s.eta_ms, None);
        assert_eq!(s.eta_label(), "n/a");
        assert!(s.render().contains("eta n/a"), "{}", s.render());
    }

    #[test]
    fn ticks_accumulate_and_done_is_monotonic() {
        let p = Progress::default();
        p.begin(5);
        let mut last = 0;
        for how in [
            Resolution::Journal,
            Resolution::Cache,
            Resolution::Simulated,
            Resolution::Simulated,
        ] {
            p.tick(how);
            let done = p.done();
            assert!(done > last, "done must be monotonic");
            last = done;
        }
        let s = p.snapshot();
        assert_eq!((s.journal, s.cache, s.simulated), (1, 1, 2));
        assert_eq!(s.done, 4);
        assert_eq!(s.total, 5);
    }

    #[test]
    fn snapshot_serializes_without_eta_when_na() {
        let p = Progress::default();
        p.begin(0);
        let json = serde_json::to_string(&p.snapshot()).expect("serializes");
        assert!(!json.contains("eta_ms"), "{json}");
        let back: ProgressSnapshot = serde_json::from_str(&json).expect("roundtrips");
        assert_eq!(back.eta_ms, None);
    }

    #[test]
    fn duration_labels() {
        assert_eq!(fmt_duration_ms(0), "0s");
        assert_eq!(fmt_duration_ms(500), "1s");
        assert_eq!(fmt_duration_ms(42_000), "42s");
        assert_eq!(fmt_duration_ms(245_000), "4m05s");
        assert_eq!(fmt_duration_ms(3_720_000), "1h02m");
    }
}
