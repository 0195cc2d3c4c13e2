//! The `MemoryDevice` trait and shared bookkeeping.

use melody_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::faults::RasCounters;
use crate::request::MemRequest;

fn is_false(b: &bool) -> bool {
    !*b
}

fn is_zero_u16(n: &u16) -> bool {
    *n == 0
}

/// Per-request timing breakdown returned by a device.
///
/// `completion` is the instant the data is back at the requester (reads) or
/// accepted for posting (writebacks). The remaining fields attribute the
/// latency for diagnostics and white-box tests; they need not sum exactly
/// to `completion - issue` (stages overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessBreakdown {
    /// When the request finished.
    pub completion: SimTime,
    /// Time spent waiting in queues (link serialization, scheduler slots,
    /// bank conflicts).
    pub queue_ps: SimTime,
    /// Time spent in the DRAM array (activation + CAS + burst).
    pub dram_ps: SimTime,
    /// Fixed propagation and processing through link/controller logic.
    pub fabric_ps: SimTime,
    /// Extra delay from stochastic events: jitter, congestion windows,
    /// link-layer retries, refresh collisions, thermal throttling.
    pub spike_ps: SimTime,
    /// Whether the access hit an open DRAM row.
    pub row_hit: bool,
    /// Whether the access consumed a poisoned line (uncorrectable error).
    /// The CPU engine turns this into an MCE-style recovery stall.
    /// Skipped when clean so fault-free serializations stay byte-identical
    /// to the pre-fault-layer format.
    #[serde(default, skip_serializing_if = "is_false")]
    pub poisoned: bool,
    /// 1-based index of the fabric node (interleave way or switch port)
    /// that served the access; 0 when the device has no routing fabric.
    /// The outermost routing layer wins, so for nested fabrics this is
    /// the top-level port. Skipped when 0 so single-device
    /// serializations stay byte-identical to the pre-topology format.
    #[serde(default, skip_serializing_if = "is_zero_u16")]
    pub node: u16,
}

impl AccessBreakdown {
    /// Latency of this access relative to its issue time.
    pub fn latency(&self, issue: SimTime) -> SimTime {
        self.completion.saturating_sub(issue)
    }
}

/// Aggregate traffic counters a device maintains over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Read-direction requests served (demand + prefetch + RFO).
    pub reads: u64,
    /// Write-direction requests served (writebacks).
    pub writes: u64,
    /// Sum of read latencies in picoseconds.
    pub total_read_latency_ps: u128,
    /// Issue time of the first request seen.
    pub first_issue: SimTime,
    /// Latest completion produced.
    pub last_completion: SimTime,
    /// RAS event counters (CRC replays, UEs, retrains, throttle time).
    /// Skipped when all-zero so fault-free serializations stay
    /// byte-identical to the pre-fault-layer format.
    #[serde(default, skip_serializing_if = "RasCounters::is_zero")]
    pub ras: RasCounters,
}

impl DeviceStats {
    /// Records one access.
    pub fn record(&mut self, req: &MemRequest, completion: SimTime) {
        if self.reads == 0 && self.writes == 0 {
            self.first_issue = req.issue;
        }
        if req.kind.is_read() {
            self.reads += 1;
            self.total_read_latency_ps += completion.saturating_sub(req.issue) as u128;
        } else {
            self.writes += 1;
        }
        self.last_completion = self.last_completion.max(completion);
    }

    /// Adds `other`'s counters, as a device reports the parts behind it:
    /// `first_issue` becomes the earliest among the parts that served
    /// anything.
    pub fn merge(&mut self, other: &DeviceStats) {
        if other.requests() > 0 && (self.requests() == 0 || other.first_issue < self.first_issue) {
            self.first_issue = other.first_issue;
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.total_read_latency_ps += other.total_read_latency_ps;
        self.last_completion = self.last_completion.max(other.last_completion);
        self.ras.merge(&other.ras);
    }

    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean read latency in nanoseconds, or 0.0 with no reads.
    pub fn mean_read_latency_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency_ps as f64 / self.reads as f64 / 1_000.0
        }
    }

    /// Achieved total bandwidth in GB/s over the device's active span
    /// (64 B per request), or 0.0 when inactive.
    pub fn bandwidth_gbps(&self) -> f64 {
        let span = self.last_completion.saturating_sub(self.first_issue);
        if span == 0 {
            return 0.0;
        }
        let bytes = self.requests() as f64 * 64.0;
        // bytes / picoseconds = TB/s; scale to GB/s.
        bytes / span as f64 * 1_000.0
    }
}

/// A memory backend that serves cacheline requests.
///
/// Implementations must be driven with nondecreasing `issue` times: the
/// caller (the CPU model or a traffic harness) owns the global clock, and
/// device-internal queue state only moves forward. This is the contract
/// that lets a device compute each request's completion analytically at
/// submission time.
pub trait MemoryDevice {
    /// Serves one request and returns its timing breakdown.
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown;

    /// Human-readable device name (e.g. `"CXL-A"`).
    fn name(&self) -> &str;

    /// Idle (unloaded, row-miss) latency target of this device in ns, as a
    /// nominal figure for reports. The measured idle latency comes from
    /// [`crate::probe::idle_latency_ns`].
    fn nominal_latency_ns(&self) -> f64;

    /// Lifetime traffic counters.
    fn stats(&self) -> DeviceStats;

    /// Advances device-internal *time-driven* state to `now` without
    /// serving any traffic. Used by the sampled fidelity tier when it
    /// fast-forwards across a skipped region: periodic fault windows
    /// (link retrains, refresh storms) that would have opened and closed
    /// inside the skip still elapse — their schedules stay monotone and
    /// their occurrence counters advance — while per-request effects
    /// (CRC replays, poison, throttle time) are extrapolated by the
    /// caller from the last measured window. Queue state needs no
    /// explicit advance: devices already fold idle gaps in at the next
    /// `access`. The default is a no-op for devices with no clocks of
    /// their own.
    fn fast_forward(&mut self, _now: SimTime) {}

    /// True when this device wants [`MemoryDevice::observe_slot`] calls
    /// for *every* executed memory reference, not just the cache misses
    /// that reach [`MemoryDevice::access`]. The CPU engine caches this
    /// answer once per run and taps its load/store stream only when it
    /// is `true`, so ordinary devices pay nothing. A composite device
    /// wants them when any of its children does, and routes each
    /// observed address to the child (and local address) its `access`
    /// would use.
    fn wants_slot_observations(&self) -> bool {
        false
    }

    /// Observes one executed memory reference (load or store) at
    /// simulated time `now`, *before* the cache hierarchy filters it.
    /// Hot/cold page trackers ([`crate::TieredDevice`]) use this full
    /// address stream for residency decisions; observation must never
    /// change the timing of the observed reference itself. Called with
    /// nondecreasing `now`, interleaved consistently with `access`
    /// issue times. Default: ignore.
    fn observe_slot(&mut self, _addr: u64, _is_store: bool, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    #[test]
    fn stats_accumulate() {
        let mut s = DeviceStats::default();
        let r = MemRequest::new(0, RequestKind::DemandRead, 1_000);
        s.record(&r, 251_000); // 250 ns
        let w = MemRequest::new(64, RequestKind::WriteBack, 2_000);
        s.record(&w, 10_000);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.requests(), 2);
        assert!((s.mean_read_latency_ns() - 250.0).abs() < 1e-9);
        assert_eq!(s.first_issue, 1_000);
        assert_eq!(s.last_completion, 251_000);
    }

    #[test]
    fn bandwidth_from_span() {
        let mut s = DeviceStats::default();
        // 1000 requests over 1 µs = 64 KB / µs = 64 GB/s.
        for i in 0..1000u64 {
            let r = MemRequest::new(i * 64, RequestKind::DemandRead, i * 1_000);
            s.record(&r, i * 1_000 + 1_000);
        }
        let bw = s.bandwidth_gbps();
        assert!((bw - 64.0).abs() < 0.5, "bw {bw}");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.bandwidth_gbps(), 0.0);
        assert_eq!(s.mean_read_latency_ns(), 0.0);
    }

    #[test]
    fn breakdown_latency() {
        let b = AccessBreakdown {
            completion: 5_000,
            ..Default::default()
        };
        assert_eq!(b.latency(2_000), 3_000);
        assert_eq!(b.latency(9_000), 0);
    }
}
