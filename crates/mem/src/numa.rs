//! Cross-socket (NUMA) hop, composable over any inner device.
//!
//! Plain NUMA memory in the paper is stable (p99.9−p50 ≈ 61 ns) — the UPI
//! hop adds latency and caps bandwidth but introduces little variance. The
//! *composition* of a NUMA hop over a CXL device, however, produces
//! surprisingly bad tails (Figure 8c/8d: `520.omnetpp` runs 2.9× slower
//! under CXL+NUMA while seeing <5% slowdown on every plain CXL device).
//! The model's mechanism is burst-triggered congestion on the interconnect
//! path: a burst of requests can exhaust flow-control credits across the
//! two coupled links, opening a window that delays everything behind it.
//! Reducing workload intensity reduces bursts and shrinks the tail — the
//! same load-scaling behaviour the paper demonstrates.

use melody_sim::{Dist, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::request::MemRequest;

/// Configuration of a cross-socket hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumaHopConfig {
    /// Added round-trip latency of the hop in ns (Table 1's Remote−Local
    /// latency difference; device-specific: +161/202/227/94 ns for
    /// CXL A–D).
    pub extra_ns: f64,
    /// UPI bandwidth cap for traffic through the hop, GB/s.
    pub upi_gbps: f64,
    /// Probability that a *burst* arrival (inter-arrival below
    /// `burst_ia_ns`) opens a congestion window. Zero for plain NUMA.
    pub burst_congestion_p: f64,
    /// Inter-arrival threshold that defines a burst, ns.
    pub burst_ia_ns: f64,
    /// Congestion window length, ns.
    pub congestion_window_ns: Dist,
    /// Minimum spacing between window *openings*, ns (credit recovery
    /// time). Bounds the throughput cost of congestion under sustained
    /// load while preserving the per-burst tail impact.
    pub window_min_gap_ns: f64,
}

impl NumaHopConfig {
    /// A well-behaved hop (plain NUMA): latency + bandwidth cap only.
    pub fn plain(extra_ns: f64, upi_gbps: f64) -> Self {
        Self {
            extra_ns,
            upi_gbps,
            burst_congestion_p: 0.0,
            burst_ia_ns: 0.0,
            congestion_window_ns: Dist::zero(),
            window_min_gap_ns: 0.0,
        }
    }

    /// A hop that amplifies tails for bursty traffic (CXL+NUMA).
    pub fn cxl_coupled(extra_ns: f64, upi_gbps: f64) -> Self {
        Self {
            extra_ns,
            upi_gbps,
            burst_congestion_p: 0.10,
            burst_ia_ns: 120.0,
            congestion_window_ns: Dist::Mixture(vec![
                (
                    0.8,
                    Dist::Uniform {
                        lo: 250.0,
                        hi: 550.0,
                    },
                ),
                (
                    0.2,
                    Dist::BoundedPareto {
                        scale: 500.0,
                        shape: 1.6,
                        cap: 4_000.0,
                    },
                ),
            ]),
            window_min_gap_ns: 4_000.0,
        }
    }
}

/// A device reached through a cross-socket hop.
pub struct NumaHopDevice {
    cfg: NumaHopConfig,
    inner: Box<dyn MemoryDevice>,
    rng: SimRng,
    name: String,
    upi_read: melody_sim::ServerPool,
    upi_write: melody_sim::ServerPool,
    congestion_until: SimTime,
    next_window_allowed: SimTime,
    last_arrival: SimTime,
    stats: DeviceStats,
}

impl NumaHopDevice {
    /// Renames the hop suffix (default `"NUMA"`; a switch hop uses
    /// `"Switch"`).
    pub fn set_label(&mut self, label: &str) {
        self.name = format!("{}+{}", self.inner.name(), label);
    }

    /// Wraps `inner` behind the hop.
    pub fn new(cfg: NumaHopConfig, inner: Box<dyn MemoryDevice>, seed: u64) -> Self {
        let name = format!("{}+NUMA", inner.name());
        Self {
            cfg,
            inner,
            rng: SimRng::seed_from(seed),
            name,
            upi_read: melody_sim::ServerPool::new(1),
            upi_write: melody_sim::ServerPool::new(1),
            congestion_until: 0,
            next_window_allowed: 0,
            last_arrival: 0,
            stats: DeviceStats::default(),
        }
    }
}

impl MemoryDevice for NumaHopDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let half_extra = (self.cfg.extra_ns * 500.0) as SimTime;
        let mut spike_ps = 0;
        let mut t = req.issue;

        // Burst-triggered congestion on the coupled links. Window
        // openings are rate-limited by the credit recovery time, so
        // sustained saturation pays a bounded throughput tax while each
        // *burst* still risks a full window of delay.
        let ia = t.saturating_sub(self.last_arrival);
        self.last_arrival = t;
        if self.cfg.burst_congestion_p > 0.0
            && t >= self.next_window_allowed
            && ia < (self.cfg.burst_ia_ns * 1_000.0) as SimTime
            && self.rng.chance(self.cfg.burst_congestion_p)
        {
            let w = (self.cfg.congestion_window_ns.sample(&mut self.rng) * 1_000.0) as SimTime;
            self.congestion_until = t + w;
            self.next_window_allowed = t + (self.cfg.window_min_gap_ns * 1_000.0) as SimTime;
        }
        if t < self.congestion_until {
            spike_ps += self.congestion_until - t;
            t = self.congestion_until;
        }

        // UPI serialization: the socket interconnect is full-duplex, so
        // read payloads (device -> requester) and write payloads occupy
        // independent directions, each at the measured per-direction
        // bandwidth.
        let service = (64.0 / self.cfg.upi_gbps * 1_000.0) as SimTime;
        let (start, done) = if req.kind.is_read() {
            self.upi_read.submit(t, service)
        } else {
            self.upi_write.submit(t, service)
        };
        let queue_hop = start - t;

        // Inner device sees the request after half the extra latency.
        let inner_req = MemRequest {
            issue: done + half_extra,
            ..*req
        };
        let inner = self.inner.access(&inner_req);
        let completion = inner.completion + half_extra;

        let out = AccessBreakdown {
            completion,
            queue_ps: inner.queue_ps + queue_hop,
            dram_ps: inner.dram_ps,
            fabric_ps: inner.fabric_ps + half_extra * 2 + service,
            spike_ps: inner.spike_ps + spike_ps,
            row_hit: inner.row_hit,
            poisoned: inner.poisoned,
            node: inner.node,
        };
        self.stats.record(req, completion);
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.inner.nominal_latency_ns() + self.cfg.extra_ns
    }

    fn stats(&self) -> DeviceStats {
        // The hop keeps its own traffic counters, but RAS events happen
        // in the device behind it.
        let mut s = self.stats;
        s.ras = self.inner.stats().ras;
        s
    }

    fn fast_forward(&mut self, now: melody_sim::SimTime) {
        self.inner.fast_forward(now);
    }

    fn wants_slot_observations(&self) -> bool {
        self.inner.wants_slot_observations()
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: melody_sim::SimTime) {
        self.inner.observe_slot(addr, is_store, now);
    }
}

impl std::fmt::Debug for NumaHopDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaHopDevice")
            .field("name", &self.name)
            .field("extra_ns", &self.cfg.extra_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;
    use crate::imc::{ImcConfig, ImcDevice};
    use crate::request::RequestKind;

    fn remote_dram() -> NumaHopDevice {
        let imc = ImcDevice::new(ImcConfig::calibrated("Local", 111.0, DramTiming::ddr5(), 8));
        NumaHopDevice::new(NumaHopConfig::plain(82.0, 120.0), Box::new(imc), 1)
    }

    #[test]
    fn hop_adds_latency() {
        let mut dev = remote_dram();
        assert!((dev.nominal_latency_ns() - 193.0).abs() < 1e-9);
        let a = dev.access(&MemRequest::new(64 * 999, RequestKind::DemandRead, 0));
        let ns = a.completion as f64 / 1_000.0;
        assert!(
            (160.0..230.0).contains(&ns),
            "NUMA idle {ns} ns, expect ~193"
        );
    }

    #[test]
    fn plain_numa_has_no_congestion_spikes() {
        let mut dev = remote_dram();
        let mut max_spike = 0;
        for i in 0..20_000u64 {
            // Bursty arrivals: bursts of 8 requests 30 ns apart, every 4 µs.
            let t = (i / 8) * 4_000_000 + (i % 8) * 30_000;
            let a = dev.access(&MemRequest::new(i * 64, RequestKind::DemandRead, t));
            max_spike = max_spike.max(a.spike_ps);
        }
        // Only refresh can spike; that is bounded by tRFC (~295 ns).
        assert!(max_spike < 400_000, "plain NUMA spike {max_spike} ps");
    }

    #[test]
    fn coupled_hop_amplifies_bursty_tails() {
        let imc = ImcDevice::new(ImcConfig::calibrated("Local", 111.0, DramTiming::ddr5(), 8));
        let mut dev = NumaHopDevice::new(NumaHopConfig::cxl_coupled(161.0, 14.0), Box::new(imc), 2);
        let mut big_spikes = 0u64;
        for i in 0..20_000u64 {
            let t = (i / 8) * 4_000_000 + (i % 8) * 30_000; // bursts of 8, 30 ns apart
            let a = dev.access(&MemRequest::new(i * 64, RequestKind::DemandRead, t));
            if a.spike_ps > 200_000 {
                big_spikes += 1;
            }
        }
        assert!(
            big_spikes > 100,
            "coupled hop should delay bursty traffic, saw {big_spikes}"
        );
    }

    #[test]
    fn lower_intensity_reduces_congestion() {
        let make = || {
            let imc = ImcDevice::new(ImcConfig::calibrated("Local", 111.0, DramTiming::ddr5(), 8));
            NumaHopDevice::new(NumaHopConfig::cxl_coupled(161.0, 14.0), Box::new(imc), 3)
        };
        let spikes_at = |burst: u64, gap: u64| {
            let mut dev = make();
            let mut spikes = 0u64;
            for i in 0..20_000u64 {
                let t = (i / burst) * gap + (i % burst) * 30_000;
                let a = dev.access(&MemRequest::new(i * 64, RequestKind::DemandRead, t));
                if a.spike_ps > 200_000 {
                    spikes += 1;
                }
            }
            spikes
        };
        let dense = spikes_at(8, 4_000_000);
        let sparse = spikes_at(2, 16_000_000);
        assert!(
            sparse * 2 < dense,
            "reduced intensity should shrink tails: dense={dense} sparse={sparse}"
        );
    }
}
