//! Cross-socket (NUMA) hop parameters, composable over any inner device
//! through [`crate::CompositeDevice::hop`].
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

use melody_sim::Dist;
use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;
    use crate::imc::{ImcConfig, ImcDevice};
    use crate::request::{MemRequest, RequestKind};
    use crate::{CompositeDevice, MemoryDevice};

    fn hop_over_dram(cfg: NumaHopConfig, seed: u64) -> CompositeDevice {
        let imc = ImcDevice::new(ImcConfig::calibrated("Local", 111.0, DramTiming::ddr5(), 8));
        CompositeDevice::hop(cfg, "NUMA", Box::new(imc), seed)
    }

    fn remote_dram() -> CompositeDevice {
        hop_over_dram(NumaHopConfig::plain(82.0, 120.0), 1)
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
        let mut dev = hop_over_dram(NumaHopConfig::cxl_coupled(161.0, 14.0), 2);
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
        let spikes_at = |burst: u64, gap: u64| {
            let mut dev = hop_over_dram(NumaHopConfig::cxl_coupled(161.0, 14.0), 3);
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
