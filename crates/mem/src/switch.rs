//! CXL switch with a shared, credit-limited upstream link.
//!
//! A switch multiplexes several downstream expanders onto one upstream
//! port. Two mechanisms couple the downstream devices' performance:
//!
//! - **Shared upstream serialization.** Every request and its data
//!   response cross the one upstream link, modelled as a per-direction
//!   [`melody_sim::ServerPool`] at the link bandwidth — so aggregate
//!   bandwidth through the switch can never exceed the upstream port,
//!   however many expanders hang below it.
//! - **Flow-control credits.** The upstream port extends a bounded
//!   credit pool ([`melody_sim::CreditPool`]); each request holds one
//!   credit from issue until its data returns. When a burst exhausts the
//!   pool, later requests stall until a credit frees — deterministic
//!   backpressure that makes one hot expander's traffic delay its
//!   siblings, which is exactly why switch-shared topologies measure
//!   worse than host-interleaved ones at equal device count.
//!
//! A switch is a [`crate::CompositeDevice::switch`]: its downstream
//! ports interleave with the same routing math as an interleaved device
//! ([`crate::interleave::route`]), and its upstream port is the plain
//! hop link plus a credit pool — "interleaving plus a shared
//! bottleneck".

use serde::{Deserialize, Serialize};

/// Configuration of a CXL switch's shared upstream port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// Forwarding latency through the switch (round trip), ns. Public
    /// Samsung CMM-B data puts a switch hop near +190 ns.
    pub latency_ns: f64,
    /// Upstream link bandwidth per direction, GB/s.
    pub upstream_gbps: f64,
    /// Flow-control credits on the upstream port: the maximum number of
    /// requests in flight through the switch at once.
    pub credits: u32,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self {
            latency_ns: 190.0,
            upstream_gbps: 60.0,
            credits: 24,
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

    fn part() -> Box<dyn MemoryDevice> {
        Box::new(ImcDevice::new(ImcConfig::calibrated(
            "Part",
            111.0,
            DramTiming::ddr5(),
            1,
        )))
    }

    fn two_port(upstream_gbps: f64, credits: u32) -> CompositeDevice {
        CompositeDevice::switch(
            SwitchConfig {
                latency_ns: 190.0,
                upstream_gbps,
                credits,
            },
            256,
            vec![part(), part()],
        )
    }

    #[test]
    fn switch_adds_forwarding_latency() {
        let mut dev = two_port(60.0, 24);
        assert!((dev.nominal_latency_ns() - 301.0).abs() < 1e-9);
        let a = dev.access(&MemRequest::new(64, RequestKind::DemandRead, 0));
        let ns = a.completion as f64 / 1_000.0;
        assert!((250.0..400.0).contains(&ns), "switch idle {ns} ns");
        assert_eq!(a.node, 1);
    }

    #[test]
    fn traffic_partitions_across_ports() {
        let mut dev = two_port(60.0, 24);
        for i in 0..512u64 {
            let a = dev.access(&MemRequest::new(
                i * 256,
                RequestKind::DemandRead,
                i * 2_000,
            ));
            assert_eq!(a.node as u64, i % 2 + 1, "round-robin at granularity");
        }
        assert_eq!(dev.stats().reads, 512);
    }

    #[test]
    fn shared_upstream_caps_aggregate_bandwidth() {
        // Two 38 GB/s DDR5 channels behind a 10 GB/s upstream port:
        // closed-loop read bandwidth must respect the port, not the sum
        // of the expanders.
        let mut dev = two_port(10.0, 24);
        let bw = crate::probe::peak_bandwidth_gbps(&mut dev, 1.0, 20_000, 64);
        assert!(bw <= 10.5, "switch-shared bw {bw} GB/s > 10 GB/s port");
        assert!(bw > 5.0, "switch should still move traffic: {bw} GB/s");
    }

    #[test]
    fn credit_exhaustion_backpressures_bursts() {
        // A 2-credit pool under a 64-deep closed loop must record
        // shortfalls; a 256-credit pool under the same load must not.
        let mut tight = two_port(60.0, 2);
        let _ = crate::probe::peak_bandwidth_gbps(&mut tight, 1.0, 5_000, 64);
        assert!(tight.credit_shortfalls() > 0, "2 credits must backpressure");
        let mut roomy = two_port(60.0, 256);
        let _ = crate::probe::peak_bandwidth_gbps(&mut roomy, 1.0, 5_000, 64);
        assert_eq!(roomy.credit_shortfalls(), 0, "256 credits never exhaust");
    }

    #[test]
    fn name_composes() {
        let dev = two_port(60.0, 24);
        assert_eq!(dev.name(), "Partx2+Switch");
    }
}
