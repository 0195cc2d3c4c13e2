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
//! Requests are interleaved across the downstream ports with the same
//! routing math as [`crate::InterleavedDevice`]
//! ([`crate::interleave::route`]), so a switch is "interleaving plus a
//! shared bottleneck".

use melody_sim::{CreditPool, ServerPool, SimTime};
use serde::{Deserialize, Serialize};

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::interleave::{local_addr, route};
use crate::request::MemRequest;

/// Per-port link-utilization gauge names (fabric telemetry). Ports past
/// the eighth clamp onto the last name; metric names must be static, so
/// the fan-out is bounded here rather than formatted per node.
static PORT_UTIL_GAUGES: [&str; 8] = [
    "fabric.port1.util",
    "fabric.port2.util",
    "fabric.port3.util",
    "fabric.port4.util",
    "fabric.port5.util",
    "fabric.port6.util",
    "fabric.port7.util",
    "fabric.port8.util",
];

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

/// A set of downstream devices behind one switch upstream port.
pub struct SwitchDevice {
    cfg: SwitchConfig,
    granularity: u64,
    parts: Vec<Box<dyn MemoryDevice>>,
    name: String,
    up_read: ServerPool,
    up_write: ServerPool,
    credits: CreditPool,
    port_bytes: Vec<u64>,
    stats: DeviceStats,
}

impl SwitchDevice {
    /// Puts `parts` behind a switch, interleaved at `granularity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, `granularity` is zero, or the config
    /// has no credits / non-positive bandwidth.
    pub fn new(cfg: SwitchConfig, granularity: u64, parts: Vec<Box<dyn MemoryDevice>>) -> Self {
        assert!(!parts.is_empty(), "switch needs at least one downstream");
        assert!(granularity > 0, "granularity must be positive");
        assert!(cfg.credits > 0, "switch needs at least one credit");
        assert!(
            cfg.upstream_gbps > 0.0,
            "upstream bandwidth must be positive"
        );
        let name = format!("{}x{}+Switch", parts[0].name(), parts.len());
        let credits = CreditPool::new(cfg.credits);
        let port_bytes = vec![0; parts.len()];
        Self {
            cfg,
            granularity,
            parts,
            name,
            up_read: ServerPool::new(1),
            up_write: ServerPool::new(1),
            credits,
            port_bytes,
            stats: DeviceStats::default(),
        }
    }

    /// Downstream port count.
    pub fn ports(&self) -> usize {
        self.parts.len()
    }

    /// How many requests found the upstream credit pool exhausted and
    /// had to wait for a credit to return.
    pub fn credit_shortfalls(&self) -> u64 {
        self.credits.shortfalls()
    }
}

impl MemoryDevice for SwitchDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let idx = route(req.addr, self.granularity, self.parts.len());
        let local = MemRequest {
            addr: local_addr(req.addr, self.granularity, self.parts.len()),
            ..*req
        };

        // One upstream credit is held for the whole round trip; an
        // exhausted pool stalls the request until a credit returns.
        let granted = self.credits.acquire(req.issue);
        let credit_wait = granted - req.issue;

        // Upstream serialization: full-duplex port, one direction per
        // payload, shared by *all* downstream traffic.
        let service = (64.0 / self.cfg.upstream_gbps * 1_000.0) as SimTime;
        let (start, done) = if req.kind.is_read() {
            self.up_read.submit(granted, service)
        } else {
            self.up_write.submit(granted, service)
        };
        let queue_hop = credit_wait + (start - granted);

        // The downstream expander sees the request after half the
        // forwarding latency; its response crosses the other half.
        let half_fwd = (self.cfg.latency_ns * 500.0) as SimTime;
        let inner_req = MemRequest {
            issue: done + half_fwd,
            ..local
        };
        let inner = self.parts[idx].access(&inner_req);
        let completion = inner.completion + half_fwd;
        self.credits.release_at(completion);

        let out = AccessBreakdown {
            completion,
            queue_ps: inner.queue_ps + queue_hop,
            dram_ps: inner.dram_ps,
            fabric_ps: inner.fabric_ps + half_fwd * 2 + service,
            spike_ps: inner.spike_ps,
            row_hit: inner.row_hit,
            poisoned: inner.poisoned,
            node: idx as u16 + 1,
        };
        self.stats.record(req, completion);
        self.port_bytes[idx] += 64;
        if melody_telemetry::metrics_on() {
            // Per-node link utilization: the port's achieved bandwidth
            // over the device's active span, as a fraction of the shared
            // upstream capacity.
            let span = req.issue.saturating_sub(self.stats.first_issue);
            if span > 0 {
                let gbps = self.port_bytes[idx] as f64 / span as f64 * 1_000.0;
                let gauge = PORT_UTIL_GAUGES[idx.min(PORT_UTIL_GAUGES.len() - 1)];
                melody_telemetry::gauge(gauge, req.issue, gbps / self.cfg.upstream_gbps);
            }
            if credit_wait > 0 {
                melody_telemetry::count("fabric.credit_waits", 1);
                melody_telemetry::record_ns("fabric.credit_wait_ns", credit_wait / 1_000);
            }
        }
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| p.nominal_latency_ns())
            .sum::<f64>()
            / self.parts.len() as f64
            + self.cfg.latency_ns
    }

    fn stats(&self) -> DeviceStats {
        // The switch keeps its own traffic counters; RAS events happen
        // in the expanders behind it.
        let mut s = self.stats;
        for p in &self.parts {
            s.ras.merge(&p.stats().ras);
        }
        s
    }

    fn fast_forward(&mut self, now: SimTime) {
        for p in &mut self.parts {
            p.fast_forward(now);
        }
    }

    fn wants_slot_observations(&self) -> bool {
        self.parts.iter().any(|p| p.wants_slot_observations())
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: SimTime) {
        let ways = self.parts.len();
        let local = local_addr(addr, self.granularity, ways);
        self.parts[route(addr, self.granularity, ways)].observe_slot(local, is_store, now);
    }
}

impl std::fmt::Debug for SwitchDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchDevice")
            .field("name", &self.name)
            .field("ports", &self.parts.len())
            .field("granularity", &self.granularity)
            .field("upstream_gbps", &self.cfg.upstream_gbps)
            .field("credits", &self.cfg.credits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;
    use crate::imc::{ImcConfig, ImcDevice};
    use crate::request::RequestKind;

    fn part() -> Box<dyn MemoryDevice> {
        Box::new(ImcDevice::new(ImcConfig::calibrated(
            "Part",
            111.0,
            DramTiming::ddr5(),
            1,
        )))
    }

    fn two_port(upstream_gbps: f64, credits: u32) -> SwitchDevice {
        SwitchDevice::new(
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
        assert_eq!(dev.ports(), 2);
    }
}
