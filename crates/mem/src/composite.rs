//! One composite device for every routed configuration.
//!
//! The paper's composite setups are all the same shape: built children,
//! a route that picks the child (and its local address) serving each
//! request, and an optional link that every request crosses first.
//!
//! - **Cross-socket hop** (CXL+NUMA, Figure 8c/8d) and the Fig 1 switch
//!   hop: one child behind a [`NumaHopConfig`] link.
//! - **Hardware interleaving** (dual CXL-D, Figure 8f): children
//!   rotating at a byte granularity ([`crate::interleave::route`]), no
//!   link.
//! - **Placement split** (§5.7 hot objects on local DRAM): addresses
//!   below a boundary go to the fast child, the rest to the slow child
//!   rebased to 0, no link.
//! - **CXL switch**: interleaved children behind the switch's shared
//!   upstream port, a plain hop link plus a flow-control credit pool.
//!
//! `access` and `observe_slot` share the route, so a tiering layer nested
//! anywhere below sees the addresses its `access` traffic would use;
//! `fast_forward` and `wants_slot_observations` reach every child.

use melody_sim::{CreditPool, ServerPool, SimRng, SimTime};

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::interleave::{local_addr, route};
use crate::numa::NumaHopConfig;
use crate::request::MemRequest;
use crate::switch::SwitchConfig;

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

/// How a composite picks the child that serves an address.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// The one child serves everything.
    One,
    /// Round-robin across the children at this granularity in bytes;
    /// the access reports the child's 1-based index as its `node`.
    Interleave(u64),
    /// `[0, boundary)` to child 0, the rest to child 1 rebased to 0.
    Below(u64),
}

impl Route {
    /// The serving child's index and the address it sees.
    fn pick(self, addr: u64, ways: usize) -> (usize, u64) {
        match self {
            Route::One => (0, addr),
            Route::Interleave(g) => (route(addr, g, ways), local_addr(addr, g, ways)),
            Route::Below(boundary) if addr < boundary => (0, addr),
            Route::Below(boundary) => (1, addr - boundary),
        }
    }
}

/// The link every request crosses before its child: half the hop
/// latency each way, per-direction serialization, burst-triggered
/// congestion, and, on a switch's upstream port, flow-control credits.
struct Link {
    cfg: NumaHopConfig,
    rng: SimRng,
    read: ServerPool,
    write: ServerPool,
    congestion_until: SimTime,
    next_window_allowed: SimTime,
    last_arrival: SimTime,
    /// A switch port's credit pool and the bytes each downstream port
    /// has moved (for its utilization gauge).
    credits: Option<(CreditPool, Vec<u64>)>,
    /// The traffic that crossed the link.
    stats: DeviceStats,
}

impl Link {
    fn new(cfg: NumaHopConfig, seed: u64, credits: Option<(CreditPool, Vec<u64>)>) -> Self {
        Self {
            cfg,
            rng: SimRng::seed_from(seed),
            read: ServerPool::new(1),
            write: ServerPool::new(1),
            congestion_until: 0,
            next_window_allowed: 0,
            last_arrival: 0,
            credits,
            stats: DeviceStats::default(),
        }
    }

    /// Carries `req` across the link to `child`, which serves it at
    /// `addr`; `port` is the child's index.
    fn cross(
        &mut self,
        req: &MemRequest,
        port: usize,
        addr: u64,
        child: &mut dyn MemoryDevice,
    ) -> AccessBreakdown {
        let half = (self.cfg.extra_ns * 500.0) as SimTime;
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
            spike_ps = self.congestion_until - t;
            t = self.congestion_until;
        }

        // A switch port's credit is held for the whole round trip; an
        // exhausted pool stalls the request until a credit returns.
        let granted = match &mut self.credits {
            Some((pool, _)) => pool.acquire(t),
            None => t,
        };

        // Full-duplex serialization: read and write payloads occupy
        // independent directions, each at the link bandwidth.
        let service = (64.0 / self.cfg.upi_gbps * 1_000.0) as SimTime;
        let (start, done) = if req.kind.is_read() {
            self.read.submit(granted, service)
        } else {
            self.write.submit(granted, service)
        };

        // The child sees the request after half the hop latency; its
        // response crosses the other half.
        let inner = child.access(&MemRequest {
            addr,
            issue: done + half,
            ..*req
        });
        let completion = inner.completion + half;
        self.stats.record(req, completion);
        if let Some((pool, port_bytes)) = &mut self.credits {
            pool.release_at(completion);
            port_bytes[port] += 64;
            if melody_telemetry::metrics_on() {
                // Per-node link utilization: the port's achieved
                // bandwidth over the link's active span, as a fraction
                // of the shared upstream capacity.
                let span = req.issue.saturating_sub(self.stats.first_issue);
                if span > 0 {
                    let gbps = port_bytes[port] as f64 / span as f64 * 1_000.0;
                    let gauge = PORT_UTIL_GAUGES[port.min(PORT_UTIL_GAUGES.len() - 1)];
                    melody_telemetry::gauge(gauge, req.issue, gbps / self.cfg.upi_gbps);
                }
                let credit_wait = granted - t;
                if credit_wait > 0 {
                    melody_telemetry::count("fabric.credit_waits", 1);
                    melody_telemetry::record_ns("fabric.credit_wait_ns", credit_wait / 1_000);
                }
            }
        }
        AccessBreakdown {
            completion,
            queue_ps: inner.queue_ps + (start - t),
            fabric_ps: inner.fabric_ps + half * 2 + service,
            spike_ps: inner.spike_ps + spike_ps,
            ..inner
        }
    }
}

/// Built child devices behind one route and an optional link (see
/// module docs). [`crate::DeviceSpec::build`] constructs it for the
/// `Hopped`, `Interleaved`, `Split` and `Switch` specs.
pub struct CompositeDevice {
    children: Vec<Box<dyn MemoryDevice>>,
    route: Route,
    link: Option<Link>,
    name: String,
    nominal_ns: f64,
}

impl CompositeDevice {
    /// `inner` behind a cross-socket or switch hop, named
    /// `<inner>+<label>`. `seed` drives the hop's congestion windows.
    pub fn hop(cfg: NumaHopConfig, label: &str, inner: Box<dyn MemoryDevice>, seed: u64) -> Self {
        Self {
            name: format!("{}+{}", inner.name(), label),
            nominal_ns: inner.nominal_latency_ns() + cfg.extra_ns,
            children: vec![inner],
            route: Route::One,
            link: Some(Link::new(cfg, seed, None)),
        }
    }

    /// Round-robin interleaving of `parts` at `granularity` bytes
    /// (typically 256, as CXL hardware interleaves).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `granularity` is zero.
    pub fn interleaved(parts: Vec<Box<dyn MemoryDevice>>, granularity: u64) -> Self {
        assert!(!parts.is_empty(), "interleave set must be non-empty");
        assert!(granularity > 0, "granularity must be positive");
        Self {
            name: format!("{}x{}", parts[0].name(), parts.len()),
            nominal_ns: mean_nominal_ns(&parts),
            children: parts,
            route: Route::Interleave(granularity),
            link: None,
        }
    }

    /// `[0, boundary)` served by `fast`, the rest by `slow` at
    /// `addr - boundary`, so the slow device sees a dense address space.
    /// Reports the slow tier's nominal latency, the deployment-relevant
    /// worst case.
    pub fn split(fast: Box<dyn MemoryDevice>, slow: Box<dyn MemoryDevice>, boundary: u64) -> Self {
        Self {
            name: format!("{}|{}", fast.name(), slow.name()),
            nominal_ns: slow.nominal_latency_ns(),
            children: vec![fast, slow],
            route: Route::Below(boundary),
            link: None,
        }
    }

    /// `parts` behind a CXL switch: interleaved at `granularity` bytes,
    /// every request crossing the shared upstream port and holding one
    /// of its credits until the data returns.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, `granularity` is zero, or the config
    /// has no credits / non-positive bandwidth.
    pub fn switch(cfg: SwitchConfig, granularity: u64, parts: Vec<Box<dyn MemoryDevice>>) -> Self {
        assert!(!parts.is_empty(), "switch needs at least one downstream");
        assert!(granularity > 0, "granularity must be positive");
        assert!(cfg.credits > 0, "switch needs at least one credit");
        assert!(
            cfg.upstream_gbps > 0.0,
            "upstream bandwidth must be positive"
        );
        let credits = (CreditPool::new(cfg.credits), vec![0; parts.len()]);
        let hop = NumaHopConfig::plain(cfg.latency_ns, cfg.upstream_gbps);
        Self {
            name: format!("{}x{}+Switch", parts[0].name(), parts.len()),
            nominal_ns: mean_nominal_ns(&parts) + cfg.latency_ns,
            children: parts,
            route: Route::Interleave(granularity),
            // A plain link never draws from its RNG, so its seed is moot.
            link: Some(Link::new(hop, 0, Some(credits))),
        }
    }

    /// How many requests found the switch's upstream credits exhausted
    /// and waited for one to return; 0 for composites without credits.
    pub fn credit_shortfalls(&self) -> u64 {
        let credits = self.link.as_ref().and_then(|l| l.credits.as_ref());
        credits.map_or(0, |(pool, _)| pool.shortfalls())
    }
}

impl std::fmt::Debug for CompositeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeDevice")
            .field("name", &self.name)
            .field("route", &self.route)
            .field("children", &self.children.len())
            .finish()
    }
}

fn mean_nominal_ns(parts: &[Box<dyn MemoryDevice>]) -> f64 {
    parts.iter().map(|p| p.nominal_latency_ns()).sum::<f64>() / parts.len() as f64
}

impl MemoryDevice for CompositeDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let (idx, addr) = self.route.pick(req.addr, self.children.len());
        let child = self.children[idx].as_mut();
        let mut out = match &mut self.link {
            Some(link) => link.cross(req, idx, addr, child),
            None => child.access(&MemRequest { addr, ..*req }),
        };
        if let Route::Interleave(_) = self.route {
            out.node = idx as u16 + 1;
        }
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.nominal_ns
    }

    fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for c in &self.children {
            total.merge(&c.stats());
        }
        match &self.link {
            // The link counts the traffic; RAS events happen in the
            // devices behind it.
            Some(link) => DeviceStats {
                ras: total.ras,
                ..link.stats
            },
            None => total,
        }
    }

    fn fast_forward(&mut self, now: SimTime) {
        for c in &mut self.children {
            c.fast_forward(now);
        }
    }

    fn wants_slot_observations(&self) -> bool {
        self.children.iter().any(|c| c.wants_slot_observations())
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: SimTime) {
        let (idx, addr) = self.route.pick(addr, self.children.len());
        self.children[idx].observe_slot(addr, is_store, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::RequestKind;

    fn split(boundary: u64) -> CompositeDevice {
        CompositeDevice::split(
            presets::local_emr().build(1),
            presets::cxl_c().build(2),
            boundary,
        )
    }

    #[test]
    fn split_routes_by_boundary() {
        let mut d = split(1 << 20);
        let fast = d.access(&MemRequest::new(0, RequestKind::DemandRead, 0));
        let slow = d.access(&MemRequest::new(
            1 << 21,
            RequestKind::DemandRead,
            1_000_000,
        ));
        let f_ns = fast.completion as f64 / 1_000.0;
        let s_ns = (slow.completion - 1_000_000) as f64 / 1_000.0;
        assert!(f_ns < 150.0, "fast tier {f_ns} ns");
        assert!(s_ns > 300.0, "slow tier {s_ns} ns");
    }

    #[test]
    fn split_stats_aggregate_both_tiers() {
        let mut d = split(1 << 20);
        d.access(&MemRequest::new(0, RequestKind::DemandRead, 0));
        d.access(&MemRequest::new(1 << 21, RequestKind::WriteBack, 1_000));
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn split_zero_boundary_is_all_slow() {
        let mut d = split(0);
        let a = d.access(&MemRequest::new(64, RequestKind::DemandRead, 0));
        assert!(a.completion as f64 / 1_000.0 > 300.0);
    }
}
