//! Address-range splitting across two devices (placement/tiering).
//!
//! The paper's §5.7 performance-tuning use case relocates two
//! performance-critical 2 GB objects of `605.mcf` from CXL to local DRAM,
//! cutting the slowdown from 13% to 2%. `SplitDevice` models exactly that
//! deployment: addresses below a boundary are served by the *fast* device
//! (local DRAM), the rest by the *slow* one (CXL).

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::request::MemRequest;

/// Routes requests by address range: `[0, boundary)` → fast device,
/// `[boundary, ∞)` → slow device.
pub struct SplitDevice {
    fast: Box<dyn MemoryDevice>,
    slow: Box<dyn MemoryDevice>,
    boundary: u64,
    name: String,
}

impl SplitDevice {
    /// Creates a split with `boundary` bytes on the fast device.
    pub fn new(fast: Box<dyn MemoryDevice>, slow: Box<dyn MemoryDevice>, boundary: u64) -> Self {
        let name = format!("{}<{}B>|{}", fast.name(), boundary, slow.name());
        Self {
            fast,
            slow,
            boundary,
            name,
        }
    }

    /// The fast/slow boundary in bytes.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }
}

impl MemoryDevice for SplitDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        if req.addr < self.boundary {
            self.fast.access(req)
        } else {
            // Rebase so the slow device sees a dense address space.
            let rebased = MemRequest {
                addr: req.addr - self.boundary,
                ..*req
            };
            self.slow.access(&rebased)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn nominal_latency_ns(&self) -> f64 {
        // Report the slow tier (the deployment-relevant worst case).
        self.slow.nominal_latency_ns()
    }

    fn stats(&self) -> DeviceStats {
        let f = self.fast.stats();
        let s = self.slow.stats();
        let mut ras = f.ras;
        ras.merge(&s.ras);
        DeviceStats {
            reads: f.reads + s.reads,
            writes: f.writes + s.writes,
            total_read_latency_ps: f.total_read_latency_ps + s.total_read_latency_ps,
            first_issue: if f.requests() == 0 {
                s.first_issue
            } else if s.requests() == 0 {
                f.first_issue
            } else {
                f.first_issue.min(s.first_issue)
            },
            last_completion: f.last_completion.max(s.last_completion),
            ras,
        }
    }

    fn fast_forward(&mut self, now: melody_sim::SimTime) {
        self.fast.fast_forward(now);
        self.slow.fast_forward(now);
    }

    fn wants_slot_observations(&self) -> bool {
        self.fast.wants_slot_observations() || self.slow.wants_slot_observations()
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: melody_sim::SimTime) {
        if addr < self.boundary {
            self.fast.observe_slot(addr, is_store, now);
        } else {
            self.slow.observe_slot(addr - self.boundary, is_store, now);
        }
    }
}

impl std::fmt::Debug for SplitDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitDevice")
            .field("name", &self.name)
            .field("boundary", &self.boundary)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::RequestKind;

    fn split(boundary: u64) -> SplitDevice {
        SplitDevice::new(
            presets::local_emr().build(1),
            presets::cxl_c().build(2),
            boundary,
        )
    }

    #[test]
    fn routes_by_boundary() {
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
    fn stats_aggregate_both_tiers() {
        let mut d = split(1 << 20);
        d.access(&MemRequest::new(0, RequestKind::DemandRead, 0));
        d.access(&MemRequest::new(1 << 21, RequestKind::WriteBack, 1_000));
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn zero_boundary_is_all_slow() {
        let mut d = split(0);
        let a = d.access(&MemRequest::new(64, RequestKind::DemandRead, 0));
        assert!(a.completion as f64 / 1_000.0 > 300.0);
    }
}
