//! CPMU: a CXL Performance Monitoring Unit model.
//!
//! The paper closes its tail-latency investigation (§3.2 "Reasoning")
//! noting that pinpointing tail sources would need "a white-box analysis,
//! breaking down the latency of each memory request across components
//! such as the CXL link, MC, and DRAM chips", which "would require the
//! CXL MC to expose detailed performance counters, potentially through
//! the upcoming CXL Performance Monitoring Unit (CPMU) introduced in
//! CXL 3.0". No such hardware existed for the authors; on a simulated
//! device it does: [`CpmuDevice`] wraps any [`MemoryDevice`] and records
//! per-component latency histograms from each request's
//! [`AccessBreakdown`], enabling exactly that white-box attribution.

use melody_stats::LatencyHistogram;
use serde::{Deserialize, Serialize};

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::request::MemRequest;

/// Per-component latency statistics collected by the CPMU (all ns).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CpmuReport {
    /// End-to-end request latency.
    pub total: LatencyHistogram,
    /// Queueing (link serialization, scheduler, bank/bus conflicts).
    pub queue: LatencyHistogram,
    /// DRAM array + burst time.
    pub dram: LatencyHistogram,
    /// Fixed fabric/controller path.
    pub fabric: LatencyHistogram,
    /// Stochastic events: congestion, jitter, retries, refresh, thermal.
    pub spike: LatencyHistogram,
    /// Row-buffer hits observed.
    pub row_hits: u64,
    /// Row-buffer misses/conflicts observed.
    pub row_misses: u64,
}

impl CpmuReport {
    /// The component with the largest p99.9 contribution — the white-box
    /// answer to "where does this device's tail come from?".
    pub fn dominant_tail_component(&self) -> &'static str {
        let candidates = [
            ("queue", self.queue.percentile(99.9)),
            ("dram", self.dram.percentile(99.9)),
            ("fabric", self.fabric.percentile(99.9)),
            ("spike", self.spike.percentile(99.9)),
        ];
        candidates
            .iter()
            .max_by_key(|(_, v)| *v)
            .map(|(n, _)| *n)
            .unwrap_or("unknown")
    }

    /// Row-buffer hit rate (0..1).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A monitoring wrapper around any memory device.
pub struct CpmuDevice {
    inner: Box<dyn MemoryDevice>,
    report: CpmuReport,
}

impl CpmuDevice {
    /// Attaches a CPMU to `inner`.
    pub fn new(inner: Box<dyn MemoryDevice>) -> Self {
        Self {
            inner,
            report: CpmuReport::default(),
        }
    }

    /// The collected report so far.
    pub fn report(&self) -> &CpmuReport {
        &self.report
    }

    /// Consumes the wrapper, returning the report.
    pub fn into_report(self) -> CpmuReport {
        self.report
    }
}

impl MemoryDevice for CpmuDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let a = self.inner.access(req);
        self.report.total.record(a.latency(req.issue) / 1_000);
        self.report.queue.record(a.queue_ps / 1_000);
        self.report.dram.record(a.dram_ps / 1_000);
        self.report.fabric.record(a.fabric_ps / 1_000);
        self.report.spike.record(a.spike_ps / 1_000);
        if a.row_hit {
            self.report.row_hits += 1;
        } else {
            self.report.row_misses += 1;
        }
        a
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.inner.nominal_latency_ns()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
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

impl std::fmt::Debug for CpmuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpmuDevice")
            .field("inner", &self.inner.name())
            .field("samples", &self.report.total.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::RequestKind;
    use melody_sim::SimRng;

    fn chase(dev: &mut dyn MemoryDevice, n: u64) {
        let mut rng = SimRng::seed_from(0xC931);
        let mut t = 0;
        for _ in 0..n {
            let addr = rng.below(1 << 26) * 64;
            let a = dev.access(&MemRequest::new(addr, RequestKind::DemandRead, t));
            t = a.completion;
        }
    }

    #[test]
    fn cpmu_collects_all_components() {
        let mut dev = CpmuDevice::new(presets::cxl_b().build(1));
        chase(&mut dev, 10_000);
        let r = dev.report();
        assert_eq!(r.total.count(), 10_000);
        assert!(r.dram.mean() > 10.0, "dram component present");
        assert!(r.fabric.mean() > 50.0, "fabric component present");
        assert!(r.row_hits + r.row_misses == 10_000);
    }

    #[test]
    fn white_box_attributes_cxl_c_tail_to_spikes() {
        // The paper could not answer "where do CXL-C's tails come from";
        // the CPMU can: its transaction-layer spikes dominate the p99.9.
        let mut dev = CpmuDevice::new(presets::cxl_c().build(2));
        chase(&mut dev, 40_000);
        assert_eq!(dev.report().dominant_tail_component(), "spike");
    }

    #[test]
    fn local_dram_tail_is_not_spike_dominated() {
        let mut dev = CpmuDevice::new(presets::local_emr().build(3));
        chase(&mut dev, 40_000);
        let r = dev.report();
        // Local DRAM's modest tail comes from the array/refresh, and its
        // spike p99.9 stays bounded by tRFC/3.
        assert!(
            r.spike.percentile(99.9) < 150,
            "local spike tail {}",
            r.spike.percentile(99.9)
        );
    }

    #[test]
    fn transparent_delegation() {
        let mut plain = presets::cxl_a().build(7);
        let mut wrapped = CpmuDevice::new(presets::cxl_a().build(7));
        let req = MemRequest::new(4096, RequestKind::DemandRead, 0);
        let a = plain.access(&req);
        let b = wrapped.access(&req);
        assert_eq!(a.completion, b.completion, "CPMU must not perturb timing");
        assert_eq!(wrapped.name(), "CXL-A");
    }
}
