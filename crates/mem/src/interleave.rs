//! Hardware interleaving across multiple devices.
//!
//! Figure 8f of the paper interleaves two CXL-D expanders at the hardware
//! level, doubling bandwidth to 104 GB/s and largely closing the gap to
//! NUMA for bandwidth-bound workloads.

use crate::device::{AccessBreakdown, DeviceStats, MemoryDevice};
use crate::request::MemRequest;

/// Maps an address to the 0-based index of the device that owns it in a
/// `ways`-way interleave at `granularity` bytes.
///
/// This is the routing function hardware interleaving implements in the
/// HDM decoders: consecutive `granularity`-sized blocks rotate
/// round-robin across the members. It is shared by [`InterleavedDevice`]
/// and the switch model ([`crate::SwitchDevice`]) so the property tests
/// can check the partition invariant (every line maps to exactly one
/// device) against the exact production math.
pub fn route(addr: u64, granularity: u64, ways: usize) -> usize {
    ((addr / granularity) % ways as u64) as usize
}

/// Collapses `addr` into the dense local address space of the device
/// that owns it (strips the interleave bits), the inverse companion of
/// [`route`]: `(route(a), local_addr(a))` is a bijection on addresses.
pub fn local_addr(addr: u64, granularity: u64, ways: usize) -> u64 {
    let block = addr / granularity / ways as u64;
    block * granularity + addr % granularity
}

/// Round-robin address interleaving across a set of devices.
pub struct InterleavedDevice {
    parts: Vec<Box<dyn MemoryDevice>>,
    granularity: u64,
    name: String,
}

impl InterleavedDevice {
    /// Interleaves `parts` at `granularity` bytes (typically 256, mirroring
    /// typical CXL hardware interleaving).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `granularity` is zero.
    pub fn new(parts: Vec<Box<dyn MemoryDevice>>, granularity: u64) -> Self {
        assert!(!parts.is_empty(), "interleave set must be non-empty");
        assert!(granularity > 0, "granularity must be positive");
        let name = format!("{}x{}", parts[0].name(), parts.len());
        Self {
            parts,
            granularity,
            name,
        }
    }

    /// Number of interleaved devices.
    pub fn ways(&self) -> usize {
        self.parts.len()
    }
}

impl MemoryDevice for InterleavedDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let idx = route(req.addr, self.granularity, self.parts.len());
        // Strip the interleave bits so each part sees a dense space.
        let local = MemRequest {
            addr: local_addr(req.addr, self.granularity, self.parts.len()),
            ..*req
        };
        let mut out = self.parts[idx].access(&local);
        out.node = idx as u16 + 1;
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
    }

    fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        let mut first = u64::MAX;
        for p in &self.parts {
            let s = p.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.total_read_latency_ps += s.total_read_latency_ps;
            total.last_completion = total.last_completion.max(s.last_completion);
            total.ras.merge(&s.ras);
            if s.requests() > 0 {
                first = first.min(s.first_issue);
            }
        }
        total.first_issue = if first == u64::MAX { 0 } else { first };
        total
    }

    fn fast_forward(&mut self, now: melody_sim::SimTime) {
        for p in &mut self.parts {
            p.fast_forward(now);
        }
    }

    fn wants_slot_observations(&self) -> bool {
        self.parts.iter().any(|p| p.wants_slot_observations())
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: melody_sim::SimTime) {
        let ways = self.parts.len();
        let local = local_addr(addr, self.granularity, ways);
        self.parts[route(addr, self.granularity, ways)].observe_slot(local, is_store, now);
    }
}

impl std::fmt::Debug for InterleavedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterleavedDevice")
            .field("name", &self.name)
            .field("ways", &self.parts.len())
            .field("granularity", &self.granularity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;
    use crate::imc::{ImcConfig, ImcDevice};
    use crate::request::RequestKind;

    fn two_way() -> InterleavedDevice {
        let mk = || {
            Box::new(ImcDevice::new(ImcConfig::calibrated(
                "Part",
                111.0,
                DramTiming::ddr5(),
                1,
            ))) as Box<dyn MemoryDevice>
        };
        InterleavedDevice::new(vec![mk(), mk()], 256)
    }

    #[test]
    fn traffic_splits_across_parts() {
        let mut dev = two_way();
        for i in 0..1_000u64 {
            dev.access(&MemRequest::new(
                i * 256,
                RequestKind::DemandRead,
                i * 1_000,
            ));
        }
        let s = dev.stats();
        assert_eq!(s.reads, 1_000);
    }

    #[test]
    fn interleaving_doubles_throughput() {
        // One part saturates around 1 channel DDR5 (38 GB/s); two
        // interleaved parts should finish a fixed workload almost twice as
        // fast under saturation.
        let run = |mut dev: Box<dyn MemoryDevice>| {
            let mut last = 0;
            for i in 0..20_000u64 {
                let a = dev.access(&MemRequest::new(i * 64, RequestKind::DemandRead, i * 100));
                last = last.max(a.completion);
            }
            last
        };
        let single = Box::new(ImcDevice::new(ImcConfig::calibrated(
            "One",
            111.0,
            DramTiming::ddr5(),
            1,
        ))) as Box<dyn MemoryDevice>;
        let double = Box::new(two_way()) as Box<dyn MemoryDevice>;
        let t1 = run(single);
        let t2 = run(double);
        let speedup = t1 as f64 / t2 as f64;
        assert!(
            (1.6..2.4).contains(&speedup),
            "2-way interleave speedup {speedup}"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_rejected() {
        let _ = InterleavedDevice::new(vec![], 256);
    }
}
