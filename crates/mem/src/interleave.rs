//! Hardware interleaving's address math.
//!
//! Figure 8f of the paper interleaves two CXL-D expanders at the hardware
//! level, doubling bandwidth to 104 GB/s and largely closing the gap to
//! NUMA for bandwidth-bound workloads. The interleaved device itself is
//! a [`crate::CompositeDevice::interleaved`]; a switch
//! ([`crate::CompositeDevice::switch`]) routes its downstream ports with
//! the same two functions.

/// Maps an address to the 0-based index of the device that owns it in a
/// `ways`-way interleave at `granularity` bytes.
///
/// This is the routing function hardware interleaving implements in the
/// HDM decoders: consecutive `granularity`-sized blocks rotate
/// round-robin across the members. Interleaved and switched composites
/// both route with it, so the property tests can check the partition
/// invariant (every line maps to exactly one device) against the exact
/// production math.
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

#[cfg(test)]
mod tests {
    use crate::dram::DramTiming;
    use crate::imc::{ImcConfig, ImcDevice};
    use crate::request::{MemRequest, RequestKind};
    use crate::{CompositeDevice, MemoryDevice};

    fn two_way() -> CompositeDevice {
        let mk = || {
            Box::new(ImcDevice::new(ImcConfig::calibrated(
                "Part",
                111.0,
                DramTiming::ddr5(),
                1,
            ))) as Box<dyn MemoryDevice>
        };
        CompositeDevice::interleaved(vec![mk(), mk()], 256)
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
        let _ = CompositeDevice::interleaved(vec![], 256);
    }
}
