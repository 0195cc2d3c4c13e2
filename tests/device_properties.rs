//! Property-based tests over the device substrate: invariants that must
//! hold for arbitrary request streams and device compositions.

use melody_mem::{presets, DeviceSpec, MemRequest, RequestKind, SwitchConfig};
use proptest::prelude::*;

fn any_device() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(presets::local_emr()),
        Just(presets::numa_emr()),
        Just(presets::cxl_a()),
        Just(presets::cxl_b()),
        Just(presets::cxl_c()),
        Just(presets::cxl_d()),
        Just(presets::cxl_a().with_numa_hop()),
        Just(presets::cxl_d().interleaved(2)),
        Just(presets::cxl_b().with_fast_tier(presets::local_emr(), 1 << 28)),
        Just(presets::cxl_b().with_switch_hop()),
        Just(DeviceSpec::Switch {
            switch: SwitchConfig::default(),
            granularity: 256,
            parts: vec![presets::cxl_b(), presets::cxl_d()],
        }),
    ]
}

fn kind_of(i: u64) -> RequestKind {
    match i % 4 {
        0 => RequestKind::DemandRead,
        1 => RequestKind::PrefetchRead,
        2 => RequestKind::Rfo,
        _ => RequestKind::WriteBack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Completions never precede issues, for any device and any
    /// monotone request stream.
    #[test]
    fn completion_after_issue(
        spec in any_device(),
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..300),
        gap_ps in 100u64..100_000,
    ) {
        let mut dev = spec.build(99);
        let mut t = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let req = MemRequest::new(addr * 64, kind_of(i as u64), t);
            let a = dev.access(&req);
            prop_assert!(a.completion > t, "{}: completion {} <= issue {}", spec.name(), a.completion, t);
            t += gap_ps;
        }
    }

    /// Device stats account for every request exactly once.
    #[test]
    fn stats_conservation(
        spec in any_device(),
        n in 1u64..400,
    ) {
        let mut dev = spec.build(7);
        let mut reads = 0;
        let mut writes = 0;
        for i in 0..n {
            let kind = kind_of(i);
            if kind.is_read() { reads += 1 } else { writes += 1 }
            dev.access(&MemRequest::new(i * 64, kind, i * 10_000));
        }
        let s = dev.stats();
        prop_assert_eq!(s.reads, reads);
        prop_assert_eq!(s.writes, writes);
        prop_assert_eq!(s.requests(), n);
    }

    /// Idle latency is load-free latency: spacing requests far apart
    /// keeps every completion within a bounded factor of nominal.
    #[test]
    fn idle_latency_bounded(
        spec in any_device(),
        addrs in proptest::collection::vec(0u64..(1 << 28), 32..128),
    ) {
        let mut dev = spec.build(3);
        let nominal = spec.nominal_latency_ns();
        let mut t = 0u64;
        let mut worst = 0.0f64;
        for &a in &addrs {
            let r = dev.access(&MemRequest::new(a * 64, RequestKind::DemandRead, t));
            let lat_ns = (r.completion - t) as f64 / 1_000.0;
            worst = worst.max(lat_ns / nominal);
            t += 50_000_000; // 50 µs apart: fully idle
        }
        // Even tail events (retries) are bounded well below 100x nominal.
        prop_assert!(worst < 40.0, "{}: worst {worst}x nominal", spec.name());
    }

    /// The latency breakdown's spike component never exceeds the total
    /// latency.
    #[test]
    fn breakdown_components_bounded(
        spec in any_device(),
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..200),
    ) {
        let mut dev = spec.build(5);
        let mut t = 0u64;
        for &a in &addrs {
            let r = dev.access(&MemRequest::new(a * 64, RequestKind::DemandRead, t));
            let total = r.completion - t;
            prop_assert!(r.spike_ps <= total, "{}: spike {} > total {}", spec.name(), r.spike_ps, total);
            t += 1_000_000;
        }
    }
}
