//! Serialisable device descriptions.

use serde::{Deserialize, Serialize};

use crate::composite::CompositeDevice;
use crate::cxl::{CxlConfig, CxlDevice};
use crate::device::MemoryDevice;
use crate::faults::FaultConfig;
use crate::imc::{ImcConfig, ImcDevice};
use crate::numa::NumaHopConfig;
use crate::policy::{PolicyKind, TieringConfig};
use crate::switch::SwitchConfig;
use crate::tiering::TieredDevice;

/// A declarative, serialisable description of a memory backend.
///
/// Experiment grids pass `DeviceSpec`s around (they are cheap to clone and
/// can be written into result datasets); each simulation run builds a
/// fresh, stateful device from the spec with [`DeviceSpec::build`], so no
/// queue or RNG state leaks between runs.
///
/// # Example
///
/// ```
/// use melody_mem::presets;
/// let spec = presets::cxl_a().with_numa_hop();
/// assert_eq!(spec.name(), "CXL-A+NUMA");
/// let dev = spec.build(7);
/// assert!(dev.nominal_latency_ns() > 300.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // specs are built once per run, not stored in bulk
pub enum DeviceSpec {
    /// Socket-local DRAM.
    Imc(ImcConfig),
    /// CXL type-3 expander.
    Cxl(CxlConfig),
    /// Any device behind a cross-socket / switch hop.
    Hopped {
        /// Hop parameters.
        hop: NumaHopConfig,
        /// Suffix appended to the inner name (`"+NUMA"`, `"+Switch"`).
        label: String,
        /// The device behind the hop.
        inner: Box<DeviceSpec>,
    },
    /// Hardware interleaving across several devices.
    Interleaved {
        /// Interleave granularity in bytes.
        granularity: u64,
        /// Member devices.
        parts: Vec<DeviceSpec>,
    },
    /// Address-range split (tiering/placement): `[0, boundary)` served by
    /// `fast`, the rest by `slow` — the §5.7 "move hot objects to local
    /// DRAM" deployment.
    Split {
        /// Bytes served by the fast device.
        boundary: u64,
        /// Fast (local) tier.
        fast: Box<DeviceSpec>,
        /// Slow (CXL) tier.
        slow: Box<DeviceSpec>,
    },
    /// Two tiers under online page migration: the whole address space
    /// starts on `slow` and a [`TieringConfig`] policy promotes hot
    /// pages into `fast` at epoch boundaries, costing the copies on the
    /// simulated links (see [`crate::TieredDevice`]). A `static` policy
    /// never constructs this variant — [`DeviceSpec::with_tiering`]
    /// returns the slow spec unchanged, so static-policy specs hash and
    /// simulate byte-identically to policy-free ones.
    Tiered {
        /// Policy and tuning knobs.
        tiering: TieringConfig,
        /// Fast (local DRAM) tier.
        fast: Box<DeviceSpec>,
        /// Slow (CXL) tier, the initial home of every page.
        slow: Box<DeviceSpec>,
    },
    /// Several devices behind a CXL switch: interleaved like
    /// [`DeviceSpec::Interleaved`], but every request also crosses the
    /// switch's shared, credit-limited upstream link, so siblings contend
    /// (see [`CompositeDevice::switch`]). Produced by lowering topology specs
    /// with `switch` nodes ([`crate::topology::TopologySpec`]).
    Switch {
        /// Shared upstream port parameters.
        switch: SwitchConfig,
        /// Interleave granularity across the downstream ports, bytes.
        granularity: u64,
        /// Downstream devices, one per switch port.
        parts: Vec<DeviceSpec>,
    },
}

/// Version stamp of the [`DeviceSpec`] serialization schema *and* of the
/// device models' observable behaviour. Content-addressed result caches
/// (melody's campaign engine) mix this into every cell fingerprint, so
/// bumping it invalidates all cached results built from device specs.
///
/// Bump it whenever a change alters what a spec means: a field is
/// added/renamed/reinterpreted, a preset's parameters move, or a device
/// model's output changes for the same spec + seed.
pub const SPEC_SCHEMA_VERSION: u32 = 1;

impl DeviceSpec {
    /// Canonical serialized form of this spec: the compact serde-JSON
    /// encoding, which is deterministic (fields serialize in declaration
    /// order, floats use shortest-round-trip formatting). Cache
    /// fingerprints hash this string together with
    /// [`SPEC_SCHEMA_VERSION`].
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("DeviceSpec serializes")
    }

    /// Instantiates a fresh device with deterministic `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn MemoryDevice> {
        // Children of the same composite get distinct seed offsets.
        let build_parts = |parts: &[DeviceSpec], offset: u64| {
            parts
                .iter()
                .enumerate()
                .map(|(i, p)| p.build(seed.wrapping_add(offset + i as u64)))
                .collect()
        };
        match self {
            DeviceSpec::Imc(cfg) => Box::new(ImcDevice::new(cfg.clone())),
            DeviceSpec::Cxl(cfg) => Box::new(CxlDevice::new(cfg.clone(), seed)),
            DeviceSpec::Hopped { hop, label, inner } => Box::new(CompositeDevice::hop(
                hop.clone(),
                label,
                inner.build(seed.wrapping_add(1)),
                seed,
            )),
            DeviceSpec::Interleaved { granularity, parts } => Box::new(
                CompositeDevice::interleaved(build_parts(parts, 100), *granularity),
            ),
            DeviceSpec::Split {
                boundary,
                fast,
                slow,
            } => Box::new(CompositeDevice::split(
                fast.build(seed.wrapping_add(2)),
                slow.build(seed.wrapping_add(3)),
                *boundary,
            )),
            DeviceSpec::Tiered {
                tiering,
                fast,
                slow,
            } => Box::new(TieredDevice::new(
                tiering.clone(),
                fast.build(seed.wrapping_add(4)),
                slow.build(seed.wrapping_add(5)),
                slow.analytic_profile().total_gbps,
            )),
            DeviceSpec::Switch {
                switch,
                granularity,
                parts,
            } => Box::new(CompositeDevice::switch(
                switch.clone(),
                *granularity,
                build_parts(parts, 200),
            )),
        }
    }

    /// The name the built device will report.
    pub fn name(&self) -> String {
        match self {
            DeviceSpec::Imc(cfg) => cfg.name.clone(),
            DeviceSpec::Cxl(cfg) => cfg.name.clone(),
            DeviceSpec::Hopped { label, inner, .. } => format!("{}+{}", inner.name(), label),
            DeviceSpec::Interleaved { parts, .. } => {
                format!("{}x{}", parts[0].name(), parts.len())
            }
            DeviceSpec::Split { fast, slow, .. } => {
                format!("{}|{}", fast.name(), slow.name())
            }
            DeviceSpec::Tiered {
                tiering,
                fast,
                slow,
            } => format!("{}>{}[{}]", fast.name(), slow.name(), tiering.policy.name()),
            DeviceSpec::Switch { parts, .. } => {
                format!("{}x{}+Switch", parts[0].name(), parts.len())
            }
        }
    }

    /// Nominal idle latency of the described device in ns: its
    /// [`AnalyticProfile::idle_latency_ns`].
    pub fn nominal_latency_ns(&self) -> f64 {
        self.analytic_profile().idle_latency_ns
    }

    /// Wraps this spec behind the device-appropriate cross-socket hop
    /// (Table 1 "Remote" columns): CXL devices get the tail-amplifying
    /// coupled hop; plain DRAM gets a well-behaved one.
    pub fn with_numa_hop(self) -> DeviceSpec {
        let (extra_ns, upi_gbps, coupled) = match &self {
            DeviceSpec::Cxl(cfg) => {
                // Table 1 Remote−Local latency deltas per device.
                let extra = match cfg.name.as_str() {
                    "CXL-A" => 161.0,
                    "CXL-B" => 202.0,
                    "CXL-C" => 227.0,
                    "CXL-D" => 94.0,
                    _ => 160.0,
                };
                (extra, 14.0, true)
            }
            _ => (82.0, 120.0, false),
        };
        let hop = if coupled {
            NumaHopConfig::cxl_coupled(extra_ns, upi_gbps)
        } else {
            NumaHopConfig::plain(extra_ns, upi_gbps)
        };
        DeviceSpec::Hopped {
            hop,
            label: "NUMA".into(),
            inner: Box::new(self),
        }
    }

    /// Wraps this spec behind a CXL switch hop (Figure 1's `CXL+Switch`
    /// point, ~600 ns total from public Samsung CMM-B data).
    pub fn with_switch_hop(self) -> DeviceSpec {
        DeviceSpec::Hopped {
            hop: NumaHopConfig::plain(190.0, 60.0),
            label: "Switch".into(),
            inner: Box::new(self),
        }
    }

    /// Interleaves `ways` copies of this spec at 256 B granularity
    /// (Figure 8f's dual CXL-D configuration).
    pub fn interleaved(self, ways: usize) -> DeviceSpec {
        DeviceSpec::Interleaved {
            granularity: 256,
            parts: vec![self; ways.max(1)],
        }
    }

    /// Attaches a fault-injection regime (see [`crate::faults`]) to every
    /// CXL device in this spec tree, replacing any per-node regime; an
    /// inert one ([`FaultConfig::none`]) returns the spec unchanged. Non-CXL
    /// components (local DRAM, the hop itself) are unchanged — faults model
    /// expander-side mechanisms.
    pub fn with_faults(mut self, faults: FaultConfig) -> DeviceSpec {
        if !faults.is_inert() {
            self.attach_faults(&faults);
        }
        self
    }

    fn attach_faults(&mut self, faults: &FaultConfig) {
        let children: Vec<&mut DeviceSpec> = match self {
            DeviceSpec::Imc(_) => vec![],
            DeviceSpec::Cxl(cfg) => {
                cfg.faults = Some(faults.clone());
                vec![]
            }
            DeviceSpec::Hopped { inner, .. } => vec![inner],
            DeviceSpec::Interleaved { parts, .. } | DeviceSpec::Switch { parts, .. } => {
                parts.iter_mut().collect()
            }
            DeviceSpec::Split { fast, slow, .. } | DeviceSpec::Tiered { fast, slow, .. } => {
                vec![fast, slow]
            }
        };
        for child in children {
            child.attach_faults(faults);
        }
    }

    /// Places the first `boundary` bytes of this device's address space
    /// on `fast` local memory instead (the §5.7 placement-tuning
    /// deployment).
    pub fn with_fast_tier(self, fast: DeviceSpec, boundary: u64) -> DeviceSpec {
        DeviceSpec::Split {
            boundary,
            fast: Box::new(fast),
            slow: Box::new(self),
        }
    }

    /// Puts this device (as the slow tier) under an online migration
    /// policy with `fast` local memory (ROADMAP item 4). The `static`
    /// policy attaches nothing — the spec comes back unchanged, so a
    /// static-policy campaign cell hashes and simulates byte-identically
    /// to a policy-free one (the same convention as inert fault
    /// regimes).
    pub fn with_tiering(self, tiering: TieringConfig, fast: DeviceSpec) -> DeviceSpec {
        if tiering.policy == PolicyKind::Static {
            return self;
        }
        DeviceSpec::Tiered {
            tiering,
            fast: Box::new(fast),
            slow: Box::new(self),
        }
    }

    /// Derives the closed-form device summary the `fast` fidelity tier's
    /// interval model runs on: idle latency, aggregate capacity, and the
    /// bottleneck queueing station's shape (server count + mean service
    /// time). No device is instantiated and no RNG is consumed — the
    /// profile is a pure function of the spec.
    pub fn analytic_profile(&self) -> AnalyticProfile {
        match self {
            DeviceSpec::Imc(cfg) => {
                // The IMC's bottleneck is the DRAM array: one 64 B burst
                // per channel at a time.
                let total_gbps = ImcDevice::new(cfg.clone()).peak_bandwidth_gbps();
                AnalyticProfile {
                    idle_latency_ns: cfg.idle_latency_ns(),
                    total_gbps,
                    servers: cfg.channels.max(1),
                    service_ns: cfg.timing.burst_ns,
                }
            }
            DeviceSpec::Cxl(cfg) => AnalyticProfile {
                idle_latency_ns: cfg.idle_latency_ns(),
                total_gbps: cfg.capacity_gbps(),
                servers: cfg.sched_slots.max(1),
                service_ns: cfg.sched_service_ns.mean(),
            },
            DeviceSpec::Hopped { hop, inner, .. } => inner
                .analytic_profile()
                .behind_link(hop.extra_ns, hop.upi_gbps),
            DeviceSpec::Interleaved { parts, .. } => AnalyticProfile::interleaved(parts),
            // Conservative: steady-state traffic is dominated by the
            // capacity tier (the slow device holds the bulk of the
            // address space), so the analytical model prices every access
            // at the slow tier. The same holds under tiering: the
            // adaptive policies only ever improve on that.
            DeviceSpec::Split { slow, .. } | DeviceSpec::Tiered { slow, .. } => {
                slow.analytic_profile()
            }
            // Aggregate capacity is whichever is tighter: the sum of the
            // downstream devices or the shared upstream port they all
            // squeeze through.
            DeviceSpec::Switch { switch, parts, .. } => AnalyticProfile::interleaved(parts)
                .behind_link(switch.latency_ns, switch.upstream_gbps),
        }
    }
}

/// Closed-form device summary used by the `fast` fidelity tier (see
/// [`DeviceSpec::analytic_profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticProfile {
    /// Unloaded (row-miss) latency in ns.
    pub idle_latency_ns: f64,
    /// Aggregate sustainable bandwidth in GB/s.
    pub total_gbps: f64,
    /// Parallel servers at the bottleneck queueing station.
    pub servers: usize,
    /// Mean service time per 64 B request at that station, ns.
    pub service_ns: f64,
}

impl AnalyticProfile {
    /// Interleaved `parts`: mean latency and service time, summed
    /// capacity and servers.
    fn interleaved(parts: &[DeviceSpec]) -> Self {
        let profiles: Vec<AnalyticProfile> = parts.iter().map(|p| p.analytic_profile()).collect();
        let n = profiles.len().max(1) as f64;
        AnalyticProfile {
            idle_latency_ns: profiles.iter().map(|p| p.idle_latency_ns).sum::<f64>() / n,
            total_gbps: profiles.iter().map(|p| p.total_gbps).sum(),
            servers: profiles.iter().map(|p| p.servers).sum::<usize>().max(1),
            service_ns: profiles.iter().map(|p| p.service_ns).sum::<f64>() / n,
        }
    }

    /// This device behind a link of `extra_ns` added latency that
    /// serializes each direction at `gbps`, capping capacity there.
    fn behind_link(self, extra_ns: f64, gbps: f64) -> Self {
        AnalyticProfile {
            idle_latency_ns: self.idle_latency_ns + extra_ns,
            total_gbps: self.total_gbps.min(gbps),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn build_all_preset_shapes() {
        for spec in [
            presets::local_emr(),
            presets::numa_emr(),
            presets::cxl_a(),
            presets::cxl_b(),
            presets::cxl_c(),
            presets::cxl_d(),
            presets::cxl_a().with_numa_hop(),
            presets::cxl_d().interleaved(2),
            presets::cxl_a().with_switch_hop(),
        ] {
            let dev = spec.build(1);
            assert!(!dev.name().is_empty());
            assert!(dev.nominal_latency_ns() > 0.0);
        }
    }

    #[test]
    fn names_compose() {
        assert_eq!(presets::cxl_a().with_numa_hop().name(), "CXL-A+NUMA");
        assert_eq!(presets::cxl_d().interleaved(2).name(), "CXL-Dx2");
        assert_eq!(presets::cxl_a().with_switch_hop().name(), "CXL-A+Switch");
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = presets::cxl_b().with_numa_hop();
        let json = serde_json::to_string(&spec).expect("serialise");
        let back: DeviceSpec = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(spec, back);
    }

    #[test]
    fn with_faults_reaches_nested_cxl_configs() {
        let spec = presets::cxl_a()
            .with_numa_hop()
            .with_faults(FaultConfig::poison());
        match &spec {
            DeviceSpec::Hopped { inner, .. } => match inner.as_ref() {
                DeviceSpec::Cxl(cfg) => assert!(cfg.faults.is_some()),
                other => panic!("expected Cxl inner, got {other:?}"),
            },
            other => panic!("expected Hopped, got {other:?}"),
        }
        // Faulted specs still build and serialise.
        let json = serde_json::to_string(&spec).expect("serialise");
        let back: DeviceSpec = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(spec, back);
        let _ = spec.build(3);
    }

    #[test]
    fn unfaulted_spec_serialisation_has_no_fault_field() {
        // skip_serializing_if keeps pre-fault-layer JSON byte-identical.
        let json = serde_json::to_string(&presets::cxl_b()).expect("serialise");
        assert!(!json.contains("faults"), "{json}");
    }

    #[test]
    fn split_spec_builds_and_names() {
        let spec = presets::cxl_c().with_fast_tier(presets::local_emr(), 1 << 30);
        assert_eq!(spec.name(), "Local|CXL-C");
        let dev = spec.build(5);
        assert!(dev.nominal_latency_ns() > 300.0);
    }

    #[test]
    fn analytic_profiles_match_nominal_latency() {
        for spec in [
            presets::local_emr(),
            presets::cxl_a(),
            presets::cxl_b(),
            presets::cxl_a().with_numa_hop(),
            presets::cxl_d().interleaved(2),
            presets::cxl_c().with_fast_tier(presets::local_emr(), 1 << 30),
        ] {
            let p = spec.analytic_profile();
            assert!(p.total_gbps > 0.0, "{}", spec.name());
            assert!(p.servers >= 1);
            assert!(p.service_ns > 0.0);
        }
        // Interleaving doubles capacity; a hop caps it at the UPI link.
        let one = presets::cxl_d().analytic_profile();
        let two = presets::cxl_d().interleaved(2).analytic_profile();
        assert!((two.total_gbps - 2.0 * one.total_gbps).abs() < 1e-9);
        let hopped = presets::cxl_a().with_numa_hop().analytic_profile();
        assert!(hopped.total_gbps <= 14.0 + 1e-9);
    }

    /// One spec of every shape: each leaf, each hop label, each
    /// composite, and an interleave over a CXL+NUMA hop and a switch.
    fn every_shape() -> Vec<DeviceSpec> {
        let topology: crate::TopologySpec = serde_json::from_str(
            r#"{"name": "sw", "nodes": [{"id": "h", "kind": "host"},
                {"id": "s", "kind": "switch"},
                {"id": "a", "kind": "expander", "device": "cxl-a"},
                {"id": "b", "kind": "expander", "device": "cxl-b"}],
              "edges": [{"from": "h", "to": "s"}, {"from": "s", "to": "a"},
                {"from": "s", "to": "b"}]}"#,
        )
        .expect("valid JSON");
        let switch = topology.validate().expect("valid").lower();
        assert!(matches!(switch, DeviceSpec::Switch { .. }), "{switch:?}");
        let tiering = TieringConfig::new(PolicyKind::LruHotness);
        vec![
            presets::local_emr(),
            presets::cxl_b(),
            presets::cxl_a().with_numa_hop(),
            presets::cxl_b().with_switch_hop(),
            presets::cxl_d().interleaved(2),
            presets::cxl_c().with_fast_tier(presets::local_emr(), 1 << 30),
            presets::cxl_b().with_tiering(tiering, presets::local_emr()),
            switch.clone(),
            DeviceSpec::Interleaved {
                granularity: 256,
                parts: vec![presets::cxl_a().with_numa_hop(), switch],
            },
        ]
    }

    #[test]
    fn built_devices_report_their_spec_name_and_latency() {
        for spec in every_shape() {
            let dev = spec.build(9);
            assert_eq!(dev.name(), spec.name());
            assert_eq!(
                dev.nominal_latency_ns(),
                spec.nominal_latency_ns(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn fast_forward_reaches_every_faulted_child() {
        for spec in every_shape() {
            let tiered = matches!(spec, DeviceSpec::Tiered { .. });
            let has_cxl = !matches!(spec, DeviceSpec::Imc(_));
            let mut dev = spec.with_faults(FaultConfig::link_retrain()).build(9);
            assert_eq!(dev.wants_slot_observations(), tiered, "{}", dev.name());
            dev.fast_forward(50_000_000_000); // 50 ms, no traffic
            let retrains = dev.stats().ras.retrains;
            assert_eq!(retrains > 0, has_cxl, "{}: {retrains}", dev.name());
        }
    }

    #[test]
    fn inert_faults_leave_every_spec_unchanged() {
        let poisoned: crate::TopologySpec = serde_json::from_str(
            r#"{"name": "p", "nodes": [{"id": "h", "kind": "host"},
                {"id": "a", "kind": "expander", "device": "cxl-a", "faults": "poison"}],
              "edges": [{"from": "h", "to": "a"}]}"#,
        )
        .expect("valid JSON");
        let poisoned = poisoned.validate().expect("valid").lower();
        assert!(poisoned.canonical_json().contains("poison"), "{poisoned:?}");
        for spec in every_shape().into_iter().chain([poisoned]) {
            let json = spec.canonical_json();
            assert_eq!(spec.with_faults(FaultConfig::none()).canonical_json(), json);
        }
    }

    #[test]
    fn numa_hop_latency_matches_table1() {
        // CXL-A local 214 ns, remote 375 ns (+161).
        let spec = presets::cxl_a().with_numa_hop();
        assert!((spec.nominal_latency_ns() - 375.0).abs() < 2.0);
        // CXL-D local 239 ns, remote 333 ns (+94).
        let spec = presets::cxl_d().with_numa_hop();
        assert!((spec.nominal_latency_ns() - 333.0).abs() < 2.0);
    }
}
