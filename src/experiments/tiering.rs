//! Online tiering-policy comparison: per-policy slowdown vs all-local
//! on a phased hot/cold workload over CXL.
//!
//! The paper's placement tuning (§5.7) is *offline*: profile, find the
//! hot object, pin it to local DRAM, re-run. This experiment asks what
//! an *online* page-migration layer recovers without a profiling pass:
//! every [`melody_mem::PolicyKind`] runs the same phased workload over
//! a [`melody_mem::TieredDevice`] whose fast tier is the platform's
//! local DRAM and whose slow tier is a CXL expander, and each policy's
//! slowdown vs the all-local baseline is reported next to the static
//! (all-CXL) placement it must beat and the all-local bound it cannot.
//! Migration traffic is costed on the simulated link — each migrated
//! page is a real 4 KiB read+write request stream competing with demand
//! traffic — so a policy that migrates too eagerly pays for it.

use melody_cpu::{Fidelity, Platform, SamplingParams};
use melody_mem::{presets, DeviceSpec, PolicyKind, TieringConfig, POLICIES};
use melody_workloads::{Pattern, Phase, Suite, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::report::TableData;
use crate::runner::{run_pair, RunOptions};

use super::Scale;

/// The phased hot/cold workload the comparison runs: two equal phases
/// whose hot set grows mid-run (24 MiB → 48 MiB at the base of a
/// 192 MiB working set), so a competent tracker must keep promoting
/// after the phase change. Both hot sets exceed the skx2s L3
/// (13.8 MiB), so hot misses genuinely reach the device.
pub fn phased_workload() -> WorkloadSpec {
    let mut w = WorkloadSpec::single(
        "tiering-phased",
        Suite::CloudSuite,
        Phase {
            weight: 0.5,
            uops_per_mem: 4.0,
            dependence: 0.6,
            working_set: 192 << 20,
            seq_frac: 0.05,
            pattern: Pattern::Skewed {
                hot_frac: 0.95,
                hot_bytes: 24 << 20,
            },
            store_frac: 0.10,
        },
    );
    w.phases.push(Phase {
        pattern: Pattern::Skewed {
            hot_frac: 0.95,
            hot_bytes: 48 << 20,
        },
        ..w.phases[0]
    });
    w
}

/// The tiering config the comparison (and the differential test suite)
/// uses: default 4 KiB pages, but longer epochs (enough touches land in
/// each for hotness and CLOCK's two-epoch filter at smoke-scale
/// reference counts), a single-touch hotness threshold, and a 12 GB/s
/// migration budget — roughly half the CXL-B link, so copy bursts pace
/// onto the link instead of piling up behind it.
pub fn tiering_config(policy: PolicyKind) -> TieringConfig {
    let mut tc = TieringConfig::new(policy);
    tc.epoch_ns = 200_000;
    tc.hot_touches = 1;
    tc.migrate_budget_gbps = 12.0;
    tc
}

/// One policy's outcome on the phased workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieringRow {
    /// Policy keyword (see [`POLICIES`]).
    pub policy: String,
    /// Slowdown vs the all-local baseline (fraction).
    pub slowdown: f64,
    /// Target demand-load p99.9 latency, ns.
    pub target_p999_ns: u64,
    /// Pages migrated (0 for `static`; from `tier.migrations_total`).
    pub migrations: u64,
    /// Bytes migrated (from `tier.migrated_bytes`).
    pub migrated_bytes: u64,
}

/// The tiering-policy comparison result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieringData {
    /// Platform keyword the comparison ran on.
    pub platform: String,
    /// Slow-tier device keyword.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// One row per policy, in [`POLICIES`] order.
    pub rows: Vec<TieringRow>,
}

impl TieringData {
    /// The row for `policy`, if present.
    pub fn row(&self, policy: &str) -> Option<&TieringRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Renders the per-policy table.
    pub fn render(&self) -> String {
        let mut t = TableData::new(
            format!(
                "tiering: {} on {} over {} (slowdown vs all-local)",
                self.workload, self.platform, self.device
            ),
            &["Policy", "Slowdown", "p99.9(ns)", "Migrations", "MiB moved"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.policy.clone(),
                format!("{:.1}%", r.slowdown * 100.0),
                r.target_p999_ns.to_string(),
                r.migrations.to_string(),
                format!("{:.1}", r.migrated_bytes as f64 / (1 << 20) as f64),
            ]);
        }
        t.render()
    }
}

/// Runs the per-policy comparison on skx2s (the smallest L3, so the
/// phased hot sets overflow cache) over CXL-B at the given `fidelity`
/// tier (`sampling` schedules the sampled tier). Every policy sees the
/// identical slot stream; tier telemetry is captured privately per
/// policy so migration counts land in the rows whatever the process
/// telemetry mode is.
pub fn run(scale: Scale, fidelity: Fidelity, sampling: SamplingParams) -> TieringData {
    let platform = Platform::skx2s();
    let local = crate::campaign::local_for_platform(&platform);
    let cxl = presets::cxl_b();
    let w = phased_workload();
    let opts = RunOptions {
        mem_refs: scale.mem_refs() * 8,
        fidelity,
        sampling,
        ..Default::default()
    };
    let cells: Vec<&str> = POLICIES.to_vec();
    let rows = crate::exec::parallel_map(&cells, |name| {
        let kind = PolicyKind::parse(name).expect("registry policy parses");
        let target: DeviceSpec = cxl
            .clone()
            .with_tiering(tiering_config(kind), local.clone());
        let (pair, _events, _dropped, metrics) =
            crate::exec::traced(|| run_pair(&platform, &local, &target, &w, &opts));
        let counter = |key: &str| metrics.counters.get(key).copied().unwrap_or(0);
        TieringRow {
            policy: name.to_string(),
            slowdown: pair.slowdown,
            target_p999_ns: pair.target.demand_lat_hist.percentile(99.9),
            migrations: counter("tier.migrations_total"),
            migrated_bytes: counter("tier.migrated_bytes"),
        }
    });
    TieringData {
        platform: "skx2s".to_string(),
        device: "cxl-b".to_string(),
        workload: w.name,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_policies_beat_static_and_never_local() {
        let d = run(Scale::Smoke, Fidelity::Detailed, SamplingParams::default());
        let staticr = d.row("static").expect("static row");
        assert_eq!(staticr.migrations, 0, "static never migrates");
        assert!(
            staticr.slowdown > 0.10,
            "phased workload on CXL-B should slow >10%: {}",
            staticr.slowdown
        );
        for name in ["lru-hotness", "clock"] {
            let r = d.row(name).expect("adaptive row");
            assert!(r.migrations > 0, "{name} should migrate");
            assert_eq!(r.migrated_bytes, r.migrations * 4096, "{name} page math");
            assert!(
                r.slowdown < staticr.slowdown * 0.75,
                "{name} should recover >25% of static slowdown: {} vs {}",
                r.slowdown,
                staticr.slowdown
            );
            assert!(
                r.slowdown > -0.005,
                "{name} cannot beat all-local: {}",
                r.slowdown
            );
        }
    }
}
