//! Figures 8c, 8d and 8f: the CXL+NUMA anomaly and the closing
//! CXL-vs-NUMA gap.
//!
//! - Figure 8c: workload slowdowns under CXL-A+NUMA are *worse* than
//!   under 2-hop NUMA (410 ns) despite better nominal latency/bandwidth.
//! - Figure 8d: `520.omnetpp`'s latency CDF under CXL+NUMA grows a long
//!   tail that shrinks as workload intensity is reduced to 1/2 and 1/4 —
//!   direct evidence that tail latency, not average latency, causes its
//!   2.9× slowdown.
//! - Figure 8f: hardware-interleaving two CXL-D devices doubles bandwidth
//!   and largely closes the gap to NUMA for SPEC CPU 2017.

use melody_cpu::Platform;
use melody_mem::presets;
use melody_workloads::{registry, Suite, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::journal::Journal;
use crate::report::Series;
use crate::runner::{run_pair, RunOptions};

use super::grid::{population, Setup};
use super::Scale;

/// Figure 8c data: slowdown CDFs for CXL-A, 410 ns NUMA, and CXL-A+NUMA.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig08cData {
    /// `(label, slowdown-% CDF points)`.
    pub cdfs: Vec<Series>,
}

/// The setups of Figure 8c: CXL-A, 2-hop NUMA and CXL-A behind a NUMA hop.
const FIG8C: [Setup; 3] = [
    ("CXL-A", Platform::emr2s, presets::cxl_a),
    ("SKX8S-410ns", Platform::skx8s, presets::skx8s_410),
    ("CXL-A+NUMA", Platform::emr2s, || {
        presets::cxl_a().with_numa_hop()
    }),
];

/// Runs Figure 8c over a workload subset (the paper uses 121 workloads),
/// resolving its cells against `journal`.
pub fn fig08c(scale: Scale, journal: &mut Journal) -> Fig08cData {
    let workloads: Vec<WorkloadSpec> = scale
        .select_workloads()
        .into_iter()
        .take(121.min(scale.grid_workloads()))
        .collect();
    let cdfs = population(&FIG8C, &workloads, scale, journal).fig8a();
    Fig08cData { cdfs }
}

/// Figure 8d data: `520.omnetpp` memory-latency CDFs and slowdowns under
/// load scaling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig08dData {
    /// `(label, latency-ns CDF points)` for Local, CXL-A, CXL-A+NUMA at
    /// full, 1/2 and 1/4 intensity.
    pub cdfs: Vec<Series>,
    /// `(label, slowdown %)` for the CXL-A+NUMA intensities.
    pub slowdowns: Vec<(String, f64)>,
}

fn scaled_omnetpp(intensity_div: f64) -> WorkloadSpec {
    let mut w = registry::by_name("520.omnetpp").expect("520.omnetpp");
    w.name = format!("520.omnetpp/{intensity_div}");
    for p in &mut w.phases {
        // Reducing simulated-LAN count lowers memory pressure per unit
        // work: more compute between references.
        p.uops_per_mem *= intensity_div;
    }
    w
}

/// Runs Figure 8d.
pub fn fig08d(scale: Scale) -> Fig08dData {
    let platform = Platform::emr2s();
    let opts = RunOptions {
        mem_refs: scale.mem_refs(),
        ..Default::default()
    };
    let mut cdfs = Vec::new();
    let mut slowdowns = Vec::new();

    let full = registry::by_name("520.omnetpp").expect("omnetpp");
    for (label, spec) in [("Local", presets::local_emr()), ("CXL-A", presets::cxl_a())] {
        let o = run_pair(&platform, &presets::local_emr(), &spec, &full, &opts);
        cdfs.push(Series::new(
            label,
            o.target
                .demand_lat_hist
                .cdf_points()
                .into_iter()
                .map(|(x, y)| (x as f64, y))
                .collect(),
        ));
        if label == "CXL-A" {
            slowdowns.push((label.to_string(), o.slowdown * 100.0));
        }
    }
    for (label, div) in [
        ("CXL-A+NUMA", 1.0),
        ("CXL-A+NUMA 1/2 load", 2.0),
        ("CXL-A+NUMA 1/4 load", 4.0),
    ] {
        let w = scaled_omnetpp(div);
        let o = run_pair(
            &platform,
            &presets::local_emr(),
            &presets::cxl_a().with_numa_hop(),
            &w,
            &opts,
        );
        cdfs.push(Series::new(
            label,
            o.target
                .demand_lat_hist
                .cdf_points()
                .into_iter()
                .map(|(x, y)| (x as f64, y))
                .collect(),
        ));
        slowdowns.push((label.to_string(), o.slowdown * 100.0));
    }
    Fig08dData { cdfs, slowdowns }
}

/// Figure 8f data: SPEC slowdown CDFs for NUMA, CXL-D ×1 and CXL-D ×2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig08fData {
    /// `(label, slowdown-% CDF points)`.
    pub cdfs: Vec<Series>,
}

/// The setups of Figure 8f on the EMR2S' host: NUMA and CXL-D, alone
/// and 2-way interleaved.
const FIG8F: [Setup; 3] = [
    ("NUMA*", Platform::emr2s_prime, presets::numa_emr_prime),
    ("CXL-D x1", Platform::emr2s_prime, presets::cxl_d),
    ("CXL-D x2", Platform::emr2s_prime, || {
        presets::cxl_d().interleaved(2)
    }),
];

/// Runs Figure 8f on the SPEC CPU 2017 suite (EMR2S' host), resolving
/// its cells against `journal`.
pub fn fig08f(scale: Scale, journal: &mut Journal) -> Fig08fData {
    let mut workloads = registry::by_suite(Suite::SpecCpu2017);
    if scale != Scale::Full {
        let keep = (scale.grid_workloads() / 2).max(8);
        let stride = (workloads.len() / keep).max(1);
        workloads = workloads.into_iter().step_by(stride).collect();
    }
    let cdfs = population(&FIG8F, &workloads, scale, journal).fig8a();
    Fig08fData { cdfs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8d_tail_and_load_scaling() {
        let d = fig08d(Scale::Smoke);
        let sd = |label: &str| {
            d.slowdowns
                .iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .1
        };
        // omnetpp tolerates CXL-A but collapses under CXL-A+NUMA...
        assert!(sd("CXL-A") < 25.0, "CXL-A {}", sd("CXL-A"));
        assert!(
            sd("CXL-A+NUMA") > 3.0 * sd("CXL-A").max(1.0),
            "CXL+NUMA {} vs CXL {}",
            sd("CXL-A+NUMA"),
            sd("CXL-A")
        );
        // ...and reducing intensity reduces the slowdown (tail causality).
        assert!(
            sd("CXL-A+NUMA 1/4 load") < sd("CXL-A+NUMA"),
            "1/4 load {} vs full {}",
            sd("CXL-A+NUMA 1/4 load"),
            sd("CXL-A+NUMA")
        );
    }

    #[test]
    fn fig8f_interleaving_closes_the_gap() {
        let d = fig08f(Scale::Smoke, &mut Journal::in_memory());
        let worst = |label: &str| {
            d.cdfs
                .iter()
                .find(|s| s.name == label)
                .expect("series")
                .points
                .iter()
                .map(|p| p.0)
                .fold(0.0, f64::max)
        };
        // Doubling CXL-D bandwidth cuts the worst-case slowdown.
        assert!(
            worst("CXL-D x2") < worst("CXL-D x1"),
            "x2 {} vs x1 {}",
            worst("CXL-D x2"),
            worst("CXL-D x1")
        );
    }
}
