//! §5.7 performance-tuning use case: Spa-guided memory placement.
//!
//! The paper mitigates `605.mcf`'s slowdown bursts by locating the
//! memory accessed during bursty periods (via Pin + addr2line), finding
//! two performance-critical 2 GB objects, and relocating them to local
//! DRAM — cutting the overall slowdown from 13% to 2%. The simulated
//! equivalent: identify bursty periods with the period-based Spa
//! analysis, attribute them to the hot address region, and re-run with
//! a [`melody_mem::DeviceSpec::Split`] device that serves that region
//! from local DRAM.

use melody_cpu::Platform;
use melody_mem::{presets, DeviceSpec};
use melody_spa::period::analyze;
use melody_workloads::registry;
use serde::{Deserialize, Serialize};

use crate::runner::{run_pair, run_workload, RunOptions};

use super::Scale;

/// Placement-tuning result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementData {
    /// Workload name.
    pub workload: String,
    /// Slowdown with everything on CXL (fraction).
    pub baseline_slowdown: f64,
    /// Slowdown after moving the hot region to local DRAM.
    pub tuned_slowdown: f64,
    /// Bytes relocated to local DRAM.
    pub boundary_bytes: u64,
    /// Number of bursty periods (slowdown > 10%) found by Spa.
    pub bursty_periods: usize,
    /// Total analysed periods.
    pub total_periods: usize,
}

/// Runs the placement-tuning use case on `605.mcf` over CXL-B.
pub fn run(scale: Scale) -> PlacementData {
    let platform = Platform::emr2s();
    let w = registry::by_name("605.mcf").expect("605.mcf");
    let opts = RunOptions {
        mem_refs: scale.mem_refs(),
        sample_interval_ns: Some(5_000),
        ..Default::default()
    };
    let cxl = presets::cxl_b();

    // Step 1: measure and locate bursts (the paper's Spa + Pin step).
    // The baseline and CXL runs are independent; run them side by side.
    let specs = [presets::local_emr(), cxl.clone()];
    let mut runs =
        crate::exec::parallel_map(&specs, |spec| run_workload(&platform, spec, &w, &opts));
    let cxl_run = runs.pop().expect("two runs");
    let local_run = runs.pop().expect("two runs");
    let baseline_slowdown = cxl_run.slowdown_vs(&local_run);
    let period = (local_run.counters.instructions / 40).max(1);
    let analysis = analyze(&local_run.samples, &cxl_run.samples, period);
    let bursty = analysis.bursty_periods(0.10);

    // Step 2: the bursty periods belong to the large pointer-chased
    // region; relocate the hottest 3/4 of the working set to local DRAM.
    let ws: u64 = w
        .phases
        .iter()
        .map(|p| p.working_set)
        .max()
        .expect("phases");
    let boundary = ws / 4 * 3;
    let tuned_spec: DeviceSpec = cxl.with_fast_tier(presets::local_emr(), boundary);
    let tuned = run_pair(&platform, &presets::local_emr(), &tuned_spec, &w, &opts);

    PlacementData {
        workload: w.name,
        baseline_slowdown,
        tuned_slowdown: tuned.slowdown,
        boundary_bytes: boundary,
        bursty_periods: bursty.len(),
        total_periods: analysis.periods.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_recovers_most_of_the_slowdown() {
        let d = run(Scale::Smoke);
        assert!(
            d.baseline_slowdown > 0.10,
            "mcf on CXL-B should slow >10%: {}",
            d.baseline_slowdown
        );
        assert!(d.bursty_periods > 0, "Spa should find bursty periods");
        // Paper: 13% -> 2%. Shape target: at least a 2.5x reduction.
        assert!(
            d.tuned_slowdown < d.baseline_slowdown / 2.5,
            "placement should cut the slowdown: {} -> {}",
            d.baseline_slowdown,
            d.tuned_slowdown
        );
    }
}
