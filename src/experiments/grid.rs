//! The workload-population grid and every figure derived from it:
//! Figure 8a/8b (slowdown CDFs), Figure 8e (SPR vs EMR), Figure 9a
//! (violin plots over the latency spectrum), Figure 11 (Spa accuracy),
//! Figure 12 (prefetcher shift), Figure 14 (per-workload breakdowns) and
//! Figure 15 (breakdown CDFs).

use melody_spa::{accuracy, prefetch, AccuracyReport};
use melody_stats::{Cdf, ViolinSummary};
use serde::{Deserialize, Serialize};

use crate::report::{Series, TableData};
use crate::runner::{run_pair, PairOutcome, RunOptions};
use crate::testbed::{emr_cxl_setups, full_latency_spectrum, spr_cxl_setups, Setup};

use super::Scale;

/// All pair outcomes for a set of setups over one workload population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridData {
    /// `(setup label, outcomes in workload order)`.
    pub cells: Vec<(String, Vec<PairOutcome>)>,
}

impl GridData {
    /// Outcomes for one setup label.
    pub fn setup(&self, label: &str) -> Option<&[PairOutcome]> {
        self.cells
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }

    /// Slowdown CDF (percent) for one setup.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown.
    pub fn slowdown_cdf(&self, label: &str) -> Cdf {
        let outcomes = self.setup(label).expect("known setup label");
        Cdf::from_samples(outcomes.iter().map(|o| o.slowdown * 100.0))
    }

    /// Figure 8a: slowdown CDF series per setup, `(slowdown %, fraction)`.
    pub fn fig8a(&self) -> Vec<Series> {
        self.cells
            .iter()
            .map(|(label, _)| {
                let cdf = self.slowdown_cdf(label);
                Series::new(label.clone(), cdf.points())
            })
            .collect()
    }

    /// Figure 8b: the p90-and-above region of each slowdown CDF.
    pub fn fig8b(&self) -> Vec<Series> {
        self.fig8a()
            .into_iter()
            .map(|s| {
                let pts = s.points.into_iter().filter(|(_, f)| *f >= 0.9).collect();
                Series::new(s.name, pts)
            })
            .collect()
    }

    /// Figure 9a: violin summaries of slowdowns per setup (percent).
    pub fn fig9a(&self) -> Vec<(String, ViolinSummary)> {
        self.cells
            .iter()
            .map(|(label, outcomes)| {
                let samples: Vec<f64> = outcomes.iter().map(|o| o.slowdown * 100.0).collect();
                (label.clone(), ViolinSummary::from_samples(&samples, 24))
            })
            .collect()
    }

    /// Figure 11: Spa estimator accuracy per setup.
    pub fn fig11(&self, label: &str) -> AccuracyReport {
        let outcomes = self.setup(label).expect("known setup label");
        accuracy(
            outcomes
                .iter()
                .map(|o| (&o.local.counters, &o.target.counters)),
        )
    }

    /// Figure 12a: the L2PF→L1PF miss-shift analysis for one setup.
    ///
    /// Restricted to *single-threaded* workloads, matching the paper's
    /// single-copy SPEC/GAPBS measurements: at multi-threaded streaming
    /// rates the prefetch-buffer budgets bind and cap the L1 prefetcher's
    /// pickup of dropped L2 prefetches, which washes out the y ≈ x
    /// relation (see `DESIGN.md` §5).
    pub fn fig12a(&self, label: &str) -> prefetch::ShiftAnalysis {
        let outcomes = self.setup(label).expect("known setup label");
        let single_threaded: Vec<&PairOutcome> = outcomes
            .iter()
            .filter(|o| {
                melody_workloads::registry::by_name(&o.workload)
                    .map(|w| w.threads == 1)
                    .unwrap_or(false)
            })
            .collect();
        prefetch::shift_analysis(
            single_threaded
                .iter()
                .map(|o| (&o.local.counters, &o.target.counters)),
        )
    }

    /// Figure 12b: per-workload `(L2 slowdown %, L2PF coverage decrease
    /// pp)` points for one setup.
    pub fn fig12b(&self, label: &str) -> Vec<(String, f64, f64)> {
        self.setup(label)
            .expect("known setup label")
            .iter()
            .map(|o| {
                (
                    o.workload.clone(),
                    o.breakdown.l2 * 100.0,
                    prefetch::coverage_decrease_pp(&o.local.counters, &o.target.counters),
                )
            })
            .collect()
    }

    /// Figure 14: per-workload stacked breakdown rows for one setup.
    pub fn fig14(&self, label: &str) -> TableData {
        let mut t = TableData::new(
            format!("fig14: slowdown breakdown ({label}), % of baseline cycles"),
            &[
                "Workload", "DRAM", "L3", "L2", "L1", "Store", "Core", "Other", "Total",
            ],
        );
        for o in self.setup(label).expect("known setup label") {
            let b = &o.breakdown;
            t.push_row(vec![
                o.workload.clone(),
                format!("{:.1}", b.dram * 100.0),
                format!("{:.1}", b.l3 * 100.0),
                format!("{:.1}", b.l2 * 100.0),
                format!("{:.1}", b.l1 * 100.0),
                format!("{:.1}", b.store * 100.0),
                format!("{:.1}", b.core * 100.0),
                format!("{:.1}", b.other * 100.0),
                format!("{:.1}", b.total * 100.0),
            ]);
        }
        t
    }

    /// Figure 15: CDFs of each breakdown component (percent) across all
    /// workloads of one setup.
    pub fn fig15(&self, label: &str) -> Vec<Series> {
        let outcomes = self.setup(label).expect("known setup label");
        let comp = |f: &dyn Fn(&PairOutcome) -> f64, name: &str| {
            let cdf = Cdf::from_samples(outcomes.iter().map(|o| f(o).max(0.0) * 100.0));
            Series::new(name, cdf.points())
        };
        vec![
            comp(&|o| o.breakdown.store, "Store"),
            comp(&|o| o.breakdown.l1, "L1"),
            comp(&|o| o.breakdown.l2, "L2"),
            comp(&|o| o.breakdown.l3, "L3"),
            comp(&|o| o.breakdown.dram, "DRAM"),
        ]
    }
}

/// Runs a grid over the given setups.
///
/// The (setup × workload) cells are flattened into one work list and
/// fanned out over the configured worker pool ([`crate::exec::jobs`]),
/// so all cores stay busy even when there are fewer setups than cores.
/// Each cell's RNG seed derives from its identity alone, so the output
/// is identical to the serial nested loop for any worker count.
pub fn run_grid(setups: &[Setup], scale: Scale) -> GridData {
    let workloads = scale.select_workloads();
    let opts = RunOptions {
        mem_refs: scale.mem_refs(),
        ..Default::default()
    };
    let flat: Vec<(&Setup, &melody_workloads::WorkloadSpec)> = setups
        .iter()
        .flat_map(|s| workloads.iter().map(move |w| (s, w)))
        .collect();
    let outcomes = crate::exec::parallel_map(&flat, |(s, w)| {
        run_pair(&s.platform, &s.local, &s.target, w, &opts)
    });
    let mut rest = outcomes.as_slice();
    let cells = setups
        .iter()
        .map(|s| {
            let (chunk, tail) = rest.split_at(workloads.len());
            rest = tail;
            (s.label.clone(), chunk.to_vec())
        })
        .collect();
    GridData { cells }
}

/// The EMR grid of Figure 8a (NUMA + CXL A–D).
pub fn run_emr_grid(scale: Scale) -> GridData {
    run_grid(&emr_cxl_setups(), scale)
}

/// The SPR/EMR comparison grid of Figure 8e.
pub fn run_fig8e_grid(scale: Scale) -> GridData {
    let mut setups = spr_cxl_setups();
    setups.extend(
        emr_cxl_setups()
            .into_iter()
            .filter(|s| s.label.contains("CXL-A") || s.label.contains("CXL-B")),
    );
    run_grid(&setups, scale)
}

/// The 11-setup latency-spectrum grid of Figure 9a.
pub fn run_spectrum_grid(scale: Scale) -> GridData {
    run_grid(&full_latency_spectrum(), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridData {
        run_emr_grid(Scale::Smoke)
    }

    #[test]
    fn fig8a_device_ordering() {
        let g = grid();
        // Fraction of workloads under 50% slowdown: NUMA best, and the
        // ordering D -> A -> B as latency rises (Finding: slowdowns worsen
        // D -> A -> B -> C).
        let under50 = |l: &str| g.slowdown_cdf(l).fraction_at_or_below(50.0);
        let numa = under50("EMR-NUMA");
        let d = under50("EMR-CXL-D");
        let a = under50("EMR-CXL-A");
        let b = under50("EMR-CXL-B");
        assert!(numa >= d - 0.01, "NUMA {numa} vs D {d}");
        // D's bandwidth advantage dominates at population scale, but its
        // slightly higher idle latency (239 vs 214 ns) lets A edge it on
        // purely latency-bound subsets — allow a small inversion.
        assert!(d >= a - 0.10, "D {d} vs A {a}");
        assert!(a >= b - 0.01, "A {a} vs B {b}");
        // Many workloads tolerate CXL. The paper sees 54% under 10%
        // slowdown on CXL-A at full population scale; the smoke subset is
        // deliberately biased toward the paper's memory-hot pinned
        // workloads, so assert only a loose floor here (the Quick-scale
        // integration test asserts the real target).
        assert!(
            g.slowdown_cdf("EMR-CXL-A").fraction_at_or_below(10.0) >= 0.15,
            "too few CXL-A-tolerant workloads"
        );
    }

    #[test]
    fn fig8b_bandwidth_tail_exists_for_low_bw_devices() {
        let g = grid();
        // The worst CXL-B slowdowns far exceed the worst NUMA slowdowns.
        let b_max = g.slowdown_cdf("EMR-CXL-B").max();
        let numa_max = g.slowdown_cdf("EMR-NUMA").max();
        assert!(
            b_max > numa_max * 1.5,
            "CXL-B tail {b_max}% vs NUMA {numa_max}%"
        );
        assert!(
            b_max > 100.0,
            "bandwidth-bound tail should exceed 2x: {b_max}%"
        );
    }

    #[test]
    fn fig11_spa_accuracy() {
        let g = grid();
        for label in ["EMR-NUMA", "EMR-CXL-A", "EMR-CXL-B"] {
            let r = g.fig11(label);
            let (d, b, m) = r.within_pp(5.0);
            assert!(d > 0.9, "{label}: Δs within 5pp for {d}");
            assert!(b > 0.85, "{label}: backend within 5pp for {b}");
            assert!(m > 0.85, "{label}: memory within 5pp for {m}");
        }
    }

    #[test]
    fn fig14_breakdowns_explain_slowdowns() {
        let g = grid();
        let outcomes = g.setup("EMR-CXL-B").expect("setup");
        for o in outcomes {
            let explained = o.breakdown.attributed() / o.breakdown.total.max(0.01);
            assert!(
                o.breakdown.total < 0.05 || explained > 0.7,
                "{}: only {:.0}% of {:.1}% slowdown attributed",
                o.workload,
                explained * 100.0,
                o.breakdown.total * 100.0
            );
        }
    }

    #[test]
    fn fig9a_violins_capture_spread() {
        let g = grid();
        let violins = g.fig9a();
        assert_eq!(violins.len(), 5);
        for (label, v) in &violins {
            assert!(v.max >= v.median, "{label}");
            assert!(!v.density.is_empty(), "{label}");
        }
    }
}
