//! The workload-population grid and every figure derived from it:
//! Figure 8a/8b (slowdown CDFs), Figure 8e (SPR vs EMR), Figure 9a
//! (violin plots over the latency spectrum), Figure 11 (Spa accuracy),
//! Figure 12 (prefetcher shift), Figure 14 (per-workload breakdowns) and
//! Figure 15 (breakdown CDFs).
//!
//! A population is a table of [`Setup`]s times a workload list. Its
//! cells are campaign cells, keyed as `melody campaign` keys the same
//! configuration, and [`population`] resolves them against a
//! caller-owned [`Journal`]: figures that share one journal simulate
//! each distinct cell once.

use std::sync::Arc;

use melody_cpu::Platform;
use melody_mem::{presets, DeviceSpec};
use melody_spa::{accuracy, prefetch, AccuracyReport};
use melody_stats::{Cdf, ViolinSummary};
use melody_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::{self, local_for_platform, Axis, CampaignCell, Draft};
use crate::exec::CellPolicy;
use crate::journal::Journal;
use crate::report::{Series, TableData};
use crate::runner::{PairOutcome, RunOptions};

use super::Scale;

/// One testbed setup of a population figure: its label, platform and
/// target device. The baseline is the platform's local DRAM
/// ([`local_for_platform`]), as in a campaign cell.
pub type Setup = (&'static str, fn() -> Platform, fn() -> DeviceSpec);

/// The EMR2S setups of Figure 8a: NUMA and all four CXL devices.
pub const EMR: [Setup; 5] = [
    ("EMR-NUMA", Platform::emr2s, presets::numa_emr),
    ("EMR-CXL-A", Platform::emr2s, presets::cxl_a),
    ("EMR-CXL-B", Platform::emr2s, presets::cxl_b),
    ("EMR-CXL-C", Platform::emr2s, presets::cxl_c),
    ("EMR-CXL-D", Platform::emr2s, presets::cxl_d),
];

/// The setups of Figure 8e: CXL-A and CXL-B on SPR2S, then on EMR2S.
pub const SPR_VS_EMR: [Setup; 4] = [
    ("SPR-CXL-A", Platform::spr2s, presets::cxl_a),
    ("SPR-CXL-B", Platform::spr2s, presets::cxl_b),
    ("EMR-CXL-A", Platform::emr2s, presets::cxl_a),
    ("EMR-CXL-B", Platform::emr2s, presets::cxl_b),
];

/// The 11-setup latency spectrum of Figure 9a, in the paper's order
/// (fastest target first).
pub const SPECTRUM: [Setup; 11] = [
    ("SKX-140ns", Platform::skx2s, presets::skx_140),
    ("SKX-190ns", Platform::skx2s, presets::skx_190),
    ("SPR-NUMA", Platform::spr2s, presets::numa_spr),
    ("SPR-CXL-A", Platform::spr2s, presets::cxl_a),
    ("SPR-CXL-B", Platform::spr2s, presets::cxl_b),
    ("EMR-NUMA", Platform::emr2s, presets::numa_emr),
    ("EMR-CXL-A", Platform::emr2s, presets::cxl_a),
    ("EMR-CXL-B", Platform::emr2s, presets::cxl_b),
    ("EMR-CXL-D", Platform::emr2s, presets::cxl_d),
    ("EMR-CXL-C", Platform::emr2s, presets::cxl_c),
    ("SKX-410ns", Platform::skx8s, presets::skx8s_410),
];

/// The campaign cells of `setups` × `workloads` at `scale`, setup-major.
/// Each is labelled `<setup>/<workload>` and keyed by its resolved
/// configuration alone, so it shares its key with the `melody campaign`
/// cell of the same platform, device and workload.
fn setup_cells(setups: &[Setup], workloads: &[WorkloadSpec], scale: Scale) -> Vec<CampaignCell> {
    let opts = RunOptions {
        mem_refs: scale.mem_refs(),
        ..Default::default()
    };
    let workloads: Vec<Arc<WorkloadSpec>> = workloads.iter().cloned().map(Arc::new).collect();
    let mut cells = Vec::with_capacity(setups.len() * workloads.len());
    for (label, platform, target) in setups {
        let platform = Arc::new(platform());
        let local = Arc::new(local_for_platform(&platform));
        let target = Arc::new(target());
        for w in &workloads {
            let mut draft = Draft {
                platform: Some((platform.clone(), local.clone())),
                target: Some(target.clone()),
                workload: Some(w.clone()),
                ..Default::default()
            };
            draft.labels[Axis::Device as usize] = label.to_string();
            draft.labels[Axis::Workload as usize] = w.name.clone();
            cells.push(draft.finish(cells.len(), &opts));
        }
    }
    cells
}

/// Resolves `setups` × `workloads` at `scale` through
/// [`campaign::resolve`]: cells `journal` holds are restored, the rest
/// simulate on the worker pool and are recorded in it.
///
/// # Panics
///
/// Panics if a cell panics.
pub fn population(
    setups: &[Setup],
    workloads: &[WorkloadSpec],
    scale: Scale,
    journal: &mut Journal,
) -> GridData {
    let cells = setup_cells(setups, workloads, scale);
    let resolved = campaign::resolve(&cells, journal, None, &CellPolicy::default());
    if let Some(e) = resolved.errors.first() {
        panic!("population cell failed: {e}");
    }
    // Nothing cancels these cells, so every slot without an error is
    // filled.
    let mut outcomes = resolved.outcomes.into_iter().flatten();
    let cells = setups
        .iter()
        .map(|(label, ..)| {
            let chunk = outcomes.by_ref().take(workloads.len()).collect();
            (label.to_string(), chunk)
        })
        .collect();
    GridData { cells }
}

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

/// The EMR grid of Figure 8a (NUMA + CXL A–D).
pub fn run_emr_grid(scale: Scale, journal: &mut Journal) -> GridData {
    population(&EMR, &scale.select_workloads(), scale, journal)
}

/// The SPR/EMR comparison grid of Figure 8e.
pub fn run_fig8e_grid(scale: Scale, journal: &mut Journal) -> GridData {
    population(&SPR_VS_EMR, &scale.select_workloads(), scale, journal)
}

/// The 11-setup latency-spectrum grid of Figure 9a.
pub fn run_spectrum_grid(scale: Scale, journal: &mut Journal) -> GridData {
    population(&SPECTRUM, &scale.select_workloads(), scale, journal)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The smoke EMR grid, built once per test binary.
    fn grid() -> &'static GridData {
        static GRID: OnceLock<GridData> = OnceLock::new();
        GRID.get_or_init(|| run_emr_grid(Scale::Smoke, &mut Journal::in_memory()))
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

    #[test]
    fn spectrum_has_eleven_setups_in_paper_order() {
        assert_eq!(SPECTRUM.len(), 11);
        assert_eq!(SPECTRUM[0].0, "SKX-140ns");
        assert_eq!(SPECTRUM[10].0, "SKX-410ns");
        // Latency ordering: first is the fastest target, last the slowest.
        assert!(SPECTRUM[0].2().nominal_latency_ns() < SPECTRUM[10].2().nominal_latency_ns());
    }

    #[test]
    fn emr_setups_cover_all_cxl_devices() {
        for d in ["NUMA", "CXL-A", "CXL-B", "CXL-C", "CXL-D"] {
            assert!(EMR.iter().any(|(l, ..)| l.contains(d)), "missing {d}");
        }
    }

    #[test]
    fn setups_pair_platform_and_baseline() {
        for cell in setup_cells(&EMR, &Scale::Smoke.select_workloads()[..1], Scale::Smoke) {
            assert_eq!(cell.platform.name, "EMR2S");
            assert_eq!(cell.local.name(), "Local");
        }
    }

    fn two_workloads() -> Vec<WorkloadSpec> {
        ["605.mcf", "541.leela"]
            .iter()
            .map(|n| melody_workloads::registry::by_name(n).expect("workload"))
            .collect()
    }

    #[test]
    fn resolving_a_population_again_simulates_nothing() {
        let ws = two_workloads();
        let mut journal = Journal::in_memory();
        let first = population(&EMR[..2], &ws, Scale::Smoke, &mut journal);
        assert_eq!(journal.len(), 4);
        let cells = setup_cells(&EMR[..2], &ws, Scale::Smoke);
        let again = campaign::resolve(&cells, &mut journal, None, &CellPolicy::default());
        assert_eq!(again.stats.simulated, 0);
        assert_eq!(again.stats.journal_hits, 4);
        let second = population(&EMR[..2], &ws, Scale::Smoke, &mut journal);
        assert_eq!(
            crate::report::to_json(&first),
            crate::report::to_json(&second)
        );
    }

    #[test]
    fn populations_sharing_setups_simulate_only_new_cells() {
        // SPR_VS_EMR shares EMR-CXL-A with EMR[..2] under the same label
        // and adds three setups the first population lacks.
        let ws = two_workloads();
        let mut journal = Journal::in_memory();
        population(&EMR[..2], &ws, Scale::Smoke, &mut journal);
        let cells = setup_cells(&SPR_VS_EMR, &ws, Scale::Smoke);
        let r = campaign::resolve(&cells, &mut journal, None, &CellPolicy::default());
        assert_eq!(r.stats.journal_hits, ws.len());
        assert_eq!(r.stats.simulated, 3 * ws.len());
        assert_eq!(journal.len(), 5 * ws.len());
    }

    #[test]
    fn figure_cells_share_campaign_keys() {
        let spec = campaign::CampaignSpec {
            platforms: vec!["emr2s".into()],
            devices: vec!["cxl-a".into()],
            scale: Some("smoke".into()),
            ..Default::default()
        };
        let keys = |cells: Vec<CampaignCell>| -> Vec<String> {
            cells.into_iter().map(|c| c.key).collect()
        };
        let figure = setup_cells(&EMR[1..2], &Scale::Smoke.select_workloads(), Scale::Smoke);
        assert_eq!(EMR[1].0, "EMR-CXL-A");
        assert_eq!(keys(figure), keys(spec.expand().expect("expand")));
    }
}
