//! Regression tests for the paper's five Findings: each asserts the
//! *shape* of a paper claim on the simulated testbed.

use std::sync::OnceLock;

use melody::experiments::grid::{self, GridData};
use melody::experiments::{fig08cd, tails, Scale};
use melody::prelude::*;

/// The smoke EMR grid of Figure 8a, built once per test binary.
fn emr_grid() -> &'static GridData {
    static GRID: OnceLock<GridData> = OnceLock::new();
    GRID.get_or_init(|| grid::run_emr_grid(Scale::Smoke, &mut Journal::in_memory()))
}

/// Finding #1: not all CXL devices are created equal — CXL shows unstable
/// and higher tail latency than local/NUMA; CXL-D is the most stable CXL
/// device; prefetchers do not eliminate the tails.
#[test]
fn finding1_cxl_tail_latencies() {
    // (a/b) Device-level tails, prefetchers off (Figure 3b).
    let cells = tails::fig03b(Scale::Smoke);
    let gap = |config: &str, threads: usize| {
        cells
            .iter()
            .find(|c| c.config == config && c.threads == threads)
            .expect("cell")
            .gap
    };
    assert!(gap("Local", 8) < 110, "local gap {}", gap("Local", 8));
    assert!(
        gap("Local+NUMA", 8) < 130,
        "numa gap {}",
        gap("Local+NUMA", 8)
    );
    assert!(gap("CXL-B", 8) > 2 * gap("Local", 8));
    assert!(gap("CXL-C", 8) > 2 * gap("Local", 8));
    assert!(gap("CXL-D", 8) < gap("CXL-B", 8));

    // (d) Prefetchers lower medians but tails persist (Figure 6).
    let pf = tails::fig06(Scale::Smoke);
    let b = pf
        .iter()
        .find(|c| c.config == "CXL-B" && c.threads == 1)
        .expect("cell");
    assert!(b.p50 < 150, "prefetched median {}", b.p50);
    assert!(
        b.p999 > 100,
        "prefetching should not kill the tail: {}",
        b.p999
    );
}

/// Finding #1(c/e): concurrent reads/writes worsen CXL tails; the
/// FPGA-based device cannot exploit duplex transfer, so its peak
/// bandwidth is read-only while ASIC devices peak under mixed ratios.
#[test]
fn finding1_duplex_and_noise() {
    use melody::experiments::device_curves::{fig05, peak_ratio};
    let panels = fig05(Scale::Smoke, &mut Journal::in_memory());
    let by = |n: &str| panels.iter().find(|p| p.device == n).expect("panel");
    assert_eq!(peak_ratio(by("Local")), "1:0");
    assert_eq!(peak_ratio(by("CXL-C")), "1:0", "FPGA behaves like DDR");
    assert_ne!(peak_ratio(by("CXL-A")), "1:0", "ASIC peaks mixed");
    assert_ne!(peak_ratio(by("CXL-D")), "1:0", "ASIC peaks mixed");

    // R/W noise widens CXL tails, not local (Figure 4).
    let noise = tails::fig04(Scale::Smoke);
    let gap = |config: &str, threads: usize| {
        noise
            .iter()
            .find(|c| c.config == config && c.threads == threads)
            .expect("cell")
            .gap
    };
    assert!(gap("CXL-A", 7) > gap("CXL-A", 0));
    assert!(
        gap("Local", 7) < 250,
        "local stable under noise: {}",
        gap("Local", 7)
    );
}

/// Finding #2: slowdown ordering across devices; many workloads tolerate
/// CXL; bandwidth-bound workloads form a heavy tail on low-bandwidth
/// devices but not on NUMA; interleaving two CXL-D closes the gap.
#[test]
fn finding2_workload_slowdowns() {
    let g = emr_grid();
    let under50 = |l: &str| g.slowdown_cdf(l).fraction_at_or_below(50.0);
    assert!(under50("EMR-NUMA") >= under50("EMR-CXL-B"));
    assert!(under50("EMR-CXL-A") >= under50("EMR-CXL-C"));

    // Tail: B's worst case far beyond NUMA's (Figure 8b), in the 1.5-5.8x
    // band the paper reports.
    let b_max = g.slowdown_cdf("EMR-CXL-B").max();
    let numa_max = g.slowdown_cdf("EMR-NUMA").max();
    assert!(b_max > 150.0, "CXL-B max {b_max}%");
    assert!(b_max < 700.0, "CXL-B max {b_max}% beyond the paper band");
    assert!(numa_max < 150.0, "NUMA max {numa_max}%");

    // Interleaving two CXL-D devices (Figure 8f) cuts the worst case.
    let f = fig08cd::fig08f(Scale::Smoke, &mut Journal::in_memory());
    let worst = |label: &str| {
        f.cdfs
            .iter()
            .find(|s| s.name == label)
            .expect("series")
            .points
            .iter()
            .map(|p| p.0)
            .fold(0.0, f64::max)
    };
    assert!(worst("CXL-D x2") < worst("CXL-D x1"));
}

/// Finding #2 (tail-latency impact): CXL+NUMA slows `520.omnetpp` far
/// beyond any plain CXL device, and reducing intensity reduces the
/// slowdown — the paper's direct evidence that tails, not averages,
/// cause it.
#[test]
fn finding2_cxl_plus_numa_anomaly() {
    let d = fig08cd::fig08d(Scale::Smoke);
    let sd = |label: &str| {
        d.slowdowns
            .iter()
            .find(|(l, _)| l == label)
            .expect("slowdown entry")
            .1
    };
    assert!(sd("CXL-A") < 25.0);
    assert!(sd("CXL-A+NUMA") > 3.0 * sd("CXL-A").max(1.0));
    assert!(sd("CXL-A+NUMA 1/4 load") < sd("CXL-A+NUMA"));
}

/// Finding #3: differential stalls track measured slowdowns (Figure 11):
/// Δs within 5pp for ~100% of workloads, memory-subsystem stalls within
/// 5pp for ≥85%.
#[test]
fn finding3_spa_accuracy() {
    let g = emr_grid();
    for label in ["EMR-NUMA", "EMR-CXL-A", "EMR-CXL-B"] {
        let r = g.fig11(label);
        let (d, b, m) = r.within_pp(5.0);
        assert!(d >= 0.9, "{label}: Δs within 5pp only {d}");
        assert!(b >= 0.85, "{label}: backend within 5pp only {b}");
        assert!(m >= 0.85, "{label}: memory within 5pp only {m}");
    }
}

/// Finding #4: the prefetcher-inefficiency signature — L2PF L3-misses
/// decrease under CXL while L1PF L3-misses increase, strongly correlated
/// (the paper reports y ≈ x with Pearson 0.99).
#[test]
fn finding4_prefetcher_shift() {
    let g = emr_grid();
    let shift = g.fig12a("EMR-CXL-B");
    // Only workloads with real prefetch traffic carry signal.
    let active: Vec<_> = shift
        .points
        .iter()
        .filter(|p| p.l2pf_miss_decrease.abs() > 100.0)
        .collect();
    assert!(!active.is_empty(), "no prefetch-active workloads in subset");
    // Every active workload loses L2-prefetch coverage under CXL, and
    // none shows the opposite shift (L1PF misses falling sharply while
    // L2PF misses fall). The strict y ≈ x relation of Figure 12a is
    // asserted at the single-thread rate regime in the melody-cpu unit
    // test `cxl_reduces_l2pf_coverage_and_shifts_misses_to_l1pf`; at
    // 8-thread streaming rates the prefetch-buffer budgets bind and cap
    // the L1PF's pickup of the dropped lines.
    for p in &active {
        assert!(
            p.l2pf_miss_decrease > 0.0,
            "L2PF coverage should fall under CXL: {p:?}"
        );
        assert!(
            p.l1pf_miss_increase > -0.3 * p.l2pf_miss_decrease,
            "L1PF misses should not collapse alongside L2PF: {p:?}"
        );
    }
    // Coverage (issued / wanted) falls under CXL for the active set.
    let outs = g.setup("EMR-CXL-B").expect("setup");
    let coverage_drops = outs
        .iter()
        .filter(|o| o.local.counters.l2pf_issued > 1_000)
        .filter(|o| {
            melody_spa::prefetch::coverage_decrease_pp(&o.local.counters, &o.target.counters) > 1.0
        })
        .count();
    assert!(
        coverage_drops >= 2,
        "expected L2PF coverage drops, saw {coverage_drops}"
    );
}

/// Finding #4 (validation): with prefetchers disabled, cache-level
/// slowdown components vanish — the stalls move to DRAM.
#[test]
fn finding4_prefetchers_off_no_cache_slowdown() {
    let wl = registry::by_name("603.bwaves").expect("bwaves");
    let base = RunOptions {
        mem_refs: 10_000,
        ..Default::default()
    };
    let off = RunOptions {
        prefetchers: false,
        ..base.clone()
    };
    let on_pair = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_a(),
        &wl,
        &base,
    );
    let off_pair = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_a(),
        &wl,
        &off,
    );
    let cache_on = on_pair.breakdown.cache();
    let cache_off = off_pair.breakdown.cache();
    assert!(
        cache_on > 0.10,
        "bwaves should show cache slowdown with PF on: {cache_on}"
    );
    assert!(
        cache_off < cache_on / 3.0,
        "PF off should collapse cache slowdown: {cache_off} vs {cache_on}"
    );
    // The slowdown transfers to DRAM rather than disappearing.
    assert!(off_pair.breakdown.dram > on_pair.breakdown.dram);
}

/// Finding #5: workloads with similar overall slowdowns can have very
/// different temporal profiles; period-based analysis exposes them.
#[test]
fn finding5_temporal_variation() {
    use melody::experiments::fig16;
    let panels = fig16::run(Scale::Smoke);
    let gcc = panels
        .iter()
        .find(|p| p.workload == "602.gcc")
        .expect("gcc");
    // gcc has clearly distinguishable heavy and light regions.
    let totals: Vec<f64> = gcc.analysis.periods.iter().map(|b| b.total).collect();
    let max = totals.iter().cloned().fold(f64::MIN, f64::max);
    let min = totals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max > min + 0.15,
        "gcc temporal variation too flat: {min:.3}..{max:.3}"
    );
}
