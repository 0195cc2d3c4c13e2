//! Spa root-cause analysis across a small workload population: slowdown
//! breakdowns (Figure 14 style), estimator accuracy (Figure 11), and the
//! prefetcher-shift signature (Figure 12).
//!
//! ```sh
//! cargo run --release --example spa_analysis
//! ```

use melody::experiments::{grid, Scale};
use melody::journal::Journal;

fn main() {
    let g = grid::run_emr_grid(Scale::Smoke, &mut Journal::in_memory());

    // Per-workload breakdown on CXL-B (Figure 14).
    println!("{}", g.fig14("EMR-CXL-B").render());

    // Estimator accuracy (Figure 11): fraction of workloads whose
    // estimate lands within 2pp / 5pp of the measured slowdown.
    println!("== fig11: Spa estimator accuracy ==");
    for label in ["EMR-NUMA", "EMR-CXL-A", "EMR-CXL-B"] {
        let r = g.fig11(label);
        let (d2, b2, m2) = r.within_pp(2.0);
        let (d5, b5, m5) = r.within_pp(5.0);
        println!(
            "{label:10}  <=2pp: Δs {:>4.0}% backend {:>4.0}% memory {:>4.0}%   <=5pp: {:>4.0}%/{:>4.0}%/{:>4.0}%",
            d2 * 100.0, b2 * 100.0, m2 * 100.0,
            d5 * 100.0, b5 * 100.0, m5 * 100.0,
        );
    }

    // Prefetcher shift (Figure 12a): L2PF-L3-miss decrease vs
    // L1PF-L3-miss increase across the population.
    let shift = g.fig12a("EMR-CXL-B");
    println!("\n== fig12a: L2PF -> L1PF miss shift (CXL-B) ==");
    if let (Some(fit), Some(r)) = (shift.fit, shift.pearson) {
        println!(
            "fit: y = {:.2}x + {:.0}   r = {:.3}  (paper: y ~= x, r = 0.99)",
            fit.slope, fit.intercept, r
        );
    }
    for p in shift.points.iter().take(8) {
        println!(
            "  L2PF miss -{:>8.0}  ->  L1PF miss +{:>8.0}",
            p.l2pf_miss_decrease, p.l1pf_miss_increase
        );
    }

    // Component CDFs (Figure 15): how much of the population suffers >=5%
    // slowdown from each source.
    println!("\n== fig15: workloads with >=5% slowdown per component (CXL-B) ==");
    for series in g.fig15("EMR-CXL-B") {
        let above = series.points.iter().filter(|(x, _)| *x >= 5.0).count() as f64
            / series.points.len().max(1) as f64;
        println!("{:6} {:>4.0}%", series.name, above * 100.0);
    }
}
