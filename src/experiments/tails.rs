//! Tail-latency experiments: Figures 3b, 3c, 4 and 6.

use melody_cpu::{Core, CoreConfig, Platform, Slot};
use melody_mem::{presets, DeviceSpec};
use melody_mio::{self as mio, MioConfig};
use melody_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::report::Series;

use super::Scale;

fn standard_configs() -> Vec<DeviceSpec> {
    vec![
        presets::local_emr(),
        presets::numa_emr(),
        presets::cxl_a(),
        presets::cxl_b(),
        presets::cxl_c(),
        presets::cxl_d(),
    ]
}

/// One latency CDF per (config, thread-count) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdfCell {
    /// Memory configuration name.
    pub config: String,
    /// Number of co-located chase (or noise) threads.
    pub threads: usize,
    /// `(latency ns, cumulative fraction)` points.
    pub cdf: Vec<(u64, f64)>,
    /// Median latency, ns.
    pub p50: u64,
    /// p99.9 latency, ns.
    pub p999: u64,
    /// p99.9 − p50 gap, ns.
    pub gap: u64,
}

/// Flattens a (config × threads) sweep into one parallel work list,
/// preserving the serial nested-loop order (configs outer, threads
/// inner).
fn sweep_cells(
    configs: &[DeviceSpec],
    threads: &[usize],
    cell: impl Fn(&DeviceSpec, usize) -> CdfCell + Sync,
) -> Vec<CdfCell> {
    let flat: Vec<(&DeviceSpec, usize)> = configs
        .iter()
        .flat_map(|spec| threads.iter().map(move |&n| (spec, n)))
        .collect();
    crate::exec::parallel_map(&flat, |(spec, n)| cell(spec, *n))
}

/// Figure 3b: pointer-chase latency CDFs under 1–32 co-located chase
/// threads, prefetchers off.
pub fn fig03b(scale: Scale) -> Vec<CdfCell> {
    let threads = [1usize, 2, 4, 8, 16, 32];
    sweep_cells(&standard_configs(), &threads, |spec, n| {
        let r = mio::run(
            spec,
            &MioConfig {
                chase_threads: n,
                accesses: scale.mio_accesses(),
                ..MioConfig::default()
            },
        );
        CdfCell {
            config: spec.name(),
            threads: n,
            cdf: r.latency.cdf_points(),
            p50: r.latency.percentile(50.0),
            p999: r.latency.percentile(99.9),
            gap: r.tail_gap_ns,
        }
    })
}

/// Figure 3c: (p99.9 − p50) tail gap vs achieved bandwidth utilization.
/// Returns one series per config: `(bandwidth %, gap ns)`.
pub fn fig03c(scale: Scale) -> Vec<Series> {
    // Peak read bandwidths used to normalise utilization (Table 1).
    let peaks = [
        ("Local", 240.0),
        ("Local+NUMA", 120.0),
        ("CXL-A", 22.0),
        ("CXL-B", 20.0),
        ("CXL-C", 18.0),
        ("CXL-D", 46.0),
    ];
    let noise_steps = [0usize, 1, 2, 3, 5, 8, 12, 20];
    crate::exec::parallel_map(&standard_configs(), |spec| {
        let pts = mio::bandwidth_pressure_sweep(spec, &noise_steps, scale.mio_accesses());
        let peak = peaks
            .iter()
            .find(|(n, _)| *n == spec.name())
            .map(|(_, p)| *p)
            .unwrap_or(100.0);
        let series = pts
            .into_iter()
            .map(|(bw, gap)| ((bw / peak * 100.0).min(100.0), gap as f64))
            .collect();
        Series::new(spec.name(), series)
    })
}

/// Figure 4: latency CDFs under 0–7 background read/write noise threads.
pub fn fig04(scale: Scale) -> Vec<CdfCell> {
    let noise = [0usize, 1, 3, 5, 7];
    sweep_cells(&standard_configs(), &noise, |spec, n| {
        let r = mio::run(
            spec,
            &MioConfig {
                noise_threads: n,
                noise_read_frac: 0.6,
                accesses: scale.mio_accesses(),
                ..MioConfig::default()
            },
        );
        CdfCell {
            config: spec.name(),
            threads: n,
            cdf: r.latency.cdf_points(),
            p50: r.latency.percentile(50.0),
            p999: r.latency.percentile(99.9),
            gap: r.tail_gap_ns,
        }
    })
}

/// Figure 6: chase latency CDFs with CPU prefetchers *on*, via the core
/// model. The chase is partially stride-predictable so prefetchers can
/// engage (matching the lower observed latencies of the paper's figure).
pub fn fig06(scale: Scale) -> Vec<CdfCell> {
    let threads = [1usize, 2, 4, 8, 16, 32];
    sweep_cells(&standard_configs(), &threads, |spec, n| {
        let mut cfg = CoreConfig::new(Platform::emr2s().smp_scaled(n as u32));
        cfg.prefetchers = true;
        let mut rng = SimRng::seed_from(0xF1606 ^ n as u64);
        let accesses = (scale.mio_accesses() / 4).max(5_000);
        // Mostly sequential walk with occasional random jumps: the
        // prefetcher-friendly pattern the paper's Figure 6 probes.
        let mut line = 0u64;
        let stream: Vec<Slot> = (0..accesses)
            .map(|_| {
                if rng.chance(0.05) {
                    line = rng.below(1 << 24);
                } else {
                    line += 1;
                }
                Slot::Load {
                    addr: line * 64,
                    dependent: true,
                }
            })
            .collect();
        let core = Core::new(cfg, spec.build(0xF1606));
        let r = core.run(stream);
        let h = &r.dep_load_hist;
        CdfCell {
            config: spec.name(),
            threads: n,
            cdf: h.cdf_points(),
            p50: h.percentile(50.0),
            p999: h.percentile(99.9),
            gap: h.percentile_gap(50.0, 99.9),
        }
    })
}

/// Summarises a cell list as a table: one row per (config, threads).
pub fn render_cells(title: &str, cells: &[CdfCell]) -> String {
    let mut t = crate::report::TableData::new(
        title,
        &["Config", "Threads", "p50 (ns)", "p99.9 (ns)", "gap (ns)"],
    );
    for c in cells {
        t.push_row(vec![
            c.config.clone(),
            c.threads.to_string(),
            c.p50.to_string(),
            c.p999.to_string(),
            c.gap.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap_of(cells: &[CdfCell], config: &str, threads: usize) -> u64 {
        cells
            .iter()
            .find(|c| c.config == config && c.threads == threads)
            .unwrap_or_else(|| panic!("missing cell {config}/{threads}"))
            .gap
    }

    #[test]
    fn fig3b_finding1_tail_ordering() {
        let cells = fig03b(Scale::Smoke);
        assert_eq!(cells.len(), 36);
        // Paper Finding #1: local & NUMA stable; CXL-B/C heavy tails;
        // CXL-D the most stable CXL device.
        let local = gap_of(&cells, "Local", 8);
        let b = gap_of(&cells, "CXL-B", 8);
        let c = gap_of(&cells, "CXL-C", 8);
        let d = gap_of(&cells, "CXL-D", 8);
        assert!(local < 110, "local gap {local}");
        assert!(b > local * 2, "B {b} vs local {local}");
        assert!(c > local * 2, "C {c} vs local {local}");
        assert!(d < b, "D {d} vs B {b}");
    }

    #[test]
    fn fig4_noise_widens_cxl_tails_only() {
        let cells = fig04(Scale::Smoke);
        let local_quiet = gap_of(&cells, "Local", 0);
        let local_noisy = gap_of(&cells, "Local", 7);
        let a_quiet = gap_of(&cells, "CXL-A", 0);
        let a_noisy = gap_of(&cells, "CXL-A", 7);
        assert!(local_noisy < local_quiet + 120, "local stays stable");
        assert!(
            a_noisy > a_quiet,
            "CXL-A should degrade: {a_quiet} -> {a_noisy}"
        );
    }

    #[test]
    fn fig6_prefetchers_lower_median_but_not_tails() {
        let cells = fig06(Scale::Smoke);
        let cell = cells
            .iter()
            .find(|c| c.config == "CXL-B" && c.threads == 1)
            .expect("cell");
        // Prefetch-covered medians sit near cache latencies, far below
        // the 271 ns device latency...
        assert!(cell.p50 < 150, "prefetched median {}", cell.p50);
        // ...but the p99.9 tail still reaches toward device latency
        // (prefetching cannot eliminate CXL tails — Finding #1d).
        assert!(cell.p999 > 100, "tail should persist: {}", cell.p999);
    }
}
