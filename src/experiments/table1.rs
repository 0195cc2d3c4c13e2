//! Table 1: testbed idle latency and peak bandwidth, local and remote.

use melody_mem::{presets, probe, DeviceSpec};
use serde::{Deserialize, Serialize};

use crate::report::TableData;

use super::Scale;

/// One Table 1 row, measured on the simulated testbed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Configuration name.
    pub name: String,
    /// Measured idle latency (local attach), ns.
    pub local_lat_ns: f64,
    /// Measured peak read bandwidth (local attach), GB/s.
    pub local_bw_gbps: f64,
    /// Measured idle latency behind a NUMA hop, ns (devices only).
    pub remote_lat_ns: Option<f64>,
    /// Measured peak read bandwidth behind a NUMA hop, GB/s.
    pub remote_bw_gbps: Option<f64>,
    /// The paper's Table 1 reference latency, ns.
    pub paper_lat_ns: f64,
}

/// Table 1 measurement result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Data {
    /// Rows in Table 1 order.
    pub rows: Vec<Table1Row>,
}

impl Table1Data {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TableData::new(
            "Table 1: testbed latency/bandwidth (measured on simulated devices)",
            &[
                "Config",
                "Local lat (ns)",
                "Local BW (GB/s)",
                "Remote lat (ns)",
                "Remote BW (GB/s)",
                "Paper lat (ns)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.name.clone(),
                format!("{:.0}", r.local_lat_ns),
                format!("{:.1}", r.local_bw_gbps),
                r.remote_lat_ns
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".into()),
                r.remote_bw_gbps
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.0}", r.paper_lat_ns),
            ]);
        }
        t.render()
    }
}

fn measure(spec: &DeviceSpec, scale: Scale, outstanding: usize) -> (f64, f64) {
    let mut dev = spec.build(0x7AB1E);
    let lat = probe::idle_latency_ns(dev.as_mut(), (scale.mio_accesses() / 10) as usize);
    let mut dev = spec.build(0x7AB1E);
    let bw = probe::peak_bandwidth_gbps(dev.as_mut(), 1.0, scale.mlc_requests(), outstanding);
    (lat, bw)
}

/// Regenerates Table 1. The nine rows are independent probe pairs, so
/// they fan out over the worker pool ([`crate::exec::jobs`]).
pub fn run(scale: Scale) -> Table1Data {
    // Server rows (local DRAM + cross-socket NUMA, 768 outstanding),
    // then CXL device rows (local attach + one NUMA hop, 256).
    let mut cells: Vec<(String, DeviceSpec, DeviceSpec, f64, usize)> = vec![
        (
            "SPR2S".into(),
            presets::local_spr(),
            presets::numa_spr(),
            114.0,
            768,
        ),
        (
            "EMR2S".into(),
            presets::local_emr(),
            presets::numa_emr(),
            111.0,
            768,
        ),
        (
            "EMR2S'".into(),
            presets::local_emr_prime(),
            presets::numa_emr_prime(),
            117.0,
            768,
        ),
        (
            "SKX2S".into(),
            presets::local_skx2s(),
            presets::skx_140(),
            90.0,
            768,
        ),
        (
            "SKX8S".into(),
            presets::local_skx8s(),
            presets::skx8s_410(),
            81.0,
            768,
        ),
    ];
    for (spec, paper) in [
        (presets::cxl_a(), 214.0),
        (presets::cxl_b(), 271.0),
        (presets::cxl_c(), 394.0),
        (presets::cxl_d(), 239.0),
    ] {
        let remote = spec.clone().with_numa_hop();
        cells.push((spec.name(), spec, remote, paper, 256));
    }
    let rows = crate::exec::parallel_map(&cells, |(name, local, remote, paper, outstanding)| {
        let (llat, lbw) = measure(local, scale, *outstanding);
        let (rlat, rbw) = measure(remote, scale, *outstanding);
        Table1Row {
            name: name.clone(),
            local_lat_ns: llat,
            local_bw_gbps: lbw,
            remote_lat_ns: Some(rlat),
            remote_bw_gbps: Some(rbw),
            paper_lat_ns: *paper,
        }
    });
    Table1Data { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds_at_smoke_scale() {
        let t = run(Scale::Smoke);
        assert_eq!(t.rows.len(), 9);
        for r in &t.rows {
            assert!(
                (r.local_lat_ns - r.paper_lat_ns).abs() / r.paper_lat_ns < 0.15,
                "{}: measured {} vs paper {}",
                r.name,
                r.local_lat_ns,
                r.paper_lat_ns
            );
            // Remote always slower than local.
            assert!(r.remote_lat_ns.expect("remote") > r.local_lat_ns);
        }
        let render = t.render();
        assert!(render.contains("CXL-A"));
        assert!(render.contains("SKX8S"));
    }
}
