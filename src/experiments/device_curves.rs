//! Latency–bandwidth curves: Figure 1 (the sub-µs spectrum), Figure 3a
//! (loaded latency under read traffic) and Figure 5 (read/write-ratio
//! sweeps).
//!
//! The three figures share sweeps (Figure 3a's six read-only curves are
//! in Figure 1, and again in Figure 5's `1:0` row), so each resolves its
//! sweeps against a caller-owned [`Journal`]: figures that share one
//! simulate each distinct sweep once.

use melody_mem::{presets, DeviceSpec};
use melody_workloads::mlc::{self, MlcConfig};
use serde::{Deserialize, Serialize};

use crate::campaign::cell_fingerprint;
use crate::journal::Journal;
use crate::report::Series;

use super::Scale;

/// A set of latency–bandwidth curves, one per memory configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurveSet {
    /// Figure identifier (e.g. `"fig3a"`).
    pub figure: String,
    /// One `(bandwidth GB/s, mean latency ns)` series per configuration.
    pub curves: Vec<Series>,
}

impl CurveSet {
    /// Renders all series.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.figure);
        for c in &self.curves {
            out.push_str(&c.render());
            out.push('\n');
        }
        out
    }

    /// The curve with the given name.
    pub fn curve(&self, name: &str) -> Option<&Series> {
        self.curves.iter().find(|c| c.name == name)
    }
}

/// The sorted `(bandwidth GB/s, mean latency ns)` points of each
/// `(device, read fraction)` MLC sweep at `scale`, in order. A sweep
/// `journal` holds is restored; the rest run on the worker pool and are
/// recorded in it. Every sweep passes through one JSON round-trip, so a
/// restored sweep prints as a fresh one does.
fn sweeps(
    configs: &[(&DeviceSpec, f64)],
    scale: Scale,
    journal: &mut Journal,
) -> Vec<Vec<(f64, f64)>> {
    let delays = mlc::standard_delays();
    let requests = scale.mlc_requests();
    let keys: Vec<String> = configs
        .iter()
        .map(|(spec, read_frac)| {
            let config = format!(
                "{{\"device\":{},\"delays\":{delays:?},\"read_frac\":{read_frac},\"requests\":{requests}}}",
                spec.canonical_json()
            );
            cell_fingerprint("mlc-sweep", &config)
        })
        .collect();
    let todo: Vec<usize> = (0..configs.len())
        .filter(|&i| journal.get(&keys[i]).is_none())
        .collect();
    let fresh = crate::exec::parallel_map(&todo, |&i| {
        let (spec, read_frac) = configs[i];
        let pts = mlc::latency_bandwidth_curve(spec, &delays, read_frac, requests);
        let mut points: Vec<(f64, f64)> = pts
            .iter()
            .map(|p| (p.bandwidth_gbps, p.mean_latency_ns()))
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        points
    });
    for (i, points) in todo.into_iter().zip(fresh) {
        let json = serde_json::to_string(&points).expect("points serialize");
        journal.record(&keys[i], &json).expect("journal append");
    }
    keys.iter()
        .map(|k| {
            let json = journal.get(k).expect("every sweep is recorded");
            serde_json::from_str(json).expect("points round-trip")
        })
        .collect()
}

/// Figure 1: the latency–bandwidth spectrum across local DRAM, NUMA, the
/// four CXL devices, CXL+NUMA, CXL+Switch, and CXL over multiple hops.
pub fn fig01(scale: Scale, journal: &mut Journal) -> CurveSet {
    let mut configs: Vec<(String, DeviceSpec)> = vec![
        ("Socket-local DRAM".into(), presets::local_emr()),
        ("NUMA".into(), presets::numa_emr()),
    ];
    for d in presets::all_cxl() {
        configs.push((d.name(), d));
    }
    configs.push(("CXL+NUMA".into(), presets::cxl_a().with_numa_hop()));
    configs.push(("CXL+Switch".into(), presets::cxl_d().with_switch_hop()));
    configs.push((
        "CXL+multi-hops".into(),
        presets::cxl_d().with_switch_hop().with_switch_hop(),
    ));
    let read_only: Vec<(&DeviceSpec, f64)> = configs.iter().map(|(_, spec)| (spec, 1.0)).collect();
    let curves = configs
        .iter()
        .zip(sweeps(&read_only, scale, journal))
        .map(|((name, _), points)| Series::new(name.clone(), points))
        .collect();
    CurveSet {
        figure: "fig01: CXL latency/bandwidth spectrum".into(),
        curves,
    }
}

/// Figure 3a: loaded latency vs bandwidth for local, NUMA and CXL A–D
/// under 31 read-traffic threads with injected delays of 0–20 K cycles.
pub fn fig03a(scale: Scale, journal: &mut Journal) -> CurveSet {
    let configs = [
        presets::local_emr(),
        presets::numa_emr(),
        presets::cxl_a(),
        presets::cxl_b(),
        presets::cxl_c(),
        presets::cxl_d(),
    ];
    let read_only: Vec<(&DeviceSpec, f64)> = configs.iter().map(|spec| (spec, 1.0)).collect();
    let curves = configs
        .iter()
        .zip(sweeps(&read_only, scale, journal))
        .map(|(spec, points)| Series::new(spec.name(), points))
        .collect();
    CurveSet {
        figure: "fig03a: loaded latency vs bandwidth".into(),
        curves,
    }
}

/// One read/write-ratio panel of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Panel {
    /// Device name.
    pub device: String,
    /// One curve per R/W ratio, labelled `"R:W"`.
    pub curves: Vec<Series>,
    /// Peak total bandwidth per ratio label.
    pub peaks: Vec<(String, f64)>,
}

/// Figure 5: latency–bandwidth curves under read/write ratios
/// 1:0, 4:1, 3:1, 2:1, 3:2, 1:1, for all six memory configurations.
pub fn fig05(scale: Scale, journal: &mut Journal) -> Vec<Fig05Panel> {
    let ratios: [(&str, f64); 6] = [
        ("1:0", 1.0),
        ("4:1", 0.8),
        ("3:1", 0.75),
        ("2:1", 2.0 / 3.0),
        ("3:2", 0.6),
        ("1:1", 0.5),
    ];
    let configs = [
        presets::local_emr(),
        presets::numa_emr(),
        presets::cxl_a(),
        presets::cxl_b(),
        presets::cxl_c(),
        presets::cxl_d(),
    ];
    // Flatten (config × ratio) into one work list: 36 sweeps saturate
    // the worker pool where 6 per-config tasks would not.
    let flat: Vec<(&DeviceSpec, f64)> = configs
        .iter()
        .flat_map(|spec| ratios.iter().map(move |&(_, frac)| (spec, frac)))
        .collect();
    let curves: Vec<Series> = ratios
        .iter()
        .cycle()
        .zip(sweeps(&flat, scale, journal))
        .map(|((label, _), points)| Series::new(*label, points))
        .collect();
    configs
        .iter()
        .zip(curves.chunks_exact(ratios.len()))
        .map(|(spec, chunk)| {
            let peaks = chunk
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        s.points.iter().map(|p| p.0).fold(0.0, f64::max),
                    )
                })
                .collect();
            Fig05Panel {
                device: spec.name(),
                curves: chunk.to_vec(),
                peaks,
            }
        })
        .collect()
}

/// The ratio label with the highest peak bandwidth in a Figure 5 panel.
pub fn peak_ratio(panel: &Fig05Panel) -> &str {
    panel
        .peaks
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(l, _)| l.as_str())
        .unwrap_or("?")
}

/// A single loaded point at a fixed delay (used by ablations).
pub fn loaded_point(spec: &DeviceSpec, delay_cycles: u64, scale: Scale) -> (f64, f64) {
    let p = mlc::loaded_latency(
        spec,
        &MlcConfig {
            delay_cycles,
            total_requests: scale.mlc_requests(),
            ..MlcConfig::default()
        },
    );
    (p.bandwidth_gbps, p.mean_latency_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_curves_have_expected_shape() {
        let cs = fig03a(Scale::Smoke, &mut Journal::in_memory());
        assert_eq!(cs.curves.len(), 6);
        let local = cs.curve("Local").expect("local curve");
        let cxl_c = cs.curve("CXL-C").expect("cxl-c curve");
        // Local reaches far more bandwidth than CXL-C.
        let local_max = local.points.iter().map(|p| p.0).fold(0.0, f64::max);
        let c_max = cxl_c.points.iter().map(|p| p.0).fold(0.0, f64::max);
        assert!(local_max > 4.0 * c_max, "local {local_max} vs C {c_max}");
        // Latency at the saturated end exceeds the idle end.
        let first = local.points.first().expect("points").1;
        let last = local.points.last().expect("points").1;
        assert!(
            last > first,
            "loaded latency should rise: {first} -> {last}"
        );
    }

    #[test]
    fn fig5_duplex_devices_peak_mixed() {
        let panels = fig05(Scale::Smoke, &mut Journal::in_memory());
        let by_name = |n: &str| panels.iter().find(|p| p.device == n).expect("panel");
        // ASIC CXL peaks at a mixed ratio; local DRAM peaks read-only.
        assert_ne!(peak_ratio(by_name("CXL-A")), "1:0");
        assert_ne!(peak_ratio(by_name("CXL-D")), "1:0");
        assert_eq!(peak_ratio(by_name("Local")), "1:0");
        // The FPGA device behaves like DDR: read-only is its best case.
        assert_eq!(peak_ratio(by_name("CXL-C")), "1:0");
    }

    #[test]
    fn figures_sharing_a_journal_simulate_each_sweep_once() {
        let mut journal = Journal::in_memory();
        let f3a = fig03a(Scale::Smoke, &mut journal);
        assert_eq!(journal.len(), 6);
        // Figure 5's `1:0` row is Figure 3a; only its 30 mixed sweeps run.
        let f5 = fig05(Scale::Smoke, &mut journal);
        assert_eq!(journal.len(), 36);
        for (curve, panel) in f3a.curves.iter().zip(&f5) {
            assert_eq!(curve.name, panel.device);
            assert_eq!(curve.points, panel.curves[0].points);
        }
        // Figure 1 adds CXL+NUMA, CXL+Switch and CXL+multi-hops.
        let f1 = fig01(Scale::Smoke, &mut journal);
        assert_eq!(journal.len(), 39);
        assert_eq!(f1.curves[0].points, f3a.curves[0].points);
    }

    #[test]
    fn fig1_spectrum_orders_configs() {
        let cs = fig01(Scale::Smoke, &mut Journal::in_memory());
        let idle = |name: &str| {
            cs.curve(name)
                .expect("curve")
                .points
                .first()
                .expect("points")
                .1
        };
        assert!(idle("Socket-local DRAM") < idle("NUMA"));
        assert!(idle("NUMA") < idle("CXL-A"));
        assert!(idle("CXL-A") < idle("CXL+Switch"));
        assert!(idle("CXL+Switch") < idle("CXL+multi-hops"));
    }
}
