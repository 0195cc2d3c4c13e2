//! Spa-based performance prediction (§5.7 / technical report):
//! measure each workload on *one* CXL device, then predict its slowdown
//! on the other devices from their Table 1 latency/bandwidth specs
//! alone — and score the predictions against ground truth.

use melody_cpu::Platform;
use melody_mem::presets;
use melody_spa::predict::{
    evaluate, predict_slowdown, DeviceProfile, Measurement, PredictionQuality,
};
use serde::{Deserialize, Serialize};

use crate::report::TableData;
use crate::runner::{run_pair, RunOptions};

use super::Scale;

/// One predicted target: `(target label, per-workload (name, predicted,
/// actual), quality)`.
pub type TargetPrediction = (String, Vec<(String, f64, f64)>, PredictionQuality);

/// Per-target prediction results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictData {
    /// Device the measurements were taken on.
    pub measured_on: String,
    /// Predictions per target device.
    pub targets: Vec<TargetPrediction>,
}

impl PredictData {
    /// Renders per-target quality.
    pub fn render(&self) -> String {
        let mut t = TableData::new(
            format!("Spa prediction (measured on {})", self.measured_on),
            &["Target", "MAE (pp)", "Correlation", "n"],
        );
        for (label, _, q) in &self.targets {
            t.push_row(vec![
                label.clone(),
                format!("{:.1}", q.mae_pp),
                q.correlation
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "-".into()),
                q.n.to_string(),
            ]);
        }
        t.render()
    }
}

/// Table 1 profiles used by the predictor (nominal specs, not the
/// measured counters — the point is predicting unmeasured devices).
fn profile_of(label: &str) -> DeviceProfile {
    match label {
        "Local" => DeviceProfile::new(111.0, 285.0),
        "NUMA" => DeviceProfile::new(193.0, 120.0),
        "CXL-A" => DeviceProfile::new(214.0, 34.0),
        "CXL-B" => DeviceProfile::new(271.0, 29.0),
        "CXL-C" => DeviceProfile::new(394.0, 20.0),
        "CXL-D" => DeviceProfile::new(239.0, 60.0),
        other => panic!("unknown device label {other}"),
    }
}

/// Runs the prediction experiment: measure on CXL-A, predict NUMA,
/// CXL-B and CXL-D.
pub fn run(scale: Scale) -> PredictData {
    let platform = Platform::emr2s();
    let opts = RunOptions {
        mem_refs: scale.mem_refs(),
        ..Default::default()
    };
    let workloads = scale.select_workloads();
    let local_profile = profile_of("Local");
    let measured_profile = profile_of("CXL-A");

    // Measure every workload once on CXL-A (and its local baseline),
    // fanned out over the worker pool.
    let measured = crate::runner::run_population_par(
        &platform,
        &presets::local_emr(),
        &presets::cxl_a(),
        &workloads,
        &opts,
    );

    // Ground-truth runs for every (target × workload) cell, flattened
    // into one parallel work list (serial order: targets outer).
    let target_specs = [
        ("NUMA", presets::numa_emr()),
        ("CXL-B", presets::cxl_b()),
        ("CXL-D", presets::cxl_d()),
    ];
    let flat: Vec<(&melody_mem::DeviceSpec, &melody_workloads::WorkloadSpec)> = target_specs
        .iter()
        .flat_map(|(_, spec)| workloads.iter().map(move |w| (spec, w)))
        .collect();
    let truths = crate::exec::parallel_map(&flat, |(spec, w)| {
        run_pair(&platform, &presets::local_emr(), spec, w, &opts).slowdown
    });

    let mut targets = Vec::new();
    for ((label, _), truth_chunk) in target_specs
        .iter()
        .zip(truths.chunks_exact(workloads.len()))
    {
        let target_profile = profile_of(label);
        let mut rows = Vec::new();
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for ((w, m), &truth) in workloads.iter().zip(&measured).zip(truth_chunk) {
            let demand_gbps = m.local.device_stats.bandwidth_gbps();
            let meas = Measurement {
                local: &m.local.counters,
                on_device: &m.target.counters,
                local_profile,
                device_profile: measured_profile,
                demand_gbps,
            };
            let p = predict_slowdown(&meas, target_profile);
            rows.push((w.name.clone(), p, truth));
            predicted.push(p);
            actual.push(truth);
        }
        let quality = evaluate(&predicted, &actual);
        targets.push((label.to_string(), rows, quality));
    }
    PredictData {
        measured_on: "CXL-A".into(),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_track_actuals() {
        let d = run(Scale::Smoke);
        for (label, _, q) in &d.targets {
            let r = q.correlation.unwrap_or(0.0);
            // NUMA is the furthest extrapolation from a CXL-A measurement
            // (different bandwidth class); allow it a looser bound.
            let floor = if label == "NUMA" { 0.7 } else { 0.8 };
            assert!(
                r > floor,
                "{label}: predicted-vs-actual correlation {r} too weak"
            );
        }
        // Same-family device with the closest spec predicts best in MAE.
        let mae = |l: &str| {
            d.targets
                .iter()
                .find(|(t, _, _)| t == l)
                .expect("target")
                .2
                .mae_pp
        };
        assert!(mae("CXL-B") < 60.0, "CXL-B MAE {}", mae("CXL-B"));
    }
}
