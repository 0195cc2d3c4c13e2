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

use crate::journal::Journal;
use crate::report::TableData;

use super::grid::{population, Setup};
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

/// The measured device first, then the predicted targets, all on EMR2S.
const SETUPS: [Setup; 4] = [
    ("CXL-A", Platform::emr2s, presets::cxl_a),
    ("NUMA", Platform::emr2s, presets::numa_emr),
    ("CXL-B", Platform::emr2s, presets::cxl_b),
    ("CXL-D", Platform::emr2s, presets::cxl_d),
];

/// Runs the prediction experiment: measure on CXL-A, predict NUMA,
/// CXL-B and CXL-D, and score against their measured slowdowns. Cells
/// resolve against `journal`.
pub fn run(scale: Scale, journal: &mut Journal) -> PredictData {
    let workloads = scale.select_workloads();
    let g = population(&SETUPS, &workloads, scale, journal);
    let (measured_on, measured) = &g.cells[0];
    let local_profile = profile_of("Local");
    let measured_profile = profile_of(measured_on);

    let mut targets = Vec::new();
    for (label, truths) in &g.cells[1..] {
        let target_profile = profile_of(label);
        let mut rows = Vec::new();
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for (m, t) in measured.iter().zip(truths) {
            let demand_gbps = m.local.device_stats.bandwidth_gbps();
            let meas = Measurement {
                local: &m.local.counters,
                on_device: &m.target.counters,
                local_profile,
                device_profile: measured_profile,
                demand_gbps,
            };
            let p = predict_slowdown(&meas, target_profile);
            rows.push((m.workload.clone(), p, t.slowdown));
            predicted.push(p);
            actual.push(t.slowdown);
        }
        let quality = evaluate(&predicted, &actual);
        targets.push((label.clone(), rows, quality));
    }
    PredictData {
        measured_on: measured_on.clone(),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_track_actuals() {
        let d = run(Scale::Smoke, &mut Journal::in_memory());
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
