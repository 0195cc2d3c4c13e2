//! Figure 9b: YCSB A–F slowdowns on Redis and VoltDB under NUMA, CXL-A
//! and CXL-B — cloud workloads' super-linear sensitivity to latency.

use melody_workloads::registry::ycsb;
use melody_workloads::Suite;
use serde::{Deserialize, Serialize};

use crate::journal::Journal;
use crate::report::TableData;

use super::grid::{population, EMR};
use super::Scale;

/// One bar of Figure 9b.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct YcsbBar {
    /// Backend (`"redis"` / `"voltdb"`).
    pub backend: String,
    /// YCSB mix (A–F).
    pub mix: String,
    /// Device label.
    pub device: String,
    /// Slowdown percent.
    pub slowdown_pct: f64,
}

/// Figure 9b data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09bData {
    /// All bars.
    pub bars: Vec<YcsbBar>,
}

impl Fig09bData {
    /// The bar for (backend, mix, device).
    pub fn bar(&self, backend: &str, mix: &str, device: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|b| b.backend == backend && b.mix == mix && b.device == device)
            .map(|b| b.slowdown_pct)
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        let mut t = TableData::new(
            "fig09b: YCSB slowdowns (%)",
            &["Backend", "Mix", "NUMA", "CXL-A", "CXL-B"],
        );
        for backend in ["redis", "voltdb"] {
            for mix in ["A", "B", "C", "D", "E", "F"] {
                let get = |d: &str| {
                    self.bar(backend, mix, d)
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".into())
                };
                t.push_row(vec![
                    backend.into(),
                    mix.into(),
                    get("EMR-NUMA"),
                    get("EMR-CXL-A"),
                    get("EMR-CXL-B"),
                ]);
            }
        }
        t.render()
    }
}

/// Runs Figure 9b on the first three EMR setups (NUMA, CXL-A, CXL-B),
/// resolving its cells against `journal`.
pub fn run(scale: Scale, journal: &mut Journal) -> Fig09bData {
    let suites = [(Suite::Redis, "redis"), (Suite::Voltdb, "voltdb")];
    let workloads: Vec<_> = suites.iter().flat_map(|(s, _)| ycsb(*s)).collect();
    let g = population(&EMR[..3], &workloads, scale, journal);
    let mut bars = Vec::new();
    for (suite, backend) in suites {
        for (device, outcomes) in &g.cells {
            for o in outcomes.iter().filter(|o| o.suite == suite) {
                let mix = o.workload.rsplit('-').next().unwrap_or("?").to_string();
                bars.push(YcsbBar {
                    backend: backend.into(),
                    mix,
                    device: device.clone(),
                    slowdown_pct: o.slowdown * 100.0,
                });
            }
        }
    }
    Fig09bData { bars }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_slowdowns_grow_superlinearly_with_latency() {
        let d = run(Scale::Smoke, &mut Journal::in_memory());
        assert_eq!(d.bars.len(), 2 * 3 * 6);
        // For each (backend, mix): NUMA < CXL-A < CXL-B, and the increase
        // from NUMA->CXL-B outpaces the latency ratio (271/193 = 1.40).
        let mut super_linear = 0;
        let mut total = 0;
        for backend in ["redis", "voltdb"] {
            for mix in ["A", "B", "C", "D", "F"] {
                let numa = d.bar(backend, mix, "EMR-NUMA").expect("bar");
                let a = d.bar(backend, mix, "EMR-CXL-A").expect("bar");
                let b = d.bar(backend, mix, "EMR-CXL-B").expect("bar");
                assert!(numa <= a + 2.0, "{backend}-{mix}: NUMA {numa} vs A {a}");
                assert!(a <= b + 2.0, "{backend}-{mix}: A {a} vs B {b}");
                total += 1;
                if b > numa * 1.40 {
                    super_linear += 1;
                }
            }
        }
        assert!(
            super_linear * 2 > total,
            "most mixes should scale super-linearly: {super_linear}/{total}"
        );
    }
}
