//! Per-figure/table experiment harnesses.
//!
//! One module per evaluation artefact of the paper; each exposes a
//! `run(scale)` returning serde-serialisable data with a `render()`
//! producing the paper-style rows/series. The experiment↔module map
//! lives in `DESIGN.md`; the measured-vs-paper comparison in
//! `EXPERIMENTS.md`.

pub mod ablation;
pub mod degraded;
pub mod device_curves;
pub mod fig07;
pub mod fig08cd;
pub mod fig09b;
pub mod fig16;
pub mod grid;
pub mod placement;
pub mod predict;
pub mod table1;
pub mod tails;
pub mod tiering;

use serde::{Deserialize, Serialize};

/// Experiment scale: trades fidelity for runtime.
///
/// - `Smoke`: seconds; unit/integration tests.
/// - `Quick`: tens of seconds; Criterion benches and iteration.
/// - `Full`: minutes; the numbers recorded in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Minimal: a handful of workloads, short streams.
    Smoke,
    /// Representative subset.
    Quick,
    /// The paper-scale configuration (all 265 workloads).
    Full,
}

impl Scale {
    /// Parses a scale name: `smoke`, `quick` or `full`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Resolves an optional scale name: `smoke` when absent, an error
    /// listing the valid names when unknown.
    pub fn resolve(name: Option<&str>) -> Result<Scale, String> {
        name.map_or(Ok(Scale::Smoke), |n| {
            Scale::parse(n).ok_or_else(|| format!("unknown scale `{n}` (smoke|quick|full)"))
        })
    }

    /// Memory references per workload run.
    pub fn mem_refs(self) -> u64 {
        match self {
            Scale::Smoke => 8_000,
            Scale::Quick => 30_000,
            Scale::Full => 120_000,
        }
    }

    /// MIO chase accesses per measurement.
    pub fn mio_accesses(self) -> u64 {
        match self {
            Scale::Smoke => 15_000,
            Scale::Quick => 50_000,
            Scale::Full => 200_000,
        }
    }

    /// MLC requests per sweep point.
    pub fn mlc_requests(self) -> u64 {
        match self {
            Scale::Smoke => 10_000,
            Scale::Quick => 30_000,
            Scale::Full => 80_000,
        }
    }

    /// Number of workloads drawn from the registry for population
    /// experiments (always includes the pinned named workloads).
    pub fn grid_workloads(self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Quick => 64,
            Scale::Full => 265,
        }
    }

    /// Selects a deterministic, class-spanning workload subset.
    pub fn select_workloads(self) -> Vec<melody_workloads::WorkloadSpec> {
        let all = melody_workloads::registry::all();
        let n = self.grid_workloads().min(all.len());
        if n == all.len() {
            return all;
        }
        // Evenly strided subset keeps the suite mix representative;
        // pinned paper workloads are forced in.
        let pinned = [
            "605.mcf",
            "520.omnetpp",
            "519.lbm",
            "603.bwaves",
            "503.bwaves",
            "649.fotonik3d",
            "602.gcc",
            "631.deepsjeng",
            "redis.ycsb-C",
        ];
        let mut out: Vec<melody_workloads::WorkloadSpec> = pinned
            .iter()
            .filter_map(|p| all.iter().find(|w| &w.name == p).cloned())
            .collect();
        let stride = all.len() as f64 / n as f64;
        let mut cursor = 0.0f64;
        while out.len() < n && (cursor as usize) < all.len() {
            let cand = &all[cursor as usize];
            if !out.iter().any(|w| w.name == cand.name) {
                out.push(cand.clone());
            }
            cursor += stride;
        }
        // Top up from the front if stride collisions left us short.
        let mut i = 0;
        while out.len() < n && i < all.len() {
            if !out.iter().any(|w| w.name == all[i].name) {
                out.push(all[i].clone());
            }
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_order_sanely() {
        assert!(Scale::Smoke.mem_refs() < Scale::Quick.mem_refs());
        assert!(Scale::Quick.mem_refs() < Scale::Full.mem_refs());
        assert_eq!(Scale::Full.grid_workloads(), 265);
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        for bad in ["", "bogus", "Quick", " full"] {
            assert_eq!(Scale::parse(bad), None, "{bad:?}");
        }
        assert_eq!(Scale::resolve(None), Ok(Scale::Smoke));
        let err = Scale::resolve(Some("bogus")).unwrap_err();
        assert!(err.contains("smoke|quick|full"), "{err}");
    }

    #[test]
    fn selection_includes_pinned_workloads() {
        let sel = Scale::Smoke.select_workloads();
        assert_eq!(sel.len(), 16);
        for p in ["605.mcf", "519.lbm", "603.bwaves"] {
            assert!(sel.iter().any(|w| w.name == p), "missing pinned {p}");
        }
    }

    #[test]
    fn full_selection_is_everything() {
        assert_eq!(Scale::Full.select_workloads().len(), 265);
    }
}
