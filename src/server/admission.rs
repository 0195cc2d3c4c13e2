//! Admission control: reject campaigns too large to serve *before*
//! queueing them.
//!
//! Cost model: `cells × fidelity weight`, where the weights encode the
//! measured per-cell cost ratio between fidelity tiers (a detailed cell
//! simulates every reference; a sampled cell ~1/10th; the analytical
//! fast tier is near-free). The server compares the cost against its
//! `--admission-limit` and answers `422` with the computed cost when a
//! spec is over budget, so the client learns *how far* over it is and
//! can resubmit at a cheaper tier or smaller grid.

use melody_cpu::Fidelity;
use melody_mem::{DeviceSpec, PolicyKind};

use crate::campaign::CampaignSpec;

/// Outcome of admission assessment for a spec that parsed and expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Number of cells the campaign expands to.
    pub cells: usize,
    /// `cells × fidelity_weight` — compared against the server limit.
    pub cost: u64,
}

/// Relative per-cell cost of a fidelity tier (detailed = 100).
pub fn fidelity_weight(fidelity: Fidelity) -> u64 {
    match fidelity {
        Fidelity::Detailed => 100,
        Fidelity::Sampled => 10,
        Fidelity::Fast => 1,
    }
}

/// Relative cost multiplier of a cell's tiering policy, read from its
/// resolved target. Adaptive policies tap the full load/store stream and
/// run per-epoch migration bookkeeping (×2); `spa-guided` additionally
/// runs a sampled profiling pair to synthesize its guide schedule (×3).
/// A target without a tiering layer pays nothing extra.
pub fn policy_weight(target: &DeviceSpec) -> u64 {
    match target {
        DeviceSpec::Tiered { tiering, .. } if tiering.policy == PolicyKind::SpaGuided => 3,
        DeviceSpec::Tiered { .. } => 2,
        _ => 1,
    }
}

/// Expands `spec` and computes its admission cost. Expansion errors
/// (unknown platform/device/workload names, unknown tiering policies,
/// bad sampling parameters) are returned verbatim — the server maps
/// them to `400 bad-spec`.
pub fn assess(spec: &CampaignSpec) -> Result<Admission, String> {
    let cells = spec.expand()?;
    let weight = cells
        .first()
        .map_or(1, |c| fidelity_weight(c.opts.fidelity));
    let cost = cells
        .iter()
        .map(|c| weight.saturating_mul(policy_weight(&c.target)))
        .fold(0u64, u64::saturating_add);
    Ok(Admission {
        cells: cells.len(),
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(fidelity: Option<&str>) -> CampaignSpec {
        // 1 platform × 2 devices × smoke workloads.
        serde_json::from_str::<CampaignSpec>(&format!(
            "{{\"name\":\"adm\",\"platforms\":[\"emr2s\"],\"devices\":[\"local\",\"cxl-b\"]{}}}",
            match fidelity {
                Some(f) => format!(",\"fidelity\":\"{f}\""),
                None => String::new(),
            }
        ))
        .expect("valid spec")
    }

    #[test]
    fn cost_scales_with_fidelity_weight() {
        let detailed = assess(&spec(Some("detailed"))).expect("assess");
        let sampled = assess(&spec(Some("sampled"))).expect("assess");
        let fast = assess(&spec(Some("fast"))).expect("assess");
        assert_eq!(detailed.cells, sampled.cells);
        assert_eq!(detailed.cost, fast.cost * 100);
        assert_eq!(sampled.cost, fast.cost * 10);
        assert_eq!(fast.cost, fast.cells as u64);
    }

    #[test]
    fn adaptive_policies_cost_more() {
        let base = assess(&spec(Some("fast"))).expect("assess");
        let mut tiered = spec(Some("fast"));
        tiered.policies = vec!["lru-hotness".to_string()];
        let t = assess(&tiered).expect("assess");
        assert_eq!(t.cells, base.cells);
        assert_eq!(t.cost, base.cost * 2);
        tiered.policies = vec!["spa-guided".to_string()];
        assert_eq!(assess(&tiered).expect("assess").cost, base.cost * 3);
        // The static spelling is free, and an unknown one is a bad spec
        // whose message lists the valid spellings.
        tiered.policies = vec!["static".to_string()];
        assert_eq!(assess(&tiered).expect("assess").cost, base.cost);
        tiered.policies = vec!["mru".to_string()];
        let err = assess(&tiered).expect_err("unknown policy");
        assert!(err.contains("lru-hotness"), "{err}");
    }

    #[test]
    fn expansion_errors_propagate() {
        let mut bad = spec(None);
        bad.devices = vec!["warp-drive".to_string()];
        let err = assess(&bad).expect_err("unknown device");
        assert!(err.contains("warp-drive"), "{err}");
    }
}
