//! Workload execution: single runs, local-vs-target pairs, and
//! populations.

use melody_cpu::{Core, CoreConfig, Fidelity, Platform, RunResult, SamplingParams};
use melody_mem::{DeviceSpec, GuideWindow, PolicyKind};
use melody_spa::{breakdown, Breakdown, BreakdownStream};
use melody_workloads::{SlotStream, Suite, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Options for one workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Memory references to simulate per run (instruction count follows
    /// from the workload's arithmetic intensity).
    pub mem_refs: u64,
    /// Seed for the workload's address stream and the device RNG.
    pub seed: u64,
    /// Periodic counter sampling interval (simulated ns).
    pub sample_interval_ns: Option<u64>,
    /// Hardware prefetchers on/off.
    pub prefetchers: bool,
    /// Simulation fidelity tier (see [`Fidelity`]). Part of result
    /// identity: campaign fingerprints include it, so a sampled or fast
    /// result is never served from cache for a detailed request.
    #[serde(default)]
    pub fidelity: Fidelity,
    /// Sampling schedule for the [`Fidelity::Sampled`] tier; ignored by
    /// the other tiers.
    #[serde(default)]
    pub sampling: SamplingParams,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            mem_refs: 60_000,
            seed: 42,
            sample_interval_ns: None,
            prefetchers: true,
            fidelity: Fidelity::Detailed,
            sampling: SamplingParams::default(),
        }
    }
}

fn workload_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = base ^ 0x6d656c6f6479; // "melody"
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Synthesizes the guide schedule for a top-level
/// [`DeviceSpec::Tiered`] spec running the `spa-guided` policy with an
/// empty guide: a sampled profiling pair (the fast tier alone vs the
/// plain slow tier) is folded through [`BreakdownStream`], and each
/// complete window becomes a [`GuideWindow`] whose `mem_score` is the
/// window's DRAM share of the differential stall breakdown, timestamped
/// from the slow run's sample timeline. Returns `None` when the spec
/// needs no guide (not tiered, not spa-guided, or a guide is already
/// present), so every other policy's spec reaches the simulator
/// untouched. The guide never enters cell fingerprints — identity is
/// the un-guided spec, and the synthesis is deterministic from it.
fn synthesize_spa_guide(
    platform: &Platform,
    device: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> Option<DeviceSpec> {
    let DeviceSpec::Tiered {
        tiering,
        fast,
        slow,
    } = device
    else {
        return None;
    };
    if tiering.policy != PolicyKind::SpaGuided || !tiering.guide.is_empty() {
        return None;
    }
    let popts = RunOptions {
        sample_interval_ns: Some(2_000),
        ..opts.clone()
    };
    let fast_run = run_workload(platform, fast, workload, &popts);
    let slow_run = run_workload(platform, slow, workload, &popts);
    let period = (fast_run.counters.instructions / 24).max(1);
    let mut bs = BreakdownStream::new(period);
    for s in &fast_run.samples {
        bs.push_local(s);
    }
    for s in &slow_run.samples {
        bs.push_target(s);
    }
    let mut guide = Vec::new();
    for w in bs.poll() {
        let boundary = w.index as u64 * period;
        let start_ns = slow_run
            .samples
            .iter()
            .find(|s| s.counters.instructions >= boundary)
            .map(|s| s.time_ns)
            .unwrap_or(0);
        let total = w.breakdown.total.max(1e-9);
        guide.push(GuideWindow {
            start_ps: start_ns * 1_000,
            mem_score: (w.breakdown.dram.max(0.0) / total).clamp(0.0, 1.0),
        });
    }
    if guide.is_empty() {
        return None;
    }
    let mut tc = tiering.clone();
    tc.guide = guide;
    Some(DeviceSpec::Tiered {
        tiering: tc,
        fast: fast.clone(),
        slow: slow.clone(),
    })
}

/// Runs one workload on one device.
pub fn run_workload(
    platform: &Platform,
    device: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> RunResult {
    let scaled = platform.smp_scaled(workload.threads);
    // The fast tier is a closed-form interval model: no core, no warming,
    // no event loop (see [`melody_spa::run_interval`]).
    if opts.fidelity == Fidelity::Fast {
        return melody_spa::run_interval(
            &scaled,
            &device.analytic_profile(),
            workload,
            opts.mem_refs,
            opts.prefetchers,
        );
    }
    // The spa-guided policy consumes a profiling-derived guide schedule;
    // synthesize it here when the spec carries none.
    let guided;
    let device = match synthesize_spa_guide(platform, device, workload, opts) {
        Some(g) => {
            guided = g;
            &guided
        }
        None => device,
    };
    let ipc_peak = scaled.ipc_peak;
    let mut cfg = CoreConfig::new(scaled);
    cfg.prefetchers = opts.prefetchers;
    cfg.sample_interval_ns = opts.sample_interval_ns;
    cfg.frontend_bound = workload.frontend_bound;
    cfg.ilp = (workload.ilp * workload.threads as f64).min(ipc_peak);
    cfg.serialize_frac = workload.serialize_frac;
    let seed = workload_seed(opts.seed, &workload.name);
    let mut core = Core::new(cfg, device.build(seed));
    // Functional warming removes cold-start bias (see [`Core::warm`]).
    // The warmed ranges approximate the steady-state cache contents:
    // phases share one address space rooted at 0, so the *smallest*
    // phase footprint (and any skewed hot region) is warmed at the base,
    // and for overflowing phases the *tail* of the working set, so that
    // streams and uniform-random traffic keep their steady-state miss
    // ratios. The largest set is warmed first so the base region wins
    // cache residency on overlap.
    {
        let cap = core.l3_capacity_bytes();
        let mut phases: Vec<&melody_workloads::Phase> = workload.phases.iter().collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.working_set));
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for p in phases {
            let ws = p.working_set;
            let range = match p.pattern {
                melody_workloads::Pattern::Skewed { hot_bytes, .. } if ws > cap => {
                    (0, hot_bytes.min(cap))
                }
                _ if ws <= cap => (0, ws),
                _ => (ws - cap, ws),
            };
            if !ranges.contains(&range) {
                ranges.push(range);
            }
        }
        for (start, end) in ranges {
            core.warm(start, end);
        }
    }
    // Same stream seed regardless of device: local and target runs
    // execute the identical instruction sequence.
    let stream = SlotStream::new(workload, opts.seed, opts.mem_refs);
    match opts.fidelity {
        Fidelity::Detailed => core.run(stream),
        Fidelity::Sampled => core.run_sampled(stream, opts.sampling),
        Fidelity::Fast => unreachable!("fast tier returns above"),
    }
}

/// Outcome of running one workload on a local baseline and a target
/// device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// Measured slowdown `c_target/c_local − 1` (fraction).
    pub slowdown: f64,
    /// Spa breakdown of the slowdown.
    pub breakdown: Breakdown,
    /// Baseline run.
    pub local: RunResult,
    /// Target run.
    pub target: RunResult,
}

/// Runs a workload against a (local, target) device pair.
pub fn run_pair(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> PairOutcome {
    let local = {
        let _span = melody_telemetry::span("run_pair.local");
        run_workload(platform, local_spec, workload, opts)
    };
    let target = {
        let _span = melody_telemetry::span("run_pair.target");
        run_workload(platform, target_spec, workload, opts)
    };
    let slowdown = target.slowdown_vs(&local);
    let breakdown = breakdown(&local.counters, &target.counters);
    PairOutcome {
        workload: workload.name.clone(),
        suite: workload.suite,
        slowdown,
        breakdown,
        local,
        target,
    }
}

/// Runs a workload population against one device pair, in registry order.
pub fn run_population(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
) -> Vec<PairOutcome> {
    workloads
        .iter()
        .map(|w| run_pair(platform, local_spec, target_spec, w, opts))
        .collect()
}

/// [`run_population`] fanned out over the configured worker pool
/// ([`crate::exec::jobs`]).
///
/// Each (workload, device-pair) cell derives its RNG seed from the cell
/// identity alone (`workload_seed`), and cells share no mutable state,
/// so the result is byte-identical to [`run_population`] — same values,
/// same order — for any worker count.
pub fn run_population_par(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
) -> Vec<PairOutcome> {
    let _span = melody_telemetry::span("population");
    crate::exec::parallel_map(workloads, |w| {
        run_pair(platform, local_spec, target_spec, w, opts)
    })
}

/// [`run_population_par`] with per-cell panic isolation: a workload that
/// panics (bad spec, invalid device config) becomes a structured
/// [`crate::exec::CellError`] instead of killing the sweep, and every
/// other workload still completes. Successful outcomes keep workload
/// order; errors carry the failed workload's name as the cell label.
pub fn run_population_resilient(
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
    policy: &crate::exec::CellPolicy,
) -> (Vec<PairOutcome>, Vec<crate::exec::CellError>) {
    let results = crate::exec::run_cells(
        workloads,
        policy,
        |_, w| w.name.clone(),
        |w| run_pair(platform, local_spec, target_spec, w, opts),
    );
    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(o) => outcomes.push(o),
            Err(e) => errors.push(e),
        }
    }
    (outcomes, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use melody_mem::presets;
    use melody_workloads::registry;

    fn opts() -> RunOptions {
        RunOptions {
            mem_refs: 8_000,
            ..Default::default()
        }
    }

    #[test]
    fn pair_outcome_consistent() {
        let w = registry::by_name("605.mcf").expect("mcf");
        let p = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_b(),
            &w,
            &opts(),
        );
        assert!(
            p.slowdown > 0.2,
            "mcf on CXL-B should slow down: {}",
            p.slowdown
        );
        // Breakdown total equals measured slowdown by construction.
        assert!((p.breakdown.total - p.slowdown).abs() < 1e-9);
        // Identical instruction streams.
        assert_eq!(
            p.local.counters.instructions,
            p.target.counters.instructions
        );
    }

    #[test]
    fn compute_bound_workload_tolerates_cxl() {
        let w = registry::by_name("541.leela").expect("leela");
        let p = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_c(),
            &w,
            &opts(),
        );
        assert!(
            p.slowdown < 0.15,
            "compute-bound leela should tolerate even CXL-C: {}",
            p.slowdown
        );
    }

    #[test]
    fn determinism_across_invocations() {
        let w = registry::by_name("bfs-web").expect("bfs-web");
        let a = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_a(),
            &w,
            &opts(),
        );
        let b = run_pair(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::cxl_a(),
            &w,
            &opts(),
        );
        assert_eq!(a.local.counters, b.local.counters);
        assert_eq!(a.target.counters, b.target.counters);
    }

    #[test]
    fn population_preserves_order() {
        let ws: Vec<_> = registry::all().into_iter().take(3).collect();
        let out = run_population(
            &Platform::emr2s(),
            &presets::local_emr(),
            &presets::numa_emr(),
            &ws,
            &opts(),
        );
        assert_eq!(out.len(), 3);
        for (w, o) in ws.iter().zip(&out) {
            assert_eq!(w.name, o.workload);
        }
    }
}
