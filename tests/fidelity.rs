//! Fidelity-tier validation: the sampled and fast tiers must track the
//! detailed engine's slowdowns within their documented error bounds, and
//! the sampled tier must keep every determinism contract the detailed
//! tier has (byte-identity across worker counts, exact instruction
//! streams, fault-schedule consistency).
//!
//! Error metric: slowdowns are runtime ratios, so the bound is on the
//! *ratio* error `|s_tier − s_detailed| / (1 + s_detailed)` — the
//! relative error of predicted runtime, which is well-defined for
//! near-zero slowdowns (a plain relative-slowdown error would demand
//! absurd precision from a 1 % slowdown) and tightens absolutely as
//! slowdowns grow. Known limitation (documented in EXPERIMENTS.md):
//! hard-saturating pure-bandwidth kernels (STREAM-class) exceed these
//! bounds; the population below spans latency-bound, compute-bound,
//! bandwidth-bound and cloud classes that stay inside them.

use melody::prelude::*;
use melody_cpu::Fidelity;

/// (workload, detailed slowdown is sanity-checked > this) population:
/// latency-bound (mcf), compute-bound (leela), bandwidth-bound (lbm),
/// graph (bfs), pointer-chasing (omnetpp), cloud (memcached).
const POPULATION: [&str; 6] = [
    "605.mcf",
    "541.leela",
    "519.lbm",
    "bfs-web",
    "520.omnetpp",
    "phoronix.memcached-base",
];

fn opts(fidelity: Fidelity) -> RunOptions {
    RunOptions {
        mem_refs: 60_000,
        fidelity,
        ..Default::default()
    }
}

fn device_pairs() -> [(DeviceSpec, DeviceSpec); 2] {
    [
        (presets::local_emr(), presets::cxl_a()),
        (presets::local_emr(), presets::cxl_b()),
    ]
}

/// Runtime-ratio error between a tier's slowdown and the detailed one.
fn ratio_err(s_tier: f64, s_detailed: f64) -> f64 {
    (s_tier - s_detailed).abs() / (1.0 + s_detailed)
}

#[test]
fn sampled_slowdown_tracks_detailed_within_5_percent() {
    let platform = Platform::emr2s();
    for name in POPULATION {
        let w = registry::by_name(name).expect("workload");
        for (local, target) in device_pairs() {
            let det = run_pair(&platform, &local, &target, &w, &opts(Fidelity::Detailed));
            let smp = run_pair(&platform, &local, &target, &w, &opts(Fidelity::Sampled));
            let err = ratio_err(smp.slowdown, det.slowdown);
            assert!(
                err <= 0.05,
                "{name} on {}: sampled slowdown {:+.4} vs detailed {:+.4} (ratio err {:.3})",
                target.name(),
                smp.slowdown,
                det.slowdown,
                err
            );
        }
    }
}

#[test]
fn fast_slowdown_tracks_detailed_within_15_percent() {
    let platform = Platform::emr2s();
    for name in POPULATION {
        let w = registry::by_name(name).expect("workload");
        for (local, target) in device_pairs() {
            let det = run_pair(&platform, &local, &target, &w, &opts(Fidelity::Detailed));
            let fast = run_pair(&platform, &local, &target, &w, &opts(Fidelity::Fast));
            let err = ratio_err(fast.slowdown, det.slowdown);
            assert!(
                err <= 0.15,
                "{name} on {}: fast slowdown {:+.4} vs detailed {:+.4} (ratio err {:.3})",
                target.name(),
                fast.slowdown,
                det.slowdown,
                err
            );
        }
    }
}

#[test]
fn tiers_classify_memory_sensitivity_identically() {
    // Beyond per-cell bounds: all three tiers must agree on *which*
    // workloads are CXL-sensitive (slowdown above the 30 % screening
    // threshold) — the go/no-go decision the cheap tiers exist to
    // accelerate. Exact rank order may swap between near-ties; the
    // classification may not.
    let platform = Platform::emr2s();
    let (local, target) = (presets::local_emr(), presets::cxl_b());
    let mut classes: Vec<Vec<bool>> = Vec::new();
    for fidelity in [Fidelity::Detailed, Fidelity::Sampled, Fidelity::Fast] {
        classes.push(
            POPULATION
                .iter()
                .map(|name| {
                    let w = registry::by_name(name).expect("workload");
                    let p = run_pair(&platform, &local, &target, &w, &opts(fidelity));
                    p.slowdown > 0.3
                })
                .collect(),
        );
    }
    assert_eq!(classes[0], classes[1], "sampled classification diverges");
    assert_eq!(classes[0], classes[2], "fast classification diverges");
    // Sanity: the population spans both classes.
    assert!(classes[0].iter().any(|&b| b) && classes[0].iter().any(|&b| !b));
}

#[test]
fn sampled_population_is_byte_identical_across_jobs() {
    // The sampled tier inherits the parallel harness's byte-identity
    // contract: same serialized outcomes at any worker count.
    let workloads: Vec<_> = ["605.mcf", "bfs-web", "520.omnetpp"]
        .iter()
        .map(|n| registry::by_name(n).expect("workload"))
        .collect();
    let o = RunOptions {
        mem_refs: 8_000,
        fidelity: Fidelity::Sampled,
        ..Default::default()
    };
    let population = |jobs| {
        melody::exec::parallel_map_with(jobs, &workloads, |w| {
            run_pair(
                &Platform::emr2s(),
                &presets::local_emr(),
                &presets::cxl_a(),
                w,
                &o,
            )
        })
    };
    let serial = population(1);
    for jobs in [1, 4] {
        let par = population(jobs);
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize serial"),
            serde_json::to_string(&par).expect("serialize parallel"),
            "sampled population diverged at {jobs} jobs"
        );
    }
}

#[test]
fn sampled_handoff_preserves_instruction_stream() {
    // Fast-forward skips simulation, not the stream: instruction counts
    // are exact (RNG continuity), so local and target sampled runs — and
    // the detailed run — all retire the same instructions.
    let platform = Platform::emr2s();
    let w = registry::by_name("605.mcf").expect("mcf");
    let det = run_pair(
        &platform,
        &presets::local_emr(),
        &presets::cxl_b(),
        &w,
        &opts(Fidelity::Detailed),
    );
    let smp = run_pair(
        &platform,
        &presets::local_emr(),
        &presets::cxl_b(),
        &w,
        &opts(Fidelity::Sampled),
    );
    assert_eq!(
        smp.local.counters.instructions,
        smp.target.counters.instructions
    );
    assert_eq!(
        det.local.counters.instructions, smp.local.counters.instructions,
        "sampled tier must retire the exact detailed instruction count"
    );
    assert!(
        smp.local.counters.invariants_hold(),
        "{:?}",
        smp.local.counters
    );
    assert!(
        smp.target.counters.invariants_hold(),
        "{:?}",
        smp.target.counters
    );
}

#[test]
fn sampled_faulted_run_keeps_fault_cadence() {
    // Time-driven fault windows keep firing inside fast-forwarded
    // regions (via MemoryDevice::fast_forward), so a sampled run sees a
    // retrain count comparable to the detailed run's, not one scaled
    // down by the detail fraction (~16 %).
    let platform = Platform::emr2s();
    let w = registry::by_name("605.mcf").expect("mcf");
    let fc = melody_mem::FaultConfig::by_name("retrain").expect("regime");
    let target = presets::cxl_b().with_faults(fc);
    let det = run_workload(&platform, &target, &w, &opts(Fidelity::Detailed));
    let smp = run_workload(&platform, &target, &w, &opts(Fidelity::Sampled));
    let (d, s) = (det.device_stats.ras.retrains, smp.device_stats.ras.retrains);
    assert!(d > 0, "detailed run must observe retrains");
    assert!(
        s * 3 >= d && s <= d * 3,
        "sampled retrains {s} not comparable to detailed {d}"
    );
    assert!(smp.counters.invariants_hold(), "{:?}", smp.counters);
}

#[test]
fn fast_tier_needs_no_event_loop_budget() {
    // The fast tier's cost is O(phases), not O(mem_refs): a 100× larger
    // run must not cost 100× the work. Proxy: identical slowdown for
    // scaled mem_refs (the model is closed-form in the per-phase refs).
    let platform = Platform::emr2s();
    let w = registry::by_name("605.mcf").expect("mcf");
    let small = RunOptions {
        mem_refs: 10_000,
        fidelity: Fidelity::Fast,
        ..Default::default()
    };
    let big = RunOptions {
        mem_refs: 1_000_000,
        fidelity: Fidelity::Fast,
        ..Default::default()
    };
    let s = run_pair(
        &platform,
        &presets::local_emr(),
        &presets::cxl_b(),
        &w,
        &small,
    );
    let b = run_pair(
        &platform,
        &presets::local_emr(),
        &presets::cxl_b(),
        &w,
        &big,
    );
    assert!(
        (s.slowdown - b.slowdown).abs() < 0.02,
        "fast tier slowdown must be scale-stable: {} vs {}",
        s.slowdown,
        b.slowdown
    );
}
