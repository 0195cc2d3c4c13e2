//! End-to-end determinism: identical inputs produce bit-identical
//! results across the whole stack, and different seeds genuinely differ.

use melody::prelude::*;
use melody_workloads::mlc::{loaded_latency, MlcConfig};

/// Runs each workload on EMR local DRAM vs `target` on `jobs` workers
/// (`1` is the plain serial loop), in workload order.
fn population(
    target: &DeviceSpec,
    workloads: &[WorkloadSpec],
    opts: &RunOptions,
    jobs: usize,
) -> Vec<PairOutcome> {
    melody::exec::parallel_map_with(jobs, workloads, |w| {
        run_pair(&Platform::emr2s(), &presets::local_emr(), target, w, opts)
    })
}

#[test]
fn full_stack_run_is_deterministic() {
    let w = registry::by_name("bfs-web").expect("bfs-web");
    let opts = RunOptions {
        mem_refs: 6_000,
        sample_interval_ns: Some(10_000),
        ..Default::default()
    };
    let a = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_c(),
        &w,
        &opts,
    );
    let b = run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_c(),
        &w,
        &opts,
    );
    assert_eq!(a.local.counters, b.local.counters);
    assert_eq!(a.target.counters, b.target.counters);
    assert_eq!(a.local.samples.len(), b.local.samples.len());
    assert_eq!(
        a.target.demand_lat_hist.percentile(99.9),
        b.target.demand_lat_hist.percentile(99.9)
    );
}

#[test]
fn parallel_population_is_byte_identical_to_serial() {
    // The parallel experiment engine's contract: a fanned-out population
    // produces the same values in the same order as the serial loop, for
    // any worker count. Compare full serialized
    // outcomes (counters, histograms, samples — everything) across
    // several workloads and two device pairs.
    let workloads: Vec<_> = ["bfs-web", "605.mcf", "520.omnetpp"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        sample_interval_ns: Some(10_000),
        ..Default::default()
    };
    for target in [presets::cxl_a(), presets::cxl_c()] {
        let serial = population(&target, &workloads, &opts, 1);
        for jobs in [1, 2, 5] {
            let par = population(&target, &workloads, &opts, jobs);
            assert_eq!(
                serde_json::to_string(&serial).expect("serialize serial"),
                serde_json::to_string(&par).expect("serialize parallel"),
                "parallel ({jobs} jobs) vs serial mismatch on {}",
                target.name()
            );
        }
    }
}

#[test]
fn inert_fault_config_is_byte_identical_to_baseline_across_jobs() {
    // The fault layer's zero-cost contract: a device carrying an
    // all-zero (inert) FaultConfig attaches no schedule, draws nothing
    // from any RNG stream, and serializes byte-identically to the
    // pre-fault baseline — at any worker count.
    let workloads: Vec<_> = ["bfs-web", "605.mcf"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        ..Default::default()
    };
    let baseline = presets::cxl_c();
    // Set on the config directly: `with_faults` returns an inert regime's
    // spec unchanged, so only this spelling reaches the device's own
    // inert path.
    let DeviceSpec::Cxl(mut cfg) = presets::cxl_c() else {
        panic!("CXL-C is a CXL preset");
    };
    cfg.faults = Some(melody_mem::FaultConfig::none());
    let inert = DeviceSpec::Cxl(cfg);
    let reference = serde_json::to_string(&population(&baseline, &workloads, &opts, 1))
        .expect("serialize baseline");
    for jobs in [1, 4] {
        let got = population(&inert, &workloads, &opts, jobs);
        assert_eq!(
            reference,
            serde_json::to_string(&got).expect("serialize inert"),
            "inert faults must be invisible at {jobs} jobs"
        );
    }
}

#[test]
fn fault_regime_is_byte_identical_across_worker_counts() {
    // Fixed seed + fixed fault regime → one fault timeline, regardless
    // of how the sweep is fanned out.
    let workloads: Vec<_> = ["bfs-web", "605.mcf", "519.lbm"]
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("workload {n}")))
        .collect();
    let opts = RunOptions {
        mem_refs: 4_000,
        ..Default::default()
    };
    let target = presets::cxl_c().with_faults(melody_mem::FaultConfig::harsh());
    let mut outputs = Vec::new();
    for jobs in [1, 4] {
        let got = population(&target, &workloads, &opts, jobs);
        // The regime must actually fire, or this test guards nothing.
        assert!(
            got.iter().any(|o| !o.target.device_stats.ras.is_zero()),
            "harsh regime must produce RAS events"
        );
        outputs.push(serde_json::to_string(&got).expect("serialize"));
    }
    assert_eq!(outputs[0], outputs[1], "1 job vs 4 jobs under faults");
}

#[test]
fn different_seed_changes_stochastic_outcomes() {
    let w = registry::by_name("bfs-web").expect("bfs-web");
    let mk = |seed| RunOptions {
        mem_refs: 6_000,
        seed,
        ..Default::default()
    };
    let a = run_workload(&Platform::emr2s(), &presets::cxl_c(), &w, &mk(1));
    let b = run_workload(&Platform::emr2s(), &presets::cxl_c(), &w, &mk(2));
    assert_ne!(
        a.counters.cycles, b.counters.cycles,
        "different seeds should perturb the run"
    );
}

#[test]
fn mlc_deterministic() {
    let cfg = MlcConfig {
        total_requests: 10_000,
        ..MlcConfig::default()
    };
    let a = loaded_latency(&presets::cxl_b(), &cfg);
    let b = loaded_latency(&presets::cxl_b(), &cfg);
    assert_eq!(a.latency.percentile(99.9), b.latency.percentile(99.9));
    assert_eq!(a.bandwidth_gbps, b.bandwidth_gbps);
}

#[test]
fn mio_deterministic() {
    let cfg = melody_mio::MioConfig {
        accesses: 8_000,
        noise_threads: 3,
        ..Default::default()
    };
    let a = melody_mio::run(&presets::cxl_c(), &cfg);
    let b = melody_mio::run(&presets::cxl_c(), &cfg);
    assert_eq!(a.tail_gap_ns, b.tail_gap_ns);
    assert_eq!(a.bandwidth_gbps, b.bandwidth_gbps);
}

#[test]
fn registry_and_streams_are_stable() {
    let r1 = registry::all();
    let r2 = registry::all();
    assert_eq!(r1, r2);
    let w = &r1[17];
    let s1: Vec<_> = SlotStream::new(w, 7, 500).collect();
    let s2: Vec<_> = SlotStream::new(w, 7, 500).collect();
    assert_eq!(s1, s2);
}
