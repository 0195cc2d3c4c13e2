//! Parallel-engine benchmarks: the `run_pair` hot-path kernel and the
//! serial-vs-parallel population sweep the `--jobs` flag accelerates.
//! Measured numbers are recorded in `BENCH_parallel.json` at the
//! workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use melody::prelude::*;
use melody_bench::{bench_opts, bench_workloads};

/// The single-cell kernel every experiment fans out: one workload on one
/// (local, target) device pair. This is where the hot-path optimizations
/// (no per-slot `Platform` clones, stack-allocated prefetch batches)
/// land.
fn bench_run_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_run_pair");
    g.sample_size(10);
    let w = registry::by_name("605.mcf").expect("mcf");
    g.bench_function("mcf/cxl_b", move |b| {
        let w = w.clone();
        b.iter(|| {
            run_pair(
                &Platform::emr2s(),
                &presets::local_emr(),
                &presets::cxl_b(),
                &w,
                &bench_opts(),
            )
        })
    });
    g.finish();
}

/// End-to-end population sweep, serial vs fanned out: the same
/// (workload × device-pair) cells run through `exec::parallel_map_with`
/// on one worker and `exec::parallel_map` on all cores, so the speedup
/// (and byte-identical output) of the parallel engine is measured at
/// bench scale.
fn bench_population_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_population_sweep");
    g.sample_size(10);
    let workloads = bench_workloads();
    let platform = Platform::emr2s();
    let opts = bench_opts();
    let (local, target) = (presets::local_emr(), presets::cxl_a());
    let pair = |w: &WorkloadSpec| run_pair(&platform, &local, &target, w, &opts);
    g.bench_function("serial", |b| {
        b.iter(|| melody::exec::parallel_map_with(1, &workloads, pair))
    });
    g.bench_function("parallel_all_cores", |b| {
        melody::exec::set_jobs(0); // default: all cores
        b.iter(|| melody::exec::parallel_map(&workloads, pair))
    });
    g.finish();
}

criterion_group!(parallel, bench_run_pair, bench_population_sweep);
criterion_main!(parallel);
