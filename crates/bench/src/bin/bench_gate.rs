//! Wall-clock bench-regression gate for CI.
//!
//! Times a fixed set of simulator kernels with [`std::time::Instant`]
//! (min of N timings after one warmup — the minimum is the most
//! layout-noise-resistant point estimate on shared runners; each timing
//! repeats the kernel until it covers at least 50 ms and reports ms per
//! repetition, so no kernel rounds to zero), compares
//! each against the checked-in baseline in the `gate` section of
//! `BENCH_parallel.json`, and exits non-zero when any kernel regresses
//! past the tolerance. Improvements beyond the tolerance pass but are
//! flagged so the baseline gets refreshed.
//!
//! ```sh
//! cargo run --release -p melody-bench --bin bench-gate            # gate
//! cargo run --release -p melody-bench --bin bench-gate -- --update # refresh baseline
//! ```
//!
//! Flags: `--update` rewrites the baseline numbers in place (the rest
//! of `BENCH_parallel.json` is preserved); `--iters N` overrides the
//! timed iteration count; `--tolerance PCT` (or the
//! `MELODY_BENCH_TOLERANCE` env var) overrides the regression budget;
//! `--baseline PATH` points at a different baseline file.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use melody::prelude::*;
use melody_bench::{bench_opts, bench_workloads};
use melody_telemetry::{reset, set_mode, Mode};
use serde::Value;

/// Kernel names, in run order. Each is one simulator hot path the
/// telemetry layer touches: the single-cell pair run, the serial and
/// fanned-out population sweeps, the pair run with metrics enabled, and
/// the same pair run at the two reduced fidelity tiers (these also give
/// CI a speedup record: sampled and fast must stay well under detailed).
const KERNELS: &[&str] = &[
    "run_pair/mcf_cxl_b",
    "population/serial",
    "population/jobs4",
    "run_pair/metrics_on",
    "run_pair/mcf_cxl_b_sampled",
    "run_pair/mcf_cxl_b_fast",
];

fn run_kernel(name: &str, w: &WorkloadSpec, workloads: &[WorkloadSpec], opts: &RunOptions) {
    let platform = Platform::emr2s();
    match name {
        "run_pair/mcf_cxl_b"
        | "run_pair/metrics_on"
        | "run_pair/mcf_cxl_b_sampled"
        | "run_pair/mcf_cxl_b_fast" => {
            black_box(run_pair(
                &platform,
                &presets::local_emr(),
                &presets::cxl_b(),
                w,
                opts,
            ));
        }
        "population/serial" => {
            black_box(run_population(
                &platform,
                &presets::local_emr(),
                &presets::cxl_a(),
                workloads,
                opts,
            ));
        }
        "population/jobs4" => {
            black_box(run_population_par(
                &platform,
                &presets::local_emr(),
                &presets::cxl_a(),
                workloads,
                opts,
            ));
        }
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// Shortest wall-clock span of one timing, in ms.
const MIN_TIMING_MS: f64 = 50.0;

/// Times `name`: one warmup run, then the minimum of `iters` timings, in
/// milliseconds per repetition. Each timing repeats the kernel until it
/// covers [`MIN_TIMING_MS`]. Telemetry mode and the worker pool are
/// configured per kernel and restored afterwards.
fn time_kernel(name: &str, iters: u32) -> f64 {
    let w = registry::by_name("605.mcf").expect("mcf");
    let workloads = bench_workloads();
    let mut opts = bench_opts();
    if name.ends_with("_sampled") {
        // Bench refs are tiny; shrink the schedule proportionally so the
        // kernel actually exercises fast-forward windows.
        opts.fidelity = melody_cpu::Fidelity::Sampled;
        opts.sampling = melody_cpu::SamplingParams {
            warmup_slots: 64,
            window_slots: 256,
            period_slots: 2_048,
        };
    } else if name.ends_with("_fast") {
        opts.fidelity = melody_cpu::Fidelity::Fast;
    }
    if name == "run_pair/metrics_on" {
        set_mode(Mode::Metrics);
    }
    if name == "population/jobs4" {
        melody::exec::set_jobs(4);
    }
    run_kernel(name, &w, &workloads, &opts); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t.elapsed().as_secs_f64() * 1e3 < MIN_TIMING_MS {
            run_kernel(name, &w, &workloads, &opts);
            reps += 1;
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3 / f64::from(reps));
    }
    set_mode(Mode::Off);
    reset();
    melody::exec::set_jobs(0);
    best
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn default_baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json")
}

/// Baseline numbers loaded from the `gate` section.
struct Baseline {
    tolerance_pct: f64,
    iters: u32,
    kernels: Vec<(String, f64)>,
}

fn load_baseline(root: &Value) -> Baseline {
    let gate = get(root, "gate");
    let tolerance_pct = gate
        .and_then(|g| get(g, "tolerance_pct"))
        .and_then(as_f64)
        .unwrap_or(15.0);
    let iters = gate
        .and_then(|g| get(g, "iters"))
        .and_then(as_f64)
        .unwrap_or(3.0) as u32;
    let kernels = gate
        .and_then(|g| get(g, "kernels"))
        .and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| as_f64(v).map(|ms| (k.clone(), ms)))
                .collect()
        })
        .unwrap_or_default();
    Baseline {
        tolerance_pct,
        iters,
        kernels,
    }
}

/// Replaces (or appends) the `gate` section of the baseline file's value
/// tree, preserving every other section.
fn set_gate(root: &mut Value, gate: Value) {
    let Value::Object(pairs) = root else {
        *root = Value::Object(vec![("gate".into(), gate)]);
        return;
    };
    match pairs.iter_mut().find(|(k, _)| k == "gate") {
        Some((_, v)) => *v = gate,
        None => pairs.push(("gate".into(), gate)),
    }
}

fn gate_value(tolerance_pct: f64, iters: u32, measured: &[(String, f64)]) -> Value {
    let kernels = measured
        .iter()
        .map(|(k, ms)| {
            // Four significant digits: microsecond kernels keep theirs.
            let rounded = format!("{ms:.3e}").parse().unwrap_or(*ms);
            (k.clone(), Value::F64(rounded))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        (
            "note".into(),
            Value::Str(format!(
                "min-of-N wall-clock ms per kernel repetition, each timing at least \
                 {MIN_TIMING_MS} ms; measured with nproc = {nproc}; refresh with \
                 `cargo run --release -p melody-bench --bin bench-gate -- --update`"
            )),
        ),
        ("tolerance_pct".into(), Value::F64(tolerance_pct)),
        ("iters".into(), Value::U64(iters as u64)),
        ("kernels".into(), Value::Object(kernels)),
    ])
}

fn main() -> ExitCode {
    let mut update = false;
    let mut baseline_path = default_baseline();
    let mut iters_override: Option<u32> = None;
    let mut tol_override: Option<f64> = std::env::var("MELODY_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--update" => update = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = PathBuf::from(p),
                None => {
                    eprintln!("--baseline expects a path");
                    return ExitCode::from(2);
                }
            },
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => iters_override = Some(n),
                None => {
                    eprintln!("--iters expects a count");
                    return ExitCode::from(2);
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tol_override = Some(t),
                None => {
                    eprintln!("--tolerance expects a percentage");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; usage: bench-gate [--update] [--iters N] [--tolerance PCT] [--baseline PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let mut root: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let baseline = load_baseline(&root);
    let tolerance = tol_override.unwrap_or(baseline.tolerance_pct);
    let iters = iters_override.unwrap_or(baseline.iters);

    println!(
        "== bench gate: min of {iters} timings of >= {MIN_TIMING_MS} ms per kernel, ms per repetition, tolerance +{tolerance:.1}% =="
    );
    let mut measured = Vec::new();
    for name in KERNELS {
        let ms = time_kernel(name, iters);
        println!("  timed {name:24} {ms:>10.4} ms");
        measured.push((name.to_string(), ms));
    }

    if update {
        set_gate(&mut root, gate_value(tolerance, iters, &measured));
        let pretty = match serde_json::to_string_pretty(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot render baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&baseline_path, pretty + "\n") {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("baseline refreshed: {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    println!();
    println!(
        "  {:24} {:>10} {:>10} {:>8}  status",
        "kernel", "baseline", "measured", "delta"
    );
    let mut failed = false;
    for (name, ms) in &measured {
        match baseline.kernels.iter().find(|(k, _)| k == name) {
            Some((_, base)) if *base > 0.0 => {
                let delta = (ms - base) / base * 100.0;
                let status = if delta > tolerance {
                    failed = true;
                    "REGRESSION"
                } else if delta < -tolerance {
                    "improved (refresh baseline with --update)"
                } else {
                    "ok"
                };
                println!("  {name:24} {base:>10.4} {ms:>10.4} {delta:>+7.1}%  {status}");
            }
            _ => {
                failed = true;
                println!(
                    "  {name:24} {:>10} {ms:>10.4} {:>8}  NEW (no baseline; run --update)",
                    "-", "-"
                );
            }
        }
    }
    if failed {
        eprintln!("bench gate FAILED (tolerance +{tolerance:.1}%)");
        return ExitCode::FAILURE;
    }
    println!("bench gate passed");
    ExitCode::SUCCESS
}
