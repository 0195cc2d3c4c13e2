//! `melody` — command-line front end to the characterization framework.
//!
//! ```text
//! melody devices                      # list device presets with specs
//! melody workloads [--suite NAME]     # list the 265-workload registry
//! melody probe <device | --topology T> # idle latency + peak bandwidth
//! melody mio <device> [--threads N] [--noise N] [--accesses N]
//! melody mlc <device> [--rw R] [--delay CYCLES] [--requests N]
//! melody run <workload> <device | --topology T> [--refs N]
//!            [--platform NAME] [--json] [--out PATH] [--windows N]
//! melody cpmu <device> [--accesses N] # white-box component attribution
//! melody campaign <spec.json> [--shard i/N] [--journal PATH] [--resume]
//!                 [--topology T] [--json] [--progress]
//! melody degraded [--scale S] [--journal PATH] [--resume] [--limit N] [--json]
//! melody tiering [--scale S] [--json]    # per-policy migration comparison
//! melody trace <device> [--out PATH] [--workloads N] [--refs N]
//! melody diff <a.json> <b.json> [--rel-tol X] [--abs-tol X] [--json]
//! melody report <run.json> [--out PATH]
//! melody serve [--port N] [--state-dir DIR] [--queue-depth N]
//!              [--admission-limit N] [--deadline-ms N] [--max-attempts N]
//!              [--log text|json]
//! melody submit <spec.json> [--server HOST:PORT] [--client NAME]
//!               [--deadline-ms N] [--retries N] [--wait] [--poll-ms N] [--json]
//! melody status [job-id] [--server HOST:PORT] [--result] [--wait] [--watch]
//!               [--poll-ms N] [--json]
//! melody drain [--server HOST:PORT]
//! ```
//!
//! Observability: `--progress` on `campaign`/`run` prints a stderr
//! heartbeat (cells done/total, resolution mix, moving-rate ETA —
//! stdout stays byte-identical); a running server exposes Prometheus
//! text exposition at `GET /metrics` and leveled structured logs via
//! `serve --log json`; `status --watch` follows jobs live, and `--wait`
//! polls with capped backoff starting from `--poll-ms`. See
//! TELEMETRY.md "Live metrics and progress".
//!
//! Devices: local, numa, cxl-a, cxl-b, cxl-c, cxl-d, cxl-a+numa, ...,
//! cxl-d-x2. Platforms: spr2s, emr2s, emr2s-prime, skx2s, skx8s.
//!
//! `--topology <spec.json>` replaces the device keyword with a
//! declarative fabric topology (host / switch / expander nodes; see
//! EXPERIMENTS.md "Topologies"). `probe` and `run` take it instead of
//! the `<device>` positional; `melody campaign --topology T` appends the
//! topology to the campaign spec's device axis. A single-expander
//! topology is byte-identical to naming its device class directly.
//!
//! Global flags: `--jobs N` (worker threads), `--telemetry
//! off|metrics|trace` (instrumentation level, default off — see
//! TELEMETRY.md), `--cadence-ns N` (gauge sampling window), and
//! `--cache DIR` / `--no-cache` (content-addressed result cache; see
//! EXPERIMENTS.md "Campaigns and the result cache"). `melody campaign`
//! expands a platform × device × fault × workload spec into cells,
//! loads warm cells from the cache (default `.melody-cache`), simulates
//! only the misses, and emits byte-identical output for any cache,
//! `--shard i/N` or `--jobs` mix. With
//! telemetry enabled, every command appends a metrics table to its
//! report (stdout) and a wall-clock phase profile to stderr. `melody
//! trace` runs a small deterministic population sweep in trace mode and
//! exports a Chrome `trace_event` JSON viewable in Perfetto; the export
//! is byte-identical for a fixed seed at any `--jobs` setting.
//!
//! `probe`, `mio`, `mlc` and `run` accept `--faults <regime>` to attach a
//! deterministic fault-injection regime (none, crc-storm, retrain,
//! refresh-storm, poison, thermal, harsh) to the device. `degraded`
//! sweeps every regime across the four CXL devices, checkpointing each
//! finished cell to `--journal` so a killed sweep restarted with
//! `--resume` skips finished cells and emits byte-identical output.
//!
//! `probe`, `run` and `campaign` accept `--policy <name>` (static,
//! lru-hotness, clock, bandwidth-aware, spa-guided) to put an online
//! page-migration tier in front of the device: pages start on the slow
//! (target) tier and the policy promotes hot pages into local DRAM at
//! epoch boundaries, with migration traffic costed on the simulated
//! link. `--page-bytes N` and `--migrate-budget-gbps X` tune the page
//! size and the migration pacing budget. `--policy static` never
//! migrates and is byte-identical to omitting the flag. On `campaign`
//! the policy joins the spec's grid as an extra axis (and the cell's
//! cache identity). `melody tiering` runs the standing per-policy
//! comparison on a phased hot/cold workload (see EXPERIMENTS.md
//! "Tiering policies").
//!
//! `run --json` emits a `melody-run` insight document: the whole-run
//! breakdown plus the windowed attribution timeline, flagged anomaly
//! windows, and the full telemetry export (see TELEMETRY.md). `melody
//! diff` compares two such documents (or any two `--json` outputs)
//! under optional tolerances and exits nonzero on divergence — the CI
//! regression gate. `melody report` renders a document into a
//! self-contained static HTML page with inline SVG charts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use melody::prelude::*;
use melody_mem::{CpmuDevice, FaultConfig, PolicyKind, TieringConfig};
use melody_workloads::mlc::{loaded_latency, MlcConfig};
use melody_workloads::Suite;

// Device / platform name resolution lives in `melody::campaign`
// (re-exported through the prelude) so the `campaign` spec expander and
// the CLI agree on the vocabulary.

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of flag `name` parsed as a `T`, `None` when the flag is
/// absent. A value that does not parse exits 2 naming the flag and the
/// `kind` of value it expects.
fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, kind: &str) -> Option<T> {
    let v = flag(args, name)?;
    Some(v.parse().unwrap_or_else(|_| {
        eprintln!("{name} expects {kind}, got {v}");
        std::process::exit(2);
    }))
}

fn flag_u64(args: &[String], name: &str, default: u64) -> u64 {
    flag_parse(args, name, "an integer").unwrap_or(default)
}

fn flag_f64(args: &[String], name: &str) -> Option<f64> {
    flag_parse(args, name, "a number")
}

/// The `--scale` flag (`smoke` when absent); an unknown scale exits 2.
fn scale_flag(args: &[String]) -> Scale {
    Scale::resolve(flag(args, "--scale").as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Attaches the `--faults <regime>` fault-injection regime to a device
/// spec, if requested. An inert regime (`none`) leaves the spec
/// untouched so output stays byte-identical to a fault-free build.
fn apply_faults(spec: DeviceSpec, args: &[String]) -> DeviceSpec {
    let Some(name) = flag(args, "--faults") else {
        return spec;
    };
    let Some(fc) = FaultConfig::by_name(&name) else {
        eprintln!(
            "unknown fault regime `{name}` (known: {})",
            melody_mem::faults::REGIMES.join(", ")
        );
        std::process::exit(2);
    };
    if fc.is_inert() {
        spec
    } else {
        spec.with_faults(fc)
    }
}

/// Attaches a `--policy <name>` adaptive tiering layer to a device
/// spec, with `local` (the platform's local DRAM) as the fast tier.
/// The `static` keyword — and an absent flag — attaches nothing, so
/// output stays byte-identical to a policy-free invocation.
/// `--page-bytes N` and `--migrate-budget-gbps X` tune the config;
/// an unknown policy or invalid knob exits 2 naming every valid
/// spelling, the same convention fault and topology validation use.
fn apply_policy(spec: DeviceSpec, args: &[String], local: &DeviceSpec) -> DeviceSpec {
    let Some(name) = flag(args, "--policy") else {
        return spec;
    };
    let Some(kind) = PolicyKind::parse(&name) else {
        eprintln!("{}", melody_mem::policy::unknown_policy_error(&name));
        std::process::exit(2);
    };
    if kind == PolicyKind::Static {
        return spec;
    }
    let mut tc = TieringConfig::new(kind);
    if let Some(p) = flag_parse(args, "--page-bytes", "an integer") {
        tc.page_bytes = p;
    }
    if let Some(b) = flag_f64(args, "--migrate-budget-gbps") {
        tc.migrate_budget_gbps = b;
    }
    if let Err(e) = tc.validate() {
        eprintln!("tiering: {e}");
        std::process::exit(2);
    }
    spec.with_tiering(tc, local.clone())
}

/// Loads, validates and lowers a `--topology <spec.json>` fabric,
/// exiting 2 with the validation error (which names the offending node
/// and lists the valid spellings) on failure.
fn load_topology_or_exit(path: &str) -> DeviceSpec {
    match TopologySpec::load(path).and_then(|t| t.validate()) {
        Ok(fabric) => fabric.lower(),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Loads and validates a `--topology <spec.json>` fabric for the
/// campaign device axis, keeping the declarative spec (the campaign
/// expander lowers it itself, so it lands in the report under the
/// topology's name).
fn load_topology_spec_or_exit(path: &str) -> TopologySpec {
    match TopologySpec::load(path).and_then(|t| t.validate()) {
        Ok(fabric) => fabric.spec().clone(),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: melody <devices|workloads|probe|mio|mlc|run|cpmu|campaign|degraded|tiering|trace|diff|report|serve|submit|status|drain> [args]\n\
         \u{20}      [--jobs N] [--telemetry off|metrics|trace] [--cadence-ns N]\n\
         \u{20}      [--cache DIR] [--no-cache] [--fidelity detailed|sampled|fast]\n\
         \u{20}      [--sample-warmup N] [--sample-window N] [--sample-period N]\n\
         see `src/bin/melody.rs` header or README for details"
    );
    std::process::exit(2);
}

/// Consumes a global `--jobs N` flag (worker threads for parallel
/// experiment sections; 1 = serial, default = all cores).
fn take_jobs_flag(args: &mut Vec<String>) {
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| usage());
        melody::exec::set_jobs(n);
        args.drain(i..i + 2);
    }
}

/// Consumes the global fidelity flags. `--fidelity detailed|sampled|fast`
/// selects the simulation tier for every run the command performs
/// (default detailed — byte-identical to builds without the flag);
/// `--sample-warmup/-window/-period N` override the sampled tier's
/// schedule in slots. Campaign specs can still override per grid.
fn take_fidelity_flags(args: &mut Vec<String>) {
    if let Some(i) = args.iter().position(|a| a == "--fidelity") {
        let f = args
            .get(i + 1)
            .and_then(|v| melody_cpu::Fidelity::parse(v))
            .unwrap_or_else(|| usage());
        melody::exec::set_fidelity(f);
        args.drain(i..i + 2);
    }
    let (mut warmup, mut window, mut period) = (0u64, 0u64, 0u64);
    for (flag, slot) in [
        ("--sample-warmup", &mut warmup),
        ("--sample-window", &mut window),
        ("--sample-period", &mut period),
    ] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            *slot = args
                .get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| usage());
            args.drain(i..i + 2);
        }
    }
    if warmup + window + period > 0 {
        melody::exec::set_sampling(warmup, window, period);
        if let Err(e) = melody::exec::sampling().validate() {
            eprintln!("invalid sampling schedule: {e}");
            std::process::exit(2);
        }
    }
}

/// Consumes the global telemetry flags: `--telemetry off|metrics|trace`
/// selects the instrumentation level (default off: the zero-cost path,
/// byte-identical output), `--cadence-ns N` sets the gauge sampling
/// window in simulated nanoseconds.
fn take_telemetry_flags(args: &mut Vec<String>) {
    if let Some(i) = args.iter().position(|a| a == "--telemetry") {
        let mode = args
            .get(i + 1)
            .and_then(|v| melody_telemetry::Mode::parse(v))
            .unwrap_or_else(|| usage());
        melody_telemetry::set_mode(mode);
        args.drain(i..i + 2);
    }
    if let Some(i) = args.iter().position(|a| a == "--cadence-ns") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| usage());
        melody_telemetry::set_cadence_ns(n);
        args.drain(i..i + 2);
    }
}

/// Consumes the global cache flags. `--cache DIR` installs a
/// content-addressed result cache rooted at DIR for every
/// cache-aware code path (campaigns, population sweeps, figure
/// drivers); `--no-cache` forces cache-free execution (it also
/// suppresses the default `.melody-cache` that `melody campaign`
/// would otherwise install). Returns `true` when `--no-cache` was
/// given.
fn take_cache_flags(args: &mut Vec<String>) -> bool {
    let mut no_cache = false;
    if let Some(i) = args.iter().position(|a| a == "--no-cache") {
        no_cache = true;
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--cache") {
        let dir = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        args.drain(i..i + 2);
        if no_cache {
            eprintln!("--cache and --no-cache are mutually exclusive");
            std::process::exit(2);
        }
        match ResultCache::open(&dir) {
            Ok(c) => melody::cache::set_global(Some(c)),
            Err(e) => {
                eprintln!("cannot open cache {dir}: {e}");
                std::process::exit(2);
            }
        }
    }
    no_cache
}

/// Drains collected telemetry after a command: metrics join the report
/// on stdout, the wall-clock profile goes to stderr (host time is
/// nondeterministic, so it must never mix into comparable output).
fn finish_telemetry() {
    if !melody_telemetry::metrics_on() {
        return;
    }
    let c = melody_telemetry::collect();
    if !c.metrics.is_empty() {
        print!("{}", c.metrics.render());
    }
    if !c.profile.is_empty() {
        eprint!("{}", c.profile.render());
    }
}

/// RAII guard for the `--progress` stderr heartbeat thread: dropping it
/// stops the thread and, when a cell sink is attached (campaigns),
/// prints the final progress line so short runs still report once.
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    sink: Option<Arc<Progress>>,
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(sink) = &self.sink {
            eprintln!("progress: {}", sink.snapshot().render());
        }
    }
}

/// Spawns the `--progress` heartbeat: every `period` it re-renders the
/// sink's snapshot (or, with no sink, the elapsed wall clock alone —
/// single `run` invocations have no cell grid) and prints the line to
/// stderr when it changed, so a stalled run stays quiet. All output is
/// stderr: comparable stdout is untouched.
fn spawn_heartbeat(sink: Option<Arc<Progress>>, period: Duration) -> HeartbeatGuard {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread_sink = sink.clone();
    let started = std::time::Instant::now();
    let handle = std::thread::spawn(move || {
        let mut last = String::new();
        while !stop2.load(Ordering::Relaxed) {
            let line = match &thread_sink {
                Some(p) => {
                    let s = p.snapshot();
                    // Quiet until begin() sizes the run.
                    if s.total == 0 {
                        String::new()
                    } else {
                        s.render()
                    }
                }
                None => format!("elapsed {}s", started.elapsed().as_secs()),
            };
            if !line.is_empty() && line != last {
                eprintln!("progress: {line}");
                last = line;
            }
            // Sleep in short steps so drop() joins promptly.
            let mut slept = Duration::ZERO;
            while slept < period && !stop2.load(Ordering::Relaxed) {
                let step = (period - slept).min(Duration::from_millis(25));
                std::thread::sleep(step);
                slept += step;
            }
        }
    });
    HeartbeatGuard {
        stop,
        handle: Some(handle),
        sink,
    }
}

/// Consumes the `--progress` flag shared by `campaign` and `run`,
/// arming the process-wide heartbeat period (the flag is a boolean;
/// the period is fixed at 500 ms).
fn progress_requested(args: &[String]) -> bool {
    if args.iter().any(|a| a == "--progress") {
        melody::progress::set_heartbeat_ms(500);
    }
    melody::progress::heartbeat_ms().is_some()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    take_jobs_flag(&mut args);
    take_fidelity_flags(&mut args);
    take_telemetry_flags(&mut args);
    let no_cache = take_cache_flags(&mut args);
    let Some(cmd) = args.first() else { usage() };
    if cmd == "campaign" && !no_cache && !melody::cache::global_enabled() {
        // Campaigns default to a local cache; every other command is
        // cache-free unless --cache is given.
        match ResultCache::open(".melody-cache") {
            Ok(c) => melody::cache::set_global(Some(c)),
            Err(e) => {
                eprintln!("cannot open cache .melody-cache: {e}");
                std::process::exit(2);
            }
        }
    }
    match cmd.as_str() {
        "devices" => cmd_devices(),
        "workloads" => cmd_workloads(&args[1..]),
        "probe" => cmd_probe(&args[1..]),
        "mio" => cmd_mio(&args[1..]),
        "mlc" => cmd_mlc(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "cpmu" => cmd_cpmu(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "degraded" => cmd_degraded(&args[1..]),
        "tiering" => cmd_tiering(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "serve" => cmd_serve(&args[1..], no_cache),
        "submit" => cmd_submit(&args[1..]),
        "status" => cmd_status(&args[1..]),
        "drain" => cmd_drain(&args[1..]),
        _ => usage(),
    }
    // Cache effectiveness is diagnostic output: stderr only, never into
    // comparable stdout.
    if let Some(stats) = melody::cache::global_stats() {
        eprintln!("{}", stats.render());
    }
    finish_telemetry();
}

fn cmd_devices() {
    println!("{:12} {:>12} {:>10}", "device", "nominal(ns)", "class");
    for (name, spec) in [
        ("local", presets::local_emr()),
        ("numa", presets::numa_emr()),
        ("cxl-a", presets::cxl_a()),
        ("cxl-b", presets::cxl_b()),
        ("cxl-c", presets::cxl_c()),
        ("cxl-d", presets::cxl_d()),
        ("cxl-a+numa", presets::cxl_a().with_numa_hop()),
        ("cxl-d+switch", presets::cxl_d().with_switch_hop()),
        ("cxl-d-x2", presets::cxl_d().interleaved(2)),
        ("skx-410", presets::skx8s_410()),
    ] {
        let class = match &spec {
            DeviceSpec::Imc(_) => "iMC",
            DeviceSpec::Cxl(_) => "CXL",
            DeviceSpec::Hopped { .. } => "hopped",
            DeviceSpec::Interleaved { .. } => "interleave",
            DeviceSpec::Split { .. } => "tiered",
            DeviceSpec::Tiered { .. } => "migrating",
            DeviceSpec::Switch { .. } => "switched",
        };
        println!(
            "{:12} {:>12.0} {:>10}",
            name,
            spec.nominal_latency_ns(),
            class
        );
    }
}

fn cmd_workloads(args: &[String]) {
    let suite_filter = flag(args, "--suite");
    let mut shown = 0;
    for w in registry::all() {
        if let Some(f) = &suite_filter {
            if !w.suite.label().eq_ignore_ascii_case(f) {
                continue;
            }
        }
        let p = &w.phases[0];
        println!(
            "{:32} {:10} threads {:>2}  uops/mem {:>6.1}  dep {:>4.2}  ws {:>6} MiB",
            w.name,
            w.suite.label(),
            w.threads,
            p.uops_per_mem,
            p.dependence,
            p.working_set >> 20,
        );
        shown += 1;
    }
    println!("-- {shown} workloads");
    let _ = Suite::Redis; // keep the import meaningful for --suite docs
}

fn cmd_probe(args: &[String]) {
    let device = args.first().filter(|a| !a.starts_with("--"));
    let spec = match (device, flag(args, "--topology")) {
        (Some(_), Some(_)) => {
            eprintln!("probe takes either a device keyword or --topology, not both");
            std::process::exit(2);
        }
        (Some(n), None) => device_by_name(n).unwrap_or_else(|| usage()),
        (None, Some(path)) => load_topology_or_exit(&path),
        (None, None) => usage(),
    };
    let spec = apply_faults(spec, args);
    // Probe has no platform axis; the tiering fast tier is the default
    // platform's local DRAM.
    let spec = apply_policy(spec, args, &presets::local_emr());
    let mut dev = spec.build(1);
    let idle = probe::idle_latency_ns(dev.as_mut(), 5_000);
    let mut dev2 = spec.build(1);
    let bw = probe::peak_bandwidth_gbps(dev2.as_mut(), 1.0, 40_000, 256);
    println!(
        "{}: idle {:.0} ns (nominal {:.0}), peak read {:.1} GB/s",
        spec.name(),
        idle,
        spec.nominal_latency_ns(),
        bw
    );
    print_ras(&{
        let mut ras = dev.stats().ras;
        ras.merge(&dev2.stats().ras);
        ras
    });
}

/// Prints a one-line RAS summary when any fault events occurred.
fn print_ras(ras: &melody_mem::RasCounters) {
    if !ras.is_zero() {
        println!(
            "  ras: corr {} uncorr {} retrains {} refresh {} throttle {:.1} us",
            ras.correctable,
            ras.uncorrectable,
            ras.retrains,
            ras.refresh_storms,
            ras.throttle_ns() as f64 / 1_000.0
        );
    }
}

fn cmd_mio(args: &[String]) {
    let Some(spec) = args.first().and_then(|n| device_by_name(n)) else {
        usage()
    };
    let spec = apply_faults(spec, args);
    let cfg = melody_mio::MioConfig {
        chase_threads: flag_u64(args, "--threads", 1) as usize,
        noise_threads: flag_u64(args, "--noise", 0) as usize,
        accesses: flag_u64(args, "--accesses", 40_000),
        ..Default::default()
    };
    let r = melody_mio::run(&spec, &cfg);
    let p = |pp| melody::report::percentile_cell(&r.latency, pp);
    println!(
        "{}: p50 {} ns  p99 {} ns  p99.9 {} ns  gap {} ns  bw {:.1} GB/s",
        spec.name(),
        p(50.0),
        p(99.0),
        p(99.9),
        r.tail_gap_ns,
        r.bandwidth_gbps
    );
}

fn cmd_mlc(args: &[String]) {
    let Some(spec) = args.first().and_then(|n| device_by_name(n)) else {
        usage()
    };
    let spec = apply_faults(spec, args);
    let read_frac = flag_f64(args, "--rw").unwrap_or(1.0);
    let cfg = MlcConfig {
        read_frac,
        delay_cycles: flag_u64(args, "--delay", 0),
        total_requests: flag_u64(args, "--requests", 40_000),
        ..MlcConfig::default()
    };
    let p = loaded_latency(&spec, &cfg);
    println!(
        "{}: loaded latency {:.0} ns (p99.9 {} ns) at {:.1} GB/s (delay {} cyc, read {:.0}%)",
        spec.name(),
        p.mean_latency_ns(),
        melody::report::percentile_cell(&p.latency, 99.9),
        p.bandwidth_gbps,
        cfg.delay_cycles,
        read_frac * 100.0
    );
    print_ras(&p.stats.ras);
}

fn cmd_run(args: &[String]) {
    let Some(wname) = args.first() else { usage() };
    let Some(w) = registry::by_name(wname) else {
        eprintln!("unknown workload {wname} (try `melody workloads`)");
        std::process::exit(2);
    };
    let device = args.get(1).filter(|a| !a.starts_with("--"));
    let spec = match (device, flag(args, "--topology")) {
        (Some(_), Some(_)) => {
            eprintln!("run takes either a device keyword or --topology, not both");
            std::process::exit(2);
        }
        (Some(dname), None) => device_by_name(dname).unwrap_or_else(|| usage()),
        (None, Some(path)) => load_topology_or_exit(&path),
        (None, None) => usage(),
    };
    let spec = apply_faults(spec, args);
    let platform = flag(args, "--platform")
        .and_then(|p| platform_by_name(&p))
        .unwrap_or_else(Platform::emr2s);
    let opts = RunOptions {
        mem_refs: flag_u64(args, "--refs", 30_000),
        ..Default::default()
    };
    // A single run has no cell grid, so `--progress` reports elapsed
    // wall clock only (no ETA — the n/a convention, not a guess).
    let _heartbeat = progress_requested(args).then(|| {
        let ms = melody::progress::heartbeat_ms().unwrap_or(500);
        spawn_heartbeat(None, Duration::from_millis(ms))
    });
    let local = melody::campaign::local_for_platform(&platform);
    let spec = apply_policy(spec, args, &local);
    if args.iter().any(|a| a == "--json") {
        run_json(args, &platform, &local, &spec, &w, &opts);
        return;
    }
    let pair = run_pair(&platform, &local, &spec, &w, &opts);
    println!(
        "{} on {} ({}): slowdown {:.1}%",
        w.name,
        spec.name(),
        platform.name,
        pair.slowdown * 100.0
    );
    for (label, v) in Breakdown::labels().iter().zip(pair.breakdown.values()) {
        println!("  {label:6} {:>6.1}%", v * 100.0);
    }
    println!(
        "  ipc {:.2} -> {:.2}; demand p99.9 {} -> {} ns",
        pair.local.ipc(),
        pair.target.ipc(),
        melody::report::percentile_cell(&pair.local.demand_lat_hist, 99.9),
        melody::report::percentile_cell(&pair.target.demand_lat_hist, 99.9)
    );
    print_ras(&pair.target.device_stats.ras);
    if pair.target.counters.machine_checks > 0 {
        println!("  machine checks: {}", pair.target.counters.machine_checks);
    }
}

/// `melody run ... --json`: runs the pair with tracing forced on (each
/// side captured privately, so events never mix) and emits the
/// `melody-run` insight document — whole-run breakdown, windowed
/// attribution timeline, anomaly windows, and the merged telemetry
/// export. `--out PATH` additionally writes the document to a file;
/// `--windows N` sets the timeline resolution.
fn run_json(
    args: &[String],
    platform: &Platform,
    local_spec: &DeviceSpec,
    target_spec: &DeviceSpec,
    w: &WorkloadSpec,
    opts: &RunOptions,
) {
    let cfg = melody_insight::InsightConfig {
        windows: flag_u64(args, "--windows", 24) as usize,
        ..Default::default()
    };
    let (local_run, _l_events, l_dropped, l_metrics) =
        melody::exec::traced(|| melody::run_workload(platform, local_spec, w, opts));
    let (target_run, t_events, t_dropped, t_metrics) =
        melody::exec::traced(|| melody::run_workload(platform, target_spec, w, opts));
    let mut metrics = l_metrics;
    metrics.merge(&t_metrics);
    let meta = melody_insight::RunMeta {
        workload: w.name.clone(),
        suite: w.suite.label().to_string(),
        platform: platform.name.clone(),
        local_device: local_spec.name(),
        target_device: target_spec.name(),
        seed: opts.seed,
        mem_refs: opts.mem_refs,
        faults: flag(args, "--faults").unwrap_or_default(),
        policy: flag(args, "--policy")
            .filter(|p| p != "static")
            .unwrap_or_default(),
    };
    let doc = melody_insight::build_run_doc(
        meta,
        &local_run,
        &target_run,
        &t_events,
        l_dropped + t_dropped,
        melody_telemetry::TelemetryExport::from_registry(&metrics),
        &cfg,
    );
    let json = melody::report::to_json(&doc);
    if let Some(path) = flag(args, "--out") {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {path}: {} windows, {} anomaly(ies)",
            doc.timeline.len(),
            doc.anomalies.len()
        );
    } else {
        println!("{json}");
    }
}

/// Reads a JSON document for `diff`/`report`, exiting 2 with a clear
/// message when the path is a directory, unreadable, or an empty file —
/// those used to fall through to a raw deserialize error.
fn read_json_text(path: &str) -> String {
    match std::fs::metadata(path) {
        Ok(m) if m.is_dir() => {
            eprintln!("{path}: is a directory, not a JSON document");
            std::process::exit(2);
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    if text.trim().is_empty() {
        eprintln!("{path}: empty file, expected a JSON document");
        std::process::exit(2);
    }
    text
}

/// `melody diff <a.json> <b.json>`: structural diff of two `--json`
/// documents under optional `--rel-tol` / `--abs-tol` tolerances.
/// Prints the human delta table (or the machine verdict with `--json`)
/// and exits 0 when identical/within tolerance, 1 on divergence, 2 on
/// usage or I/O errors — CI gates on the exit code.
fn cmd_diff(args: &[String]) {
    // The two documents are the positional (non-flag) arguments, in any
    // interleaving with the flags: `diff --json a b` works like
    // `diff a b --json`.
    let mut paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rel-tol" | "--abs-tol" => i += 2,
            s if s.starts_with("--") => i += 1,
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let [path_a, path_b] = paths[..] else { usage() };
    let read = |path: &String| -> serde::Value {
        let text = read_json_text(path);
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("{path}: not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let a = read(path_a);
    let b = read(path_b);
    let opts = melody_insight::DiffOptions {
        rel_tol: flag_f64(args, "--rel-tol").unwrap_or(0.0),
        abs_tol: flag_f64(args, "--abs-tol").unwrap_or(0.0),
    };
    let verdict = melody_insight::diff_values(&a, &b, &opts);
    if args.iter().any(|x| x == "--json") {
        println!("{}", melody::report::to_json(&verdict));
    } else {
        print!(
            "{} vs {}: {}",
            path_a,
            path_b,
            melody_insight::render_delta_table(&verdict)
        );
    }
    if !verdict.within_tolerance {
        std::process::exit(1);
    }
}

/// `melody report <run.json>`: renders a `melody-run` document into a
/// self-contained static HTML page (inline SVG charts, inline CSS, no
/// scripts or external assets) at `--out` (default `report.html`).
fn cmd_report(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let text = read_json_text(path);
    let doc: melody_insight::RunDoc = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not a melody-run document: {e}");
        std::process::exit(2);
    });
    if doc.kind != melody_insight::doc::RUN_DOC_KIND {
        eprintln!(
            "{path}: kind `{}` is not `{}`",
            doc.kind,
            melody_insight::doc::RUN_DOC_KIND
        );
        std::process::exit(2);
    }
    let out_path = flag(args, "--out").unwrap_or_else(|| "report.html".to_string());
    let html = melody_insight::render_run_html(&doc);
    if let Err(e) = std::fs::write(&out_path, &html) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "{} -> {out_path}: {} on {}, {} window(s), {} anomaly(ies)",
        path,
        doc.meta.workload,
        doc.meta.target_device,
        doc.timeline.len(),
        doc.anomalies.len()
    );
}

fn cmd_cpmu(args: &[String]) {
    let Some(spec) = args.first().and_then(|n| device_by_name(n)) else {
        usage()
    };
    let accesses = flag_u64(args, "--accesses", 40_000);
    let mut dev = CpmuDevice::new(spec.build(1));
    let mut rng = melody_sim::SimRng::seed_from(0xC11);
    let mut t = 0;
    for _ in 0..accesses {
        let addr = rng.below(1 << 26) * 64;
        let a = dev.access(&melody_mem::MemRequest::new(
            addr,
            melody_mem::RequestKind::DemandRead,
            t,
        ));
        t = a.completion;
    }
    let r = dev.report();
    println!(
        "{}: total p50/p99.9 = {}/{} ns | p99.9 by component: queue {} dram {} fabric {} spike {} | dominant: {}",
        spec.name(),
        r.total.percentile(50.0),
        r.total.percentile(99.9),
        r.queue.percentile(99.9),
        r.dram.percentile(99.9),
        r.fabric.percentile(99.9),
        r.spike.percentile(99.9),
        r.dominant_tail_component()
    );
}

/// `melody campaign <spec.json>`: expands the spec's
/// platform × device × fault × workload grid, loads warm cells from the
/// content-addressed result cache (default `.melody-cache`, override
/// with `--cache DIR`, disable with `--no-cache`), dispatches only the
/// misses to the worker pool, and renders the campaign table (or the
/// JSON document with `--json`). `--shard i/N` runs the i-th of N
/// interleaved slices; `--journal PATH` + `--resume` checkpoint and
/// resume exactly like `melody degraded`. Output is byte-identical for
/// any cache, shard or `--jobs` mix.
fn cmd_campaign(args: &[String]) {
    use melody::journal::Journal;

    // The spec path is the first positional; values of valued flags
    // (`--shard 0/2`, `--journal j.log`, `--topology t.json`,
    // `--policy lru-hotness`, ...) are not positionals and must be
    // skipped.
    let valued_flags = [
        "--shard",
        "--journal",
        "--topology",
        "--policy",
        "--page-bytes",
        "--migrate-budget-gbps",
    ];
    let mut spec_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued_flags.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            spec_path = Some(a);
            break;
        }
    }
    let Some(spec_path) = spec_path else {
        eprintln!("campaign requires a spec file (see datasets/grid_quick.json)");
        std::process::exit(2);
    };
    let mut spec = CampaignSpec::load(spec_path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(tp) = flag(args, "--topology") {
        spec.topologies.push(load_topology_spec_or_exit(&tp));
    }
    // `--policy NAME` appends to the spec's tiering-policy axis (the
    // expander validates the name; an unknown one exits 2 listing the
    // valid spellings). Knob flags override the spec's values.
    if let Some(p) = flag(args, "--policy") {
        spec.policies.push(p);
    }
    if let Some(p) = flag_parse(args, "--page-bytes", "an integer") {
        spec.page_bytes = Some(p);
    }
    if let Some(b) = flag_f64(args, "--migrate-budget-gbps") {
        spec.migrate_budget_gbps = Some(b);
    }
    let shard = match flag(args, "--shard") {
        Some(s) => Shard::parse(&s).unwrap_or_else(|| {
            eprintln!("bad --shard `{s}` (expected i/N with i < N)");
            std::process::exit(2);
        }),
        None => Shard::full(),
    };
    let resume = args.iter().any(|a| a == "--resume");
    let mut journal = match flag(args, "--journal") {
        Some(path) => {
            if !resume {
                // A fresh (non---resume) campaign starts from a clean
                // journal; stale entries would silently skip cells.
                let _ = std::fs::remove_file(&path);
            }
            Journal::open(&path).unwrap_or_else(|e| {
                eprintln!("cannot open journal {path}: {e}");
                std::process::exit(2);
            })
        }
        None => {
            if resume {
                eprintln!("--resume requires --journal PATH");
                std::process::exit(2);
            }
            Journal::in_memory()
        }
    };
    warn_torn_journal(&journal, resume);
    let mut policy = melody::exec::CellPolicy::default();
    let heartbeat = if progress_requested(args) {
        let sink = Arc::new(Progress::default());
        policy = policy.with_progress(Arc::clone(&sink));
        let ms = melody::progress::heartbeat_ms().unwrap_or(500);
        Some(spawn_heartbeat(Some(sink), Duration::from_millis(ms)))
    } else {
        None
    };
    let run = melody::cache::with_global(|cache| {
        run_campaign(&spec, shard, &mut journal, cache, &policy)
    })
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Stop the heartbeat (printing its final line) before the stats
    // render so the stderr stream reads in order.
    drop(heartbeat);
    // Resolution provenance differs between warm/cold/resumed runs, so
    // it goes to stderr; stdout stays byte-comparable.
    eprintln!("{}", run.stats.render());
    let report = run.report;
    if args.iter().any(|a| a == "--json") {
        if melody_telemetry::metrics_on() {
            // Same document shape as `degraded --json --telemetry`: the
            // report plus the telemetry export as one JSON object.
            let c = melody_telemetry::collect();
            let export = telemetry_export_with_exec_counters(&c.metrics);
            println!(
                "{{\"report\":{},\"telemetry\":{}}}",
                melody::report::to_json(&report),
                serde_json::to_string(&export).expect("telemetry export serialize")
            );
            if !c.profile.is_empty() {
                eprint!("{}", c.profile.render());
            }
        } else {
            println!("{}", melody::report::to_json(&report));
        }
    } else {
        print!("{}", report.render());
    }
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

/// Surfaces a journal's dropped torn tail as a counted warning on
/// `--resume` (a fresh run truncates the journal, so there is nothing
/// to warn about).
fn warn_torn_journal(journal: &melody::journal::Journal, resume: bool) {
    if resume && journal.torn_lines() > 0 {
        let path = journal
            .path()
            .map_or_else(|| "<memory>".to_string(), |p| p.display().to_string());
        eprintln!(
            "warning: dropped {} torn trailing record(s) from {path} (those cells will re-run)",
            journal.torn_lines()
        );
    }
}

/// The telemetry export with the process-global execution-robustness
/// counters folded in: retries, watchdog deadline hits and
/// cancellations are counted even for attempts whose in-capture
/// telemetry buffers were dropped on failure, so the export is the one
/// place `--json` consumers can read exact totals.
fn telemetry_export_with_exec_counters(
    metrics: &melody_telemetry::MetricsRegistry,
) -> melody_telemetry::TelemetryExport {
    let mut export = melody_telemetry::TelemetryExport::from_registry(metrics);
    let rs = melody::exec::retry_stats();
    export
        .counters
        .insert("exec.cell_retries_total".to_string(), rs.retries);
    export.counters.insert(
        "exec.cell_deadlines_total".to_string(),
        rs.deadline_exceeded,
    );
    export
        .counters
        .insert("exec.cells_cancelled_total".to_string(), rs.cancelled);
    export
}

fn cmd_degraded(args: &[String]) {
    use melody::experiments::degraded;
    use melody::journal::Journal;

    let scale = scale_flag(args);
    let resume = args.iter().any(|a| a == "--resume");
    let mut journal = match flag(args, "--journal") {
        Some(path) => {
            if !resume {
                // A fresh (non---resume) sweep starts from a clean
                // journal; stale entries would silently skip cells.
                let _ = std::fs::remove_file(&path);
            }
            Journal::open(&path).unwrap_or_else(|e| {
                eprintln!("cannot open journal {path}: {e}");
                std::process::exit(2);
            })
        }
        None => {
            if resume {
                eprintln!("--resume requires --journal PATH");
                std::process::exit(2);
            }
            Journal::in_memory()
        }
    };
    warn_torn_journal(&journal, resume);
    let limit = flag_parse(args, "--limit", "an integer");
    let report = degraded::run_with(
        scale,
        &degraded::standard_cells(),
        &mut journal,
        limit,
        &melody::exec::CellPolicy::default(),
    );
    if args.iter().any(|a| a == "--json") {
        if melody_telemetry::metrics_on() {
            // Fold the telemetry export into the JSON document rather
            // than breaking it with a trailing table: full percentile
            // summaries (p50/p95/p99/p99.9/max, n) and gauge window
            // series, so `melody diff` and external tooling consume
            // them without re-parsing rendered text. The profile still
            // goes to stderr: wall-clock values are nondeterministic.
            let c = melody_telemetry::collect();
            let export = telemetry_export_with_exec_counters(&c.metrics);
            println!(
                "{{\"report\":{},\"telemetry\":{}}}",
                melody::report::to_json(&report),
                serde_json::to_string(&export).expect("telemetry export serialize")
            );
            if !c.profile.is_empty() {
                eprint!("{}", c.profile.render());
            }
        } else {
            println!("{}", melody::report::to_json(&report));
        }
    } else {
        print!("{}", report.render());
    }
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

/// `melody tiering [--scale S] [--json]`: runs the per-policy online
/// migration comparison (every [`melody_mem::POLICIES`] entry on the
/// phased hot/cold workload over CXL-B) and renders the slowdown /
/// migration-traffic table, or the JSON document with `--json`.
fn cmd_tiering(args: &[String]) {
    use melody::experiments::tiering;

    let scale = scale_flag(args);
    let data = tiering::run(scale);
    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&data).expect("tiering data serializes")
        );
    } else {
        print!("{}", data.render());
    }
}

/// `melody trace <device>`: runs a small deterministic population sweep
/// in trace mode and exports the collected events as Chrome
/// `trace_event` JSON (open in Perfetto or `chrome://tracing`).
///
/// The sweep goes through the parallel harness, so `--jobs` exercises
/// the worker pool — and the export is still byte-identical at any
/// worker count, which CI enforces with `cmp`.
fn cmd_trace(args: &[String]) {
    let Some(dname) = args.first() else { usage() };
    let Some(spec) = device_by_name(dname) else {
        usage()
    };
    let spec = apply_faults(spec, args);
    melody_telemetry::set_mode(melody_telemetry::Mode::Trace);
    let out_path = flag(args, "--out").unwrap_or_else(|| format!("trace_{dname}.json"));
    let n = flag_u64(args, "--workloads", 6) as usize;
    let workloads: Vec<_> = registry::all().into_iter().take(n).collect();
    let opts = RunOptions {
        mem_refs: flag_u64(args, "--refs", 4_000),
        ..Default::default()
    };
    let platform = Platform::emr2s();
    let local = presets::local_emr();
    let outcomes = run_population_par(&platform, &local, &spec, &workloads, &opts);
    let c = melody_telemetry::collect();
    let trace = c.chrome_trace();
    if let Err(e) = std::fs::write(&out_path, &trace) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "{}: traced {} cells, {} events ({} dropped) -> {}",
        spec.name(),
        outcomes.len(),
        c.events.len(),
        c.dropped,
        out_path
    );
    print!("{}", c.metrics.render());
    if !c.profile.is_empty() {
        eprint!("{}", c.profile.render());
    }
}

/// First non-flag argument, skipping the *values* of flags that take
/// one (so `status --server H:P job-000001` finds the job id, not the
/// address).
fn positional(args: &[String], value_flags: &[&str]) -> Option<String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            return Some(a.clone());
        }
    }
    None
}

/// Flags-with-values shared by the client subcommands, for
/// [`positional`].
const CLIENT_VALUE_FLAGS: &[&str] = &[
    "--server",
    "--client",
    "--deadline-ms",
    "--retries",
    "--poll-ms",
    "--timeout-s",
];

fn server_flag(args: &[String]) -> String {
    flag(args, "--server").unwrap_or_else(|| melody::server::DEFAULT_ADDR.to_string())
}

/// `melody serve`: runs the campaign service in the foreground until it
/// drains (SIGTERM, SIGINT or `POST /v1/drain`). See
/// `melody::server` for the API and robustness model. The global
/// `--cache DIR` flag selects the server's result cache (default
/// `.melody-cache`; `--no-cache` disables warm starts).
fn cmd_serve(args: &[String], no_cache: bool) {
    use melody::server::{signal, ServeConfig, Server};

    let mut cfg = ServeConfig::default();
    if let Some(h) = flag(args, "--addr") {
        cfg.host = h;
    }
    if let Some(p) = flag(args, "--port") {
        cfg.port = p.parse().unwrap_or_else(|_| usage());
    }
    if let Some(d) = flag(args, "--state-dir") {
        cfg.state_dir = d.into();
    }
    cfg.queue_depth = flag_u64(args, "--queue-depth", cfg.queue_depth as u64) as usize;
    cfg.admission_limit = flag_u64(args, "--admission-limit", cfg.admission_limit);
    if let Some(ms) = flag(args, "--deadline-ms") {
        cfg.default_deadline_ms = Some(ms.parse().unwrap_or_else(|_| usage()));
    }
    cfg.max_attempts = flag_u64(args, "--max-attempts", u64::from(cfg.max_attempts)) as u32;
    if let Some(fmt) = flag(args, "--log") {
        match melody::server::log::LogFormat::parse(&fmt) {
            Some(f) => melody::server::log::set_format(f),
            None => usage(),
        }
    }
    // The server owns a private cache handle: the process-global one is
    // held locked for a whole campaign, which would block health and
    // status queries while a job runs.
    cfg.cache_dir = if no_cache {
        None
    } else {
        melody::cache::with_global(|c| c.map(|c| c.root().to_path_buf()))
            .or_else(|| Some(".melody-cache".into()))
    };
    melody::cache::set_global(None);
    signal::install_drain_handler();
    let handle = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(2);
    });
    // One parseable line so scripts can discover an ephemeral port.
    println!("melody-serve: listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    eprintln!("melody-serve: drained cleanly");
}

/// `melody submit <spec.json>`: submits a campaign to a running server.
/// Prints the job id (or the full reply with `--json`); `--retries N`
/// retries `429 Busy` rejections with capped exponential backoff;
/// `--wait` polls until the job finishes and prints its result — the
/// exact bytes `melody campaign --json` would emit. Exit codes: 0
/// accepted/succeeded, 1 the job itself failed or was interrupted, 2
/// client/usage errors (unreachable server, bad spec, ...).
fn cmd_submit(args: &[String]) {
    use melody::server::client::{self, RetrySchedule};

    let Some(spec_path) = positional(args, CLIENT_VALUE_FLAGS) else {
        eprintln!("submit requires a spec file (see datasets/grid_quick.json)");
        std::process::exit(2);
    };
    let spec_text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(2);
    });
    // Validate locally first: a bad spec should fail with a clear
    // message even when the server is unreachable.
    if let Err(e) = serde_json::from_str::<CampaignSpec>(&spec_text) {
        eprintln!("{spec_path}: not a campaign spec: {e:?}");
        std::process::exit(2);
    }
    let server = server_flag(args);
    let client_name = flag(args, "--client");
    let deadline_ms = flag(args, "--deadline-ms").map(|v| v.parse().unwrap_or_else(|_| usage()));
    let schedule = RetrySchedule {
        max_retries: flag_u64(args, "--retries", 0) as u32,
        ..Default::default()
    };
    match client::submit_with_retry(
        &server,
        &spec_text,
        client_name.as_deref(),
        deadline_ms,
        &schedule,
    ) {
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Ok((reply, retries)) => {
            if retries > 0 {
                eprintln!("submitted after {retries} backpressure retry(ies)");
            }
            eprintln!(
                "accepted {}: {} cells, cost {}, {} job(s) ahead",
                reply.job_id, reply.total_cells, reply.cost, reply.position
            );
            if args.iter().any(|a| a == "--wait") {
                wait_and_print_result(&server, &reply.job_id, args);
            } else if args.iter().any(|a| a == "--json") {
                println!(
                    "{}",
                    serde_json::to_string(&reply).expect("reply serializes")
                );
            } else {
                println!("{}", reply.job_id);
            }
        }
    }
}

/// Waits for a job and streams its result to stdout. Exits 1 when the
/// job failed or was interrupted, 2 on client errors. The poll sleep
/// starts at `--poll-ms` and backs off (doubling, capped at 5 s) while
/// the job's state is unchanged, snapping back when it moves.
fn wait_and_print_result(server: &str, id: &str, args: &[String]) {
    use melody::server::api::JobStatus;
    use melody::server::client::{self, RetrySchedule};

    let poll = Duration::from_millis(flag_u64(args, "--poll-ms", 200));
    let timeout = Duration::from_secs(flag_u64(args, "--timeout-s", 600));
    let schedule = RetrySchedule {
        max_retries: 0,
        base: poll,
        cap: poll.max(Duration::from_secs(5)),
    };
    let view = client::wait_with_backoff(server, id, &schedule, timeout).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if view.status == JobStatus::Interrupted {
        eprintln!("job {id} was interrupted by a drain; restart the server to resume it");
        std::process::exit(1);
    }
    match client::job_result(server, id) {
        Ok(bytes) => {
            use std::io::Write as _;
            let mut out = std::io::stdout();
            let _ = out.write_all(&bytes);
            let _ = out.flush();
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    if view.status == JobStatus::Failed {
        eprintln!(
            "job {id} failed: {}",
            view.error
                .unwrap_or_else(|| "cell errors in report".to_string())
        );
        std::process::exit(1);
    }
}

/// One human status line for a job, shared by `status` and `--watch`:
/// the lifecycle line, plus live progress and per-job result-cache
/// accounting when the server reports them.
fn status_line(view: &melody::server::api::JobView) -> String {
    let mut line = format!(
        "{} [{}] {}: {} — {}/{} cells journaled",
        view.id,
        view.client,
        view.campaign,
        view.status.label(),
        view.cells_journaled,
        view.total_cells
    );
    if let Some(p) = &view.progress {
        line.push_str(&format!(" — {}", p.render()));
    }
    if let Some(stats) = &view.stats {
        line.push_str(&format!(" ({})", stats.render()));
    }
    if let Some(cache) = &view.cache {
        line.push_str(&format!(" ({})", cache.render()));
    }
    if let Some(err) = &view.error {
        line.push_str(&format!(" — {err}"));
    }
    line
}

/// `melody status --watch`: live-refreshing job view. With a job id it
/// follows that job; without one it follows every job the server
/// knows. Returns once everything being watched has finished (or was
/// interrupted). On a terminal the block redraws in place; on a pipe
/// each changed line prints once, so captured logs read as a monotonic
/// progress history.
fn watch_status(server: &str, id: Option<&str>, poll: Duration) {
    use melody::server::api::JobStatus;
    use melody::server::client;
    use std::io::{IsTerminal as _, Write as _};

    let tty = std::io::stdout().is_terminal();
    let mut prev_lines = 0usize;
    let mut last_block = String::new();
    loop {
        let views = match id {
            Some(id) => client::job_status(server, id).map(|v| vec![v]),
            None => client::list_jobs(server),
        }
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let mut lines: Vec<String> = views.iter().map(status_line).collect();
        if lines.is_empty() {
            lines.push("no jobs".to_string());
        }
        let block = lines.join("\n");
        let mut out = std::io::stdout();
        if tty {
            if prev_lines > 0 {
                // Cursor up over the previous block; each line is
                // cleared before being rewritten.
                let _ = write!(out, "\x1b[{prev_lines}A");
            }
            for line in &lines {
                let _ = writeln!(out, "\x1b[2K{line}");
            }
            prev_lines = lines.len();
        } else if block != last_block {
            for line in &lines {
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = out.flush();
        last_block = block;
        let all_finished = views
            .iter()
            .all(|v| v.status.is_finished() || v.status == JobStatus::Interrupted);
        if all_finished {
            return;
        }
        std::thread::sleep(poll);
    }
}

/// `melody status [job-id]`: without an id, prints the server health
/// overview; with one, that job's status (`--json` for the machine
/// form, `--result` for the finished report bytes, `--wait` to poll
/// until it finishes, `--watch` for a live-refreshing view).
/// Unreachable servers, malformed responses and unknown job ids exit 2
/// with a clear message.
fn cmd_status(args: &[String]) {
    use melody::server::client;

    let server = server_flag(args);
    let id = positional(args, CLIENT_VALUE_FLAGS);
    if args.iter().any(|a| a == "--watch") {
        let poll = Duration::from_millis(flag_u64(args, "--poll-ms", 500));
        watch_status(&server, id.as_deref(), poll);
        return;
    }
    let Some(id) = id else {
        let health = client::health(&server).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if args.iter().any(|a| a == "--json") {
            println!(
                "{}",
                serde_json::to_string(&health).expect("health serializes")
            );
        } else {
            println!(
                "server {server}: {} ({} queued, {} running, {} done, {} failed, {} interrupted)",
                health.status,
                health.queued,
                health.running,
                health.done,
                health.failed,
                health.interrupted
            );
            println!(
                "  submissions: {} accepted, {} busy-rejected, {} admission-rejected",
                health.accepted, health.rejected_busy, health.rejected_admission
            );
            println!("  uptime: {}s", health.uptime_ms / 1_000);
            if let Some(p) = &health.progress {
                println!("  running job: {}", p.render());
            }
            if let Some(cache) = health.cache {
                println!("  {}", cache.render());
            }
        }
        return;
    };
    if args.iter().any(|a| a == "--wait") {
        wait_and_print_result(&server, &id, args);
        return;
    }
    let view = client::job_status(&server, &id).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--result") {
        match client::job_result(&server, &id) {
            Ok(bytes) => {
                use std::io::Write as _;
                let mut out = std::io::stdout();
                let _ = out.write_all(&bytes);
                let _ = out.flush();
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string(&view).expect("view serializes"));
    } else {
        println!("{}", status_line(&view));
    }
}

/// `melody drain`: asks the server to finish gracefully (stop accepting
/// submissions, cancel unclaimed cells, checkpoint, exit) — the same
/// path a SIGTERM takes.
fn cmd_drain(args: &[String]) {
    use melody::server::client;

    let server = server_flag(args);
    match client::drain(&server) {
        Ok(()) => println!("drain requested"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
