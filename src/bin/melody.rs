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
//!            [--progress] [--fidelity F]
//! melody cpmu <device> [--accesses N] # white-box component attribution
//! melody campaign <spec.json> [--shard i/N] [--journal PATH] [--resume]
//!                 [--topology T] [--json] [--progress] [--fidelity F]
//!                 [--cache DIR | --no-cache]
//! melody degraded [--scale S] [--journal PATH] [--resume] [--limit N] [--json]
//!                 [--cache DIR | --no-cache]
//! melody tiering [--scale S] [--json] [--fidelity F] # per-policy migration
//! melody trace <device> [--out PATH] [--workloads N] [--refs N] [--fidelity F]
//! melody diff <a.json> <b.json> [--rel-tol X] [--abs-tol X] [--json]
//! melody report <run.json> [--out PATH]
//! melody serve [--port N] [--addr HOST] [--state-dir DIR] [--queue-depth N]
//!              [--admission-limit N] [--deadline-ms N] [--max-attempts N]
//!              [--log text|json] [--cache DIR | --no-cache]
//! melody submit <spec.json> [--server HOST:PORT] [--client NAME]
//!               [--deadline-ms N] [--retries N] [--wait] [--poll-ms N]
//!               [--timeout-s N] [--json]
//! melody status [job-id] [--server HOST:PORT] [--result] [--wait] [--watch]
//!               [--poll-ms N] [--timeout-s N] [--json]
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
//! Flags: one table (`FLAGS`) names every flag, whether it takes a
//! value, and the commands that read it; the command line is parsed
//! against it once, and each setting reaches the code that uses it as
//! a value. An unknown flag, a flag the command does not read, a flag
//! missing its value, or a value that does not parse exits 2 naming the
//! flag. `--jobs N` (worker threads), `--telemetry off|metrics|trace`
//! (instrumentation level, default off — see TELEMETRY.md) and
//! `--cadence-ns N` (gauge sampling window) apply to every command.
//! `--fidelity detailed|sampled|fast` and `--sample-warmup/-window/-period
//! N` set the simulation tier of `run`, `trace`, `tiering` and
//! `campaign`.
//! `--cache DIR` / `--no-cache` select the content-addressed result
//! cache of `campaign` and `serve` (default `.melody-cache`) and of
//! `degraded` (default none); see EXPERIMENTS.md "Campaigns and the
//! result cache". `melody campaign` expands a platform × device × fault
//! × workload spec into cells, loads warm cells from the cache,
//! simulates only the misses, and emits byte-identical output for any
//! cache, `--shard i/N` or `--jobs` mix. With telemetry enabled, every
//! command appends a metrics table to its report (stdout) and a
//! wall-clock phase profile to stderr. `melody
//! trace` runs a small deterministic population sweep in trace mode and
//! exports a Chrome `trace_event` JSON viewable in Perfetto; the export
//! is byte-identical for a fixed seed at any `--jobs` setting.
//!
//! Grid settings resolve through the campaign grid's axis table
//! (`melody::campaign::AXES`), so a command line and a campaign spec
//! share one vocabulary and one exit-2 error per axis listing the valid
//! names: the `<device>` keyword (a device class such as `cxl-b`,
//! optionally suffixed `+numa`, `+switch` or `-x2`) or `--topology
//! <spec.json>` (a declarative fabric, see EXPERIMENTS.md "Topologies"),
//! `--platform`, `--faults <regime>` (on `probe`, `mio`, `mlc`, `run` and
//! `trace`: a deterministic fault-injection regime on the device) and
//! `--policy <name>` (on `probe`, `run` and `campaign`: an online
//! page-migration tier that promotes hot pages into local DRAM, tuned by
//! `--page-bytes N` and `--migrate-budget-gbps X`). `--faults none`,
//! `--policy static` and a single-expander topology are byte-identical to
//! omitting them.
//! On `campaign`, `--topology` and `--policy` join the spec's device and
//! policy axes, and `--fidelity`, `--sample-*`, `--page-bytes` and
//! `--migrate-budget-gbps` fill only what the spec leaves unset.
//!
//! `degraded` sweeps every fault regime across the four CXL devices,
//! checkpointing each finished cell to `--journal` so a killed sweep
//! restarted with `--resume` skips finished cells and emits
//! byte-identical output. `tiering` runs the standing per-policy
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

use melody::campaign::{Axis, AxisValue, CampaignCell, Draft};
use melody::journal::Journal;
use melody::prelude::*;
use melody_cpu::Fidelity;
use melody_mem::CpmuDevice;
use melody_workloads::mlc::{loaded_latency, MlcConfig};
use melody_workloads::Suite;

/// Every command, as `usage` lists them.
const COMMANDS: &str = "devices|workloads|probe|mio|mlc|run|cpmu|campaign|degraded|tiering|\
                        trace|diff|report|serve|submit|status|drain";

/// Marks a flag every command reads.
const ALL: &[&str] = &["*"];
const TIERED: &[&str] = &["run", "trace", "tiering", "campaign"];
const CACHED: &[&str] = &["campaign", "degraded", "serve"];
const FAULTED: &[&str] = &["probe", "mio", "mlc", "run", "trace"];
const PLACED: &[&str] = &["probe", "run", "campaign"];
const JOURNALED: &[&str] = &["campaign", "degraded"];
const WAITING: &[&str] = &["submit", "status"];

/// A flag: its name, whether it takes a value, and the commands that
/// read it.
type Flag = (&'static str, bool, &'static [&'static str]);

/// Every flag `melody` accepts.
const FLAGS: &[Flag] = &[
    ("--jobs", true, ALL),
    ("--telemetry", true, ALL),
    ("--cadence-ns", true, ALL),
    ("--fidelity", true, TIERED),
    ("--sample-warmup", true, TIERED),
    ("--sample-window", true, TIERED),
    ("--sample-period", true, TIERED),
    ("--cache", true, CACHED),
    ("--no-cache", false, CACHED),
    ("--faults", true, FAULTED),
    ("--topology", true, PLACED),
    ("--policy", true, PLACED),
    ("--page-bytes", true, PLACED),
    ("--migrate-budget-gbps", true, PLACED),
    ("--journal", true, JOURNALED),
    ("--resume", false, JOURNALED),
    ("--progress", false, &["run", "campaign"]),
    (
        "--json",
        false,
        &[
            "run", "campaign", "degraded", "tiering", "diff", "submit", "status",
        ],
    ),
    ("--out", true, &["run", "trace", "report"]),
    ("--refs", true, &["run", "trace"]),
    ("--scale", true, &["degraded", "tiering"]),
    ("--accesses", true, &["mio", "cpmu"]),
    ("--suite", true, &["workloads"]),
    ("--threads", true, &["mio"]),
    ("--noise", true, &["mio"]),
    ("--rw", true, &["mlc"]),
    ("--delay", true, &["mlc"]),
    ("--requests", true, &["mlc"]),
    ("--platform", true, &["run"]),
    ("--windows", true, &["run"]),
    ("--shard", true, &["campaign"]),
    ("--limit", true, &["degraded"]),
    ("--workloads", true, &["trace"]),
    ("--rel-tol", true, &["diff"]),
    ("--abs-tol", true, &["diff"]),
    ("--addr", true, &["serve"]),
    ("--port", true, &["serve"]),
    ("--state-dir", true, &["serve"]),
    ("--queue-depth", true, &["serve"]),
    ("--admission-limit", true, &["serve"]),
    ("--max-attempts", true, &["serve"]),
    ("--log", true, &["serve"]),
    ("--deadline-ms", true, &["serve", "submit"]),
    ("--server", true, &["submit", "status", "drain"]),
    ("--client", true, &["submit"]),
    ("--retries", true, &["submit"]),
    ("--wait", false, WAITING),
    ("--poll-ms", true, WAITING),
    ("--timeout-s", true, WAITING),
    ("--watch", false, &["status"]),
    ("--result", false, &["status"]),
];

/// One parsed command line: the command, its other arguments in order
/// (`pos`), and the flags given (a switch's value is `None`).
struct Cli {
    cmd: String,
    pos: Vec<String>,
    flags: Vec<(&'static Flag, Option<String>)>,
}

impl Cli {
    /// Parses `args` against [`FLAGS`]; the first argument that is
    /// neither a flag nor a flag's value is the command. An unknown
    /// flag, a flag the command does not read, or a valued flag without
    /// its value is an error naming the flag; a missing or unknown
    /// command prints usage.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut pos = Vec::new();
        let mut flags = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                pos.push(a);
                continue;
            }
            let Some(flag) = FLAGS.iter().find(|f| f.0 == a) else {
                return Err(format!("unknown flag {a}"));
            };
            let value = if flag.1 {
                match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{a} expects a value")),
                }
            } else {
                None
            };
            flags.push((flag, value));
        }
        if !pos
            .first()
            .is_some_and(|c| COMMANDS.split('|').any(|k| k == c))
        {
            usage();
        }
        let cmd = pos.remove(0);
        for ((name, _, readers), _) in &flags {
            if *readers != ALL && !readers.contains(&cmd.as_str()) {
                return Err(format!(
                    "{cmd} does not read {name} (read by {})",
                    readers.join(", ")
                ));
            }
        }
        Ok(Cli { cmd, pos, flags })
    }

    /// The raw value of flag `name`, if given.
    fn str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f.0 == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// True when flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.0 == name)
    }

    /// The value of flag `name` converted by `parse`, `None` when the
    /// flag is absent. A value `parse` rejects exits 2 naming the flag
    /// and the `kind` of value it expects.
    fn get<T>(&self, name: &str, kind: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let v = self.str(name)?;
        Some(parse(v).unwrap_or_else(|| {
            eprintln!("{name} expects {kind}, got {v}");
            std::process::exit(2);
        }))
    }

    /// [`Cli::get`] for an integer value.
    fn int<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name, "an integer", |v| v.parse().ok())
    }

    /// [`Cli::get`] for a real-number value.
    fn float(&self, name: &str) -> Option<f64> {
        self.get(name, "a number", |v| v.parse().ok())
    }

    /// The value of flag `name` resolved by `resolve`, `None` when the
    /// flag is absent. An error exits 2 naming the flag.
    fn resolve<T>(&self, name: &str, resolve: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
        Some(or_exit(name, resolve(self.str(name)?)))
    }

    /// Merges the grid flags into `spec`: `--platform`, `--faults`,
    /// `--policy` and `--topology` join its axes, and the others fill only
    /// what it leaves unset, so a spec runs as written.
    fn spec(&self, mut spec: CampaignSpec) -> CampaignSpec {
        let fidelity = self.resolve("--fidelity", |v| Fidelity::resolve(Some(v)));
        spec.fidelity = spec.fidelity.or(fidelity.map(|f| f.label().to_string()));
        spec.sample_warmup = spec.sample_warmup.or(self.int("--sample-warmup"));
        spec.sample_window = spec.sample_window.or(self.int("--sample-window"));
        spec.sample_period = spec.sample_period.or(self.int("--sample-period"));
        spec.page_bytes = spec.page_bytes.or(self.int("--page-bytes"));
        spec.migrate_budget_gbps = spec
            .migrate_budget_gbps
            .or(self.float("--migrate-budget-gbps"));
        spec.platforms
            .extend(self.str("--platform").map(str::to_string));
        spec.faults.extend(self.str("--faults").map(str::to_string));
        spec.policies
            .extend(self.str("--policy").map(str::to_string));
        spec.topologies
            .extend(self.resolve("--topology", TopologySpec::load));
        spec
    }
}

/// `result`'s value, or exit 2 printing its error after `what` (the
/// flag or command that gave the value).
fn or_exit<T>(what: &str, result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(2);
    })
}

/// The one cell a single-run command names, resolved through the
/// campaign grid's axis entries: the platform (default emr2s), the
/// `device` keyword or topology, the fault regime and policy [`Cli::spec`]
/// merged into `spec`, and the `workload`.
fn single_cell(
    cli: &Cli,
    spec: &CampaignSpec,
    device: Option<&String>,
    workload: Option<&String>,
) -> Draft {
    let mut draft = Draft::default();
    let mut set =
        |what: &str, value: Result<AxisValue, String>| or_exit(what, value).apply(&mut draft);
    let platform = spec.platforms.first().map_or("emr2s", String::as_str);
    set("--platform", Axis::Platform.resolve(platform, spec));
    match (device, spec.topologies.first()) {
        (Some(name), None) => set(&cli.cmd, Axis::Device.resolve(name, spec)),
        (None, Some(t)) => set("--topology", AxisValue::topology(t.clone())),
        (None, None) => usage(),
        (Some(_), Some(_)) => set(
            &cli.cmd,
            Err("takes a device keyword or --topology, not both".into()),
        ),
    }
    for name in &spec.faults {
        set("--faults", Axis::Faults.resolve(name, spec));
    }
    for name in &spec.policies {
        set("--policy", Axis::Policy.resolve(name, spec));
    }
    if let Some(name) = workload {
        set(&cli.cmd, Axis::Workload.resolve(name, spec));
    }
    draft
}

/// The target device of a command that runs no workload: the first
/// argument through [`single_cell`].
fn target(cli: &Cli) -> DeviceSpec {
    let spec = cli.spec(CampaignSpec::default());
    let draft = single_cell(cli, &spec, cli.pos.first(), None);
    draft.target.expect("the device axis is set")
}

fn usage() -> ! {
    eprintln!(
        "usage: melody <{COMMANDS}> [args]\n\
         \u{20}      [--jobs N] [--telemetry off|metrics|trace] [--cadence-ns N]\n\
         see `src/bin/melody.rs` header or README for the flags each command reads"
    );
    std::process::exit(2);
}

/// The result-cache directory a command uses: `--cache DIR`, else
/// `default`; `--no-cache` gives none.
fn cache_dir<'a>(cli: &'a Cli, default: Option<&'a str>) -> Option<&'a str> {
    if !cli.has("--no-cache") {
        return cli.str("--cache").or(default);
    }
    if cli.has("--cache") {
        eprintln!("--cache and --no-cache are mutually exclusive");
        std::process::exit(2);
    }
    None
}

/// Opens the result cache of [`cache_dir`], exiting 2 when it cannot.
fn open_cache(cli: &Cli, default: Option<&str>) -> Option<ResultCache> {
    let dir = cache_dir(cli, default)?;
    Some(ResultCache::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache {dir}: {e}");
        std::process::exit(2);
    }))
}

/// The checkpoint journal of a sweep: `--journal PATH`, truncated first
/// unless `--resume` (stale entries would silently skip cells), else an
/// in-memory journal. `--resume` without `--journal` exits 2. On
/// `--resume`, a dropped torn tail is surfaced as a counted warning.
fn open_journal(cli: &Cli) -> Journal {
    let resume = cli.has("--resume");
    let journal = match cli.str("--journal") {
        Some(path) => {
            if !resume {
                let _ = std::fs::remove_file(path);
            }
            Journal::open(path).unwrap_or_else(|e| {
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
    if resume && journal.torn_lines() > 0 {
        let path = journal
            .path()
            .map_or_else(|| "<memory>".to_string(), |p| p.display().to_string());
        eprintln!(
            "warning: dropped {} torn trailing record(s) from {path} (those cells will re-run)",
            journal.torn_lines()
        );
    }
    journal
}

/// Prints a sweep report to stdout: with `--json` the JSON document,
/// else `render`'s table. With `--json` and telemetry on, the document
/// is `{"report":…,"telemetry":…}` with the full telemetry export
/// (percentile summaries, gauge windows, exec counters) folded in, so
/// `melody diff` and external tools read it without re-parsing text;
/// the wall-clock profile goes to stderr, as its values are
/// nondeterministic. Exits 1 when a cell failed.
fn print_report<R: serde::Serialize>(
    cli: &Cli,
    report: &R,
    render: fn(&R) -> String,
    failed: bool,
) {
    if !cli.has("--json") {
        print!("{}", render(report));
    } else if melody_telemetry::metrics_on() {
        let c = melody_telemetry::collect();
        let export = telemetry_export_with_exec_counters(&c.metrics);
        println!(
            "{{\"report\":{},\"telemetry\":{}}}",
            melody::report::to_json(report),
            serde_json::to_string(&export).expect("telemetry export serialize")
        );
        if !c.profile.is_empty() {
            eprint!("{}", c.profile.render());
        }
    } else {
        println!("{}", melody::report::to_json(report));
    }
    if failed {
        std::process::exit(1);
    }
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

/// How often the `--progress` heartbeat re-renders.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(500);

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

/// Spawns the `--progress` heartbeat: every [`HEARTBEAT_PERIOD`] it
/// re-renders the sink's snapshot (or, with no sink, the elapsed wall
/// clock alone — single `run` invocations have no cell grid) and
/// prints the line to stderr when it changed, so a stalled run stays
/// quiet. All output is stderr: comparable stdout is untouched.
fn spawn_heartbeat(sink: Option<Arc<Progress>>) -> HeartbeatGuard {
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
            while slept < HEARTBEAT_PERIOD && !stop2.load(Ordering::Relaxed) {
                let step = (HEARTBEAT_PERIOD - slept).min(Duration::from_millis(25));
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

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(n) = cli.int("--jobs") {
        melody::exec::set_jobs(n);
    }
    let modes = "off|metrics|trace";
    if let Some(mode) = cli.get("--telemetry", modes, melody_telemetry::Mode::parse) {
        melody_telemetry::set_mode(mode);
    }
    if let Some(n) = cli.int("--cadence-ns") {
        melody_telemetry::set_cadence_ns(n);
    }
    match cli.cmd.as_str() {
        "devices" => cmd_devices(),
        "workloads" => cmd_workloads(&cli),
        "probe" => cmd_probe(&cli),
        "mio" => cmd_mio(&cli),
        "mlc" => cmd_mlc(&cli),
        "run" => cmd_run(&cli),
        "cpmu" => cmd_cpmu(&cli),
        "campaign" => cmd_campaign(&cli),
        "degraded" => cmd_degraded(&cli),
        "tiering" => cmd_tiering(&cli),
        "trace" => cmd_trace(&cli),
        "diff" => cmd_diff(&cli),
        "report" => cmd_report(&cli),
        "serve" => cmd_serve(&cli),
        "submit" => cmd_submit(&cli),
        "status" => cmd_status(&cli),
        "drain" => cmd_drain(&cli),
        _ => unreachable!("Cli::parse admits only COMMANDS"),
    }
    finish_telemetry();
}

fn cmd_devices() {
    println!("{:12} {:>12} {:>10}", "device", "nominal(ns)", "class");
    for name in [
        "local",
        "numa",
        "cxl-a",
        "cxl-b",
        "cxl-c",
        "cxl-d",
        "cxl-a+numa",
        "cxl-d+switch",
        "cxl-d-x2",
        "skx-410",
    ] {
        let spec = device_by_name(name).expect("a device keyword");
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

fn cmd_workloads(cli: &Cli) {
    let suite_filter = cli.str("--suite");
    let mut shown = 0;
    for w in registry::all() {
        if let Some(f) = suite_filter {
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

fn cmd_probe(cli: &Cli) {
    let spec = target(cli);
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

fn cmd_mio(cli: &Cli) {
    let spec = target(cli);
    let cfg = melody_mio::MioConfig {
        chase_threads: cli.int("--threads").unwrap_or(1),
        noise_threads: cli.int("--noise").unwrap_or(0),
        accesses: cli.int("--accesses").unwrap_or(40_000),
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

fn cmd_mlc(cli: &Cli) {
    let spec = target(cli);
    let read_frac = cli.float("--rw").unwrap_or(1.0);
    let cfg = MlcConfig {
        read_frac,
        delay_cycles: cli.int("--delay").unwrap_or(0),
        total_requests: cli.int("--requests").unwrap_or(40_000),
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

fn cmd_run(cli: &Cli) {
    let Some(wname) = cli.pos.first() else {
        usage()
    };
    let spec = cli.spec(CampaignSpec {
        mem_refs: Some(cli.int("--refs").unwrap_or(30_000)),
        ..Default::default()
    });
    let opts = or_exit(&cli.cmd, spec.run_options());
    let cell = single_cell(cli, &spec, cli.pos.get(1), Some(wname)).finish(0, &opts);
    // A single run has no cell grid, so `--progress` reports elapsed
    // wall clock only (no ETA — the n/a convention, not a guess).
    let _heartbeat = cli.has("--progress").then(|| spawn_heartbeat(None));
    if cli.has("--json") {
        run_json(cli, &cell);
        return;
    }
    let pair = cell.run();
    println!(
        "{} on {} ({}): slowdown {:.1}%",
        cell.workload.name,
        cell.target.name(),
        cell.platform.name,
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
fn run_json(cli: &Cli, cell: &CampaignCell) {
    let cfg = melody_insight::InsightConfig {
        windows: cli.int("--windows").unwrap_or(24),
        ..Default::default()
    };
    let (platform, w, opts) = (&cell.platform, &cell.workload, &cell.opts);
    let (local_run, _l_events, l_dropped, l_metrics) =
        melody::exec::traced(|| melody::run_workload(platform, &cell.local, w, opts));
    let (target_run, t_events, t_dropped, t_metrics) =
        melody::exec::traced(|| melody::run_workload(platform, &cell.target, w, opts));
    let mut metrics = l_metrics;
    metrics.merge(&t_metrics);
    let meta = melody_insight::RunMeta {
        workload: w.name.clone(),
        suite: w.suite.label().to_string(),
        platform: platform.name.clone(),
        local_device: cell.local.name(),
        target_device: cell.target.name(),
        seed: opts.seed,
        mem_refs: opts.mem_refs,
        faults: cell.labels[Axis::Faults as usize].clone(),
        policy: cell.labels[Axis::Policy as usize].clone(),
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
    if let Some(path) = cli.str("--out") {
        if let Err(e) = std::fs::write(path, &json) {
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
fn cmd_diff(cli: &Cli) {
    let [path_a, path_b] = &cli.pos[..] else {
        usage()
    };
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
        rel_tol: cli.float("--rel-tol").unwrap_or(0.0),
        abs_tol: cli.float("--abs-tol").unwrap_or(0.0),
    };
    let verdict = melody_insight::diff_values(&a, &b, &opts);
    if cli.has("--json") {
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
fn cmd_report(cli: &Cli) {
    let Some(path) = cli.pos.first() else { usage() };
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
    let out_path = cli.str("--out").unwrap_or("report.html");
    let html = melody_insight::render_run_html(&doc);
    if let Err(e) = std::fs::write(out_path, &html) {
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

fn cmd_cpmu(cli: &Cli) {
    let spec = target(cli);
    let accesses = cli.int("--accesses").unwrap_or(40_000);
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
fn cmd_campaign(cli: &Cli) {
    let Some(spec_path) = cli.pos.first() else {
        eprintln!("campaign requires a spec file (see datasets/grid_quick.json)");
        std::process::exit(2);
    };
    // The expander validates the merged spec: an unknown policy or an
    // invalid topology exits 2 listing the valid spellings.
    let spec = cli.spec(CampaignSpec::load(spec_path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    }));
    let shard = cli
        .get("--shard", "i/N with i < N", Shard::parse)
        .unwrap_or_else(Shard::full);
    let mut journal = open_journal(cli);
    let cache = open_cache(cli, Some(".melody-cache"));
    let mut policy = melody::exec::CellPolicy::default();
    let heartbeat = if cli.has("--progress") {
        let sink = Arc::new(Progress::default());
        policy = policy.with_progress(Arc::clone(&sink));
        Some(spawn_heartbeat(Some(sink)))
    } else {
        None
    };
    let run =
        run_campaign(&spec, shard, &mut journal, cache.as_ref(), &policy).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    // Stop the heartbeat (printing its final line) before the stats
    // render so the stderr stream reads in order.
    drop(heartbeat);
    // Resolution provenance differs between warm/cold/resumed runs, so
    // it goes to stderr; stdout stays byte-comparable.
    eprintln!("{}", run.stats.render());
    let failed = !run.report.errors.is_empty();
    print_report(cli, &run.report, CampaignReport::render, failed);
    print_cache_stats(cache.as_ref());
}

/// Cache effectiveness is diagnostic output: stderr only, never into
/// comparable stdout.
fn print_cache_stats(cache: Option<&ResultCache>) {
    if let Some(c) = cache {
        eprintln!("{}", c.stats().render());
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

fn cmd_degraded(cli: &Cli) {
    use melody::experiments::degraded;

    let scale = or_exit("--scale", Scale::resolve(cli.str("--scale")));
    let limit = cli.int("--limit");
    let mut journal = open_journal(cli);
    let cache = open_cache(cli, None);
    let report = degraded::run_with(
        scale,
        &degraded::standard_cells(),
        &mut journal,
        cache.as_ref(),
        limit,
        &melody::exec::CellPolicy::default(),
    );
    let failed = !report.errors.is_empty();
    print_report(cli, &report, degraded::DegradedReport::render, failed);
    print_cache_stats(cache.as_ref());
}

/// `melody tiering [--scale S] [--json]`: runs the per-policy online
/// migration comparison (every [`melody_mem::POLICIES`] entry on the
/// phased hot/cold workload over CXL-B, at the `--fidelity` tier) and
/// renders the slowdown / migration-traffic table, or the JSON document
/// with `--json`.
fn cmd_tiering(cli: &Cli) {
    use melody::experiments::tiering;

    let scale = or_exit("--scale", Scale::resolve(cli.str("--scale")));
    let opts = or_exit(&cli.cmd, cli.spec(CampaignSpec::default()).run_options());
    let data = tiering::run(scale, opts.fidelity, opts.sampling);
    if cli.has("--json") {
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
fn cmd_trace(cli: &Cli) {
    let Some(dname) = cli.pos.first() else {
        usage()
    };
    let grid = cli.spec(CampaignSpec {
        mem_refs: Some(cli.int("--refs").unwrap_or(4_000)),
        ..Default::default()
    });
    let opts = or_exit(&cli.cmd, grid.run_options());
    let draft = single_cell(cli, &grid, Some(dname), None);
    let set = "the platform and device axes are set";
    let (platform, local) = draft.platform.expect(set);
    let spec = draft.target.expect(set);
    melody_telemetry::set_mode(melody_telemetry::Mode::Trace);
    let out_path = cli
        .str("--out")
        .map_or_else(|| format!("trace_{dname}.json"), str::to_string);
    let n = cli.int("--workloads").unwrap_or(6);
    let workloads: Vec<_> = registry::all().into_iter().take(n).collect();
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

/// `melody serve`: runs the campaign service in the foreground until it
/// drains (SIGTERM, SIGINT or `POST /v1/drain`). See
/// `melody::server` for the API and robustness model. `--cache DIR`
/// selects the server's result cache (default `.melody-cache`;
/// `--no-cache` disables warm starts).
fn cmd_serve(cli: &Cli) {
    use melody::server::log::{self, LogFormat};
    use melody::server::{signal, ServeConfig, Server};

    let mut cfg = ServeConfig::default();
    if let Some(h) = cli.str("--addr") {
        cfg.host = h.to_string();
    }
    if let Some(p) = cli.get("--port", "a port number", |v| v.parse().ok()) {
        cfg.port = p;
    }
    if let Some(d) = cli.str("--state-dir") {
        cfg.state_dir = d.into();
    }
    cfg.queue_depth = cli.int("--queue-depth").unwrap_or(cfg.queue_depth);
    cfg.admission_limit = cli.int("--admission-limit").unwrap_or(cfg.admission_limit);
    cfg.default_deadline_ms = cli.int("--deadline-ms");
    cfg.max_attempts = cli.int("--max-attempts").unwrap_or(cfg.max_attempts);
    if let Some(f) = cli.get("--log", "text|json", LogFormat::parse) {
        log::set_format(f);
    }
    cfg.cache_dir = cache_dir(cli, Some(".melody-cache")).map(Into::into);
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
fn cmd_submit(cli: &Cli) {
    use melody::server::client::{self, RetrySchedule};

    let Some(spec_path) = cli.pos.first() else {
        eprintln!("submit requires a spec file (see datasets/grid_quick.json)");
        std::process::exit(2);
    };
    let spec_text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(2);
    });
    // Validate locally first: a bad spec should fail with a clear
    // message even when the server is unreachable.
    if let Err(e) = serde_json::from_str::<CampaignSpec>(&spec_text) {
        eprintln!("{spec_path}: not a campaign spec: {e:?}");
        std::process::exit(2);
    }
    let server = cli.str("--server").unwrap_or(melody::server::DEFAULT_ADDR);
    let deadline_ms = cli.int("--deadline-ms");
    let schedule = RetrySchedule {
        max_retries: cli.int("--retries").unwrap_or(0),
        ..Default::default()
    };
    match client::submit_with_retry(
        server,
        &spec_text,
        cli.str("--client"),
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
            if cli.has("--wait") {
                wait_and_print_result(server, &reply.job_id, cli);
            } else if cli.has("--json") {
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
fn wait_and_print_result(server: &str, id: &str, cli: &Cli) {
    use melody::server::api::JobStatus;
    use melody::server::client::{self, RetrySchedule};

    let poll = Duration::from_millis(cli.int("--poll-ms").unwrap_or(200));
    let timeout = Duration::from_secs(cli.int("--timeout-s").unwrap_or(600));
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
fn cmd_status(cli: &Cli) {
    use melody::server::client;

    let server = cli.str("--server").unwrap_or(melody::server::DEFAULT_ADDR);
    let id = cli.pos.first();
    if cli.has("--watch") {
        let poll = Duration::from_millis(cli.int("--poll-ms").unwrap_or(500));
        watch_status(server, id.map(String::as_str), poll);
        return;
    }
    let Some(id) = id else {
        let health = client::health(server).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if cli.has("--json") {
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
    if cli.has("--wait") {
        wait_and_print_result(server, id, cli);
        return;
    }
    let view = client::job_status(server, id).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if cli.has("--result") {
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
        return;
    }
    if cli.has("--json") {
        println!("{}", serde_json::to_string(&view).expect("view serializes"));
    } else {
        println!("{}", status_line(&view));
    }
}

/// `melody drain`: asks the server to finish gracefully (stop accepting
/// submissions, cancel unclaimed cells, checkpoint, exit) — the same
/// path a SIGTERM takes.
fn cmd_drain(cli: &Cli) {
    use melody::server::client;

    let server = cli.str("--server").unwrap_or(melody::server::DEFAULT_ADDR);
    match client::drain(server) {
        Ok(()) => println!("drain requested"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
