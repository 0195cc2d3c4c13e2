//! `perfbench`: runs the benchmark's workloads, prints every metric by
//! name with its unit, checks the simulator's outputs, and ends with one
//! JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json PATH] [--bless]
//! ```
//!
//! With one `--workload` the workload runs in this process. With none
//! (all five) or several, each runs in a child process of its own, so
//! process-wide settings and the peak resident set never carry over from
//! one workload to the next.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use melody_perfbench::metrics::{self, Metric, END_TO_END, PER_LAYER};
use melody_perfbench::workload::{self, Ctx, Outcome};
use melody_perfbench::{ladder, trace::Recorder};
use serde::Value;

#[global_allocator]
static ALLOC: melody_perfbench::heap::CountingAlloc = melody_perfbench::heap::CountingAlloc;

const USAGE: &str = "usage: perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json PATH] [--bless]";

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    bless: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        json: None,
        bless: false,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| it.next()) {
        let mut value = |name: &str| it.next().ok_or(format!("{name} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !workload::names().any(|n| n == w) {
                    let known: Vec<_> = workload::names().collect();
                    return Err(format!(
                        "unknown workload `{w}` (known: {})",
                        known.join(", ")
                    ));
                }
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds expects a duration in (0, 3600]")?;
            }
            "--trace" => match it.next() {
                Some(v) if v == "1" => a.trace = true,
                Some(v) if v == "0" => a.trace = false,
                other => {
                    a.trace = true;
                    pending = other;
                }
            },
            "--json" => a.json = Some(PathBuf::from(value("--json")?)),
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// `nproc`, CPU model and source revision of this run.
fn machine(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        (
            "git_rev".into(),
            Value::Str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
        ("seed".into(), Value::U64(seed)),
    ])
}

/// The checked-out commit, read from `.git` beside the benchmark (absent
/// in a plain source tree).
fn git_rev() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The directory holding this executable's build (`target/release`).
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_value(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, v)| {
            let unit = unit_of(name.rsplit_once('/').map_or(name, |(_, m)| m));
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::F64(*v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())? + "\n";
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Keeps exactly the metrics `declared` in declaration order; a missing,
/// non-finite (or, end to end, non-positive) value is a failed check.
fn finish(out: &mut Outcome, declared: &[Metric], positive: bool) -> Vec<(String, f64)> {
    let mut kept = Vec::new();
    for m in declared {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v);
        let ok = v.is_some_and(|v| v.is_finite() && (!positive || v > 0.0));
        out.check(ok, || format!("metric {} is {:?}", m.name, v));
        kept.push((
            m.name.to_string(),
            v.filter(|v| v.is_finite()).unwrap_or(0.0),
        ));
    }
    kept
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let work = build_dir()
        .join("perfbench-work")
        .join(format!("{name}-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        bless: args.bless,
    };
    println!(
        "perfbench: {name}, seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result: Result<(Outcome, Option<Recorder>), String> = if args.trace {
        workload::run_traced(name, &ctx).map(|(o, r)| (o, Some(r)))
    } else {
        workload::run(name, &ctx).map(|o| (o, None))
    };
    let (mut out, rec) = match result {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kept = if args.trace {
        match ladder::run(args.seed, &work.join("ladder")) {
            Ok(values) => out.metrics.extend(values),
            Err(e) => out.check(false, || format!("ladder: {e}")),
        }
        if let Some(rec) = &rec {
            let dir = build_dir()
                .parent()
                .map_or_else(build_dir, Path::to_path_buf)
                .join("perfbench");
            let path = dir.join(format!("trace-{name}.json"));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, rec.chrome_json()))
            {
                Ok(()) => out.note(format!("chrome trace: {}", path.display())),
                Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
            }
        }
        finish(&mut out, PER_LAYER, false)
    } else {
        finish(&mut out, END_TO_END, true)
    };
    let _ = std::fs::remove_dir_all(&work);

    for line in &out.notes {
        println!("  {line}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    for (n, v) in &kept {
        println!("  {n:<32} {v:>16.6} {}", unit_of(n));
    }
    println!(
        "  checks and operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    let value = result_value(out.correct(), out.attempted, out.failed, &kept);
    if let Some(path) = &args.json {
        let record = Value::Object(vec![
            ("machine".into(), machine(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            (
                "workloads".into(),
                Value::Object(vec![(name.to_string(), value.clone())]),
            ),
        ]);
        if let Err(e) = write_json(path, &record) {
            eprintln!("perfbench: {e}");
        }
    }
    println!(
        "{}",
        serde_json::to_string(&value).expect("result serializes")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child per workload and merges their result lines.
fn run_children(args: &Args) -> ExitCode {
    let names: Vec<String> = if args.workloads.is_empty() {
        workload::names().map(str::to_string).collect()
    } else {
        args.workloads.clone()
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged: Vec<(String, f64)> = Vec::new();
    let mut records = Vec::new();
    for name in &names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.bless {
            cmd.arg("--bless");
        }
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: cannot start {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
        let status = child.wait();
        let parsed: Option<Value> = serde_json::from_str(&last).ok();
        let field = |v: &Value, k: &str| {
            v.as_object()
                .and_then(|o| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()))
        };
        match (status, parsed) {
            (Ok(status), Some(v)) => {
                correct &= status.success() && field(&v, "correct") == Some(Value::Bool(true));
                if let Some(Value::U64(n)) = field(&v, "attempted") {
                    attempted += n;
                }
                if let Some(Value::U64(n)) = field(&v, "failed") {
                    failed += n;
                }
                for (m, mv) in field(&v, "metrics")
                    .as_ref()
                    .and_then(Value::as_object)
                    .unwrap_or(&[])
                {
                    if let Some(Value::F64(x)) = field(mv, "value") {
                        merged.push((format!("{name}/{m}"), x));
                    } else if let Some(Value::U64(x)) = field(mv, "value") {
                        merged.push((format!("{name}/{m}"), x as f64));
                    }
                }
                records.push((name.clone(), v));
            }
            _ => {
                eprintln!("perfbench: {name} ended without a result");
                correct = false;
                failed += 1;
                attempted += 1;
            }
        }
        let _ = std::io::stdout().flush();
    }
    let wall = started.elapsed().as_secs_f64();
    println!("perfbench: {} workloads in {wall:.1} s", names.len());
    if let Some(path) = &args.json {
        let record = Value::Object(vec![
            ("machine".into(), machine(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("wall_s".into(), Value::F64(wall)),
            ("workloads".into(), Value::Object(records)),
        ]);
        if let Err(e) = write_json(path, &record) {
            eprintln!("perfbench: {e}");
            correct = false;
        }
    }
    let value = result_value(correct, attempted, failed, &merged);
    println!(
        "{}",
        serde_json::to_string(&value).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    melody::server::log::set_min_level(melody::server::log::Level::Warn);
    match args.workloads.as_slice() {
        [one] => run_one(&args, one),
        _ => run_children(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn trace_takes_an_optional_zero_or_one() {
        assert!(!args("--trace 0").expect("parses").trace);
        assert!(args("--trace 1").expect("parses").trace);
        assert!(args("--trace").expect("parses").trace);
        let a = args("--trace --seed 7 --workload fast_sweep").expect("parses");
        assert!(a.trace);
        assert_eq!(
            (a.seed, a.workloads.as_slice()),
            (7, &["fast_sweep".to_string()][..])
        );
    }

    #[test]
    fn bad_input_is_an_error() {
        assert!(args("--workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args("--seed x").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
        let a = args("--seconds 2.5 --bless").expect("parses");
        assert_eq!((a.seconds, a.bless, a.seed), (2.5, true, 42));
    }
}
