//! The batch workloads, their correctness checks, and the traced replay
//! shared with the server workload.
//!
//! A batch workload is one campaign spec under `workloads/`, run cold
//! through `melody::campaign::run_campaign` with two workers, again and
//! again until the run's time is up. Each repetition is one unit of work
//! a user would wait for; the metrics are medians over repetitions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use melody::cache::{fingerprint, ResultCache};
use melody::campaign::{
    cell_fingerprint, pair_config_json, run_campaign, CampaignCell, CampaignRun, CampaignSpec,
    Shard,
};
use melody::exec::CellPolicy;
use melody::journal::Journal;
use melody::{PairOutcome, RunOptions};
use melody_cpu::Fidelity;
use serde::{Deserialize, Serialize};

use std::rc::Rc;

use crate::calib::{self, Calibrator};
use crate::metrics::median;
use crate::timed::{self, Clocks};
use crate::trace::Recorder;

/// Worker threads for every campaign (the benchmark host has 2 cores;
/// the load is fixed so that results compare across hosts).
pub const JOBS: usize = 2;

/// Fewest set-ups timed per run of a batch workload.
const MIN_SETUPS: usize = 5;
/// Shortest total time of a batch workload's set-ups: a set-up of a
/// millisecond or two is repeated until the median rests on many.
const MIN_SETUP_S: f64 = 0.2;

/// Workloads of `tests/fidelity.rs`'s validation population; the
/// accuracy checks here use only cells outside it.
const TUNED: [&str; 6] = [
    "605.mcf",
    "541.leela",
    "519.lbm",
    "bfs-web",
    "520.omnetpp",
    "phoronix.memcached-base",
];

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Scratch directory for caches, journals and server state.
    pub work: PathBuf,
    /// Rewrite the reference files from this run.
    pub bless: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values, by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted: cells or jobs, plus correctness checks.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Informational lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Which cells of a reduced-fidelity workload are compared with the
/// detailed tier.
#[derive(Debug, Clone, Copy)]
enum Subset {
    /// Every cell.
    All,
    /// The held-out subset ([`held_out`]).
    HeldOut,
}

/// Accuracy of a reduced-fidelity workload against the detailed tier.
#[derive(Debug, Clone, Copy)]
struct Accuracy {
    cells: Subset,
    /// Per-layer metric reporting the error in the traced run.
    metric: &'static str,
    /// The bound `tests/fidelity.rs` validates on its own population
    /// (quoted for context; held-out cells may exceed it).
    validated_bound: f64,
}

/// A batch workload: a cold campaign with no cache and an in-memory
/// journal, as `melody campaign --no-cache` runs it. (An on-disk store
/// would time the shared host's disk: on the 2-core benchmark host its
/// latency swung `fast_sweep`'s repetitions by 2x. The server workload
/// and the ladder time the on-disk cache and journal.)
#[derive(Debug, Clone, Copy)]
struct Batch {
    name: &'static str,
    accuracy: Option<Accuracy>,
}

const BATCH: [Batch; 4] = [
    Batch {
        name: "detailed_grid",
        accuracy: None,
    },
    Batch {
        name: "tiering_policies",
        accuracy: None,
    },
    Batch {
        name: "sampled_grid",
        accuracy: Some(Accuracy {
            cells: Subset::All,
            metric: "cpu.sampled.err_pct",
            validated_bound: 0.05,
        }),
    },
    Batch {
        name: "fast_sweep",
        accuracy: Some(Accuracy {
            cells: Subset::HeldOut,
            metric: "spa.interval.err_pct",
            validated_bound: 0.15,
        }),
    },
];

/// Per-layer metrics carrying a reduced-fidelity error (0 on workloads
/// that run no reduced-fidelity cells).
const ERROR_METRICS: [&str; 2] = ["cpu.sampled.err_pct", "spa.interval.err_pct"];

/// The workload's spec file under `workloads/`.
pub fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("workloads")
        .join(format!("{name}.json"))
}

fn reference_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{name}.json"))
}

/// Blessed results of one batch workload at one seed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Reference {
    seed: u64,
    /// `melody::cache::fingerprint` of the campaign report's JSON.
    digest: String,
    /// Detailed-tier slowdown of each accuracy-checked cell, by label.
    #[serde(default)]
    detailed_slowdowns: BTreeMap<String, f64>,
    /// Largest ratio error of the reduced tier over those cells.
    #[serde(default)]
    max_ratio_err: f64,
}

fn load_reference(name: &str) -> Option<Reference> {
    let text = std::fs::read_to_string(reference_path(name)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Simulated instructions (local + target run) behind one serialized
/// `PairOutcome`.
pub fn instructions(json: &str) -> Result<u64, String> {
    let o: PairOutcome = serde_json::from_str(json)
        .map_err(|e| format!("journal entry is not a PairOutcome: {e}"))?;
    Ok(o.local.counters.instructions + o.target.counters.instructions)
}

/// Ratio error of a reduced-fidelity slowdown against the detailed one,
/// as `tests/fidelity.rs` defines it.
pub fn ratio_err(s_tier: f64, s_detailed: f64) -> f64 {
    (s_tier - s_detailed).abs() / (1.0 + s_detailed)
}

/// The fast sweep's held-out accuracy subset: every 331st cell of the
/// expansion (a stride coprime to the 265-workload blocks, so it walks
/// through platforms, devices and workload positions), minus the
/// workloads the fast tier was validated on.
fn held_out(cells: &[CampaignCell]) -> Vec<usize> {
    (7..cells.len())
        .step_by(331)
        .filter(|&i| !TUNED.contains(&cells[i].workload.name.as_str()))
        .collect()
}

fn accuracy_cells(acc: &Accuracy, cells: &[CampaignCell]) -> Vec<usize> {
    match acc.cells {
        Subset::All => (0..cells.len()).collect(),
        Subset::HeldOut => held_out(cells),
    }
}

fn batch(name: &str) -> Option<Batch> {
    BATCH.iter().copied().find(|b| b.name == name)
}

fn load_spec(name: &str, seed: u64) -> Result<CampaignSpec, String> {
    let path = spec_path(name);
    let spec = CampaignSpec::load(&path.to_string_lossy())?;
    Ok(CampaignSpec {
        seed: Some(seed),
        ..spec
    })
}

/// On-disk cache and journal of a replayed campaign.
struct Store {
    dir: PathBuf,
    cache: ResultCache,
    journal: Journal,
}

impl Store {
    fn open(dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
        let journal =
            Journal::open(dir.join("journal.jsonl")).map_err(|e| format!("journal: {e}"))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cache,
            journal,
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One cold campaign run; returns it, its journal and its host seconds.
fn cold_run(spec: &CampaignSpec) -> Result<(CampaignRun, Journal, f64), String> {
    let mut journal = Journal::in_memory();
    let t = Instant::now();
    let run = run_campaign(
        spec,
        Shard::full(),
        &mut journal,
        None,
        &CellPolicy::default(),
    )?;
    Ok((run, journal, t.elapsed().as_secs_f64()))
}

fn report_digest(run: &CampaignRun) -> String {
    fingerprint(&[&serde_json::to_string(&run.report).expect("CampaignReport serializes")])
}

/// Slowdowns of `cells` at their own fidelity, or at the detailed tier,
/// simulated now with the worker pool.
fn simulate(cells: &[&CampaignCell], detailed: bool) -> Vec<f64> {
    melody::exec::parallel_map(cells, |c| {
        let opts = RunOptions {
            fidelity: if detailed {
                Fidelity::Detailed
            } else {
                c.opts.fidelity
            },
            ..c.opts.clone()
        };
        melody::run_pair(&c.platform, &c.local, &c.target, &c.workload, &opts).slowdown
    })
}

/// Largest ratio error of `tier` against `det`, with its cell's label.
fn worst_error(cells: &[&CampaignCell], tier: &[f64], det: &[f64]) -> (f64, String) {
    let mut worst = (0.0f64, String::new());
    for ((c, s), d) in cells.iter().zip(tier).zip(det) {
        let err = ratio_err(*s, *d);
        // A NaN error is kept as the worst, so it cannot hide.
        if err.is_nan() || err > worst.0 {
            worst = (err, c.label());
        }
    }
    worst
}

/// The reduced tier's error at the run's seed, against detailed
/// slowdowns from the reference file when it was blessed at this seed,
/// otherwise simulated now (outside every timed phase). Returns the
/// largest error and the detailed slowdowns by label.
fn error_at_seed(
    b: &Batch,
    acc: &Accuracy,
    cells: &[CampaignCell],
    tier: &[f64],
    reference: Option<&Reference>,
    ctx: &Ctx,
    out: &mut Outcome,
) -> (f64, BTreeMap<String, f64>) {
    let subset: Vec<&CampaignCell> = accuracy_cells(acc, cells)
        .into_iter()
        .map(|i| &cells[i])
        .collect();
    let blessed = reference
        .filter(|r| r.seed == ctx.seed && !ctx.bless)
        .and_then(|r| {
            subset
                .iter()
                .map(|c| r.detailed_slowdowns.get(&c.label()).copied())
                .collect::<Option<Vec<f64>>>()
        });
    let det = blessed.unwrap_or_else(|| {
        let t = Instant::now();
        let det = simulate(&subset, true);
        out.note(format!(
            "{}: detailed reference of {} cells simulated in {:.2} s (outside the timed phase)",
            b.name,
            subset.len(),
            t.elapsed().as_secs_f64()
        ));
        det
    });
    let tier: Vec<f64> = accuracy_cells(acc, cells)
        .into_iter()
        .map(|i| tier[i])
        .collect();
    let (err, worst) = worst_error(&subset, &tier, &det);
    out.note(format!(
        "held-out accuracy at seed {}: max ratio error {:.3} % over {} cells (worst {worst}); \
         tests/fidelity.rs validates {:.0} % on its own population",
        ctx.seed,
        err * 100.0,
        subset.len(),
        acc.validated_bound * 100.0
    ));
    let labels = subset.iter().map(|c| c.label()).zip(det).collect();
    (err, labels)
}

/// The accuracy regression check: at the reference's seed, the reduced
/// tier's largest error over the reference cells must not exceed the
/// blessed one.
fn check_no_accuracy_regression(
    b: &Batch,
    acc: &Accuracy,
    spec: &CampaignSpec,
    r: &Reference,
    out: &mut Outcome,
) -> Result<(), String> {
    let cells = CampaignSpec {
        seed: Some(r.seed),
        ..spec.clone()
    }
    .expand()?;
    let subset: Vec<&CampaignCell> = accuracy_cells(acc, &cells)
        .into_iter()
        .map(|i| &cells[i])
        .collect();
    let det: Option<Vec<f64>> = subset
        .iter()
        .map(|c| r.detailed_slowdowns.get(&c.label()).copied())
        .collect();
    let Some(det) = det else {
        out.check(false, || {
            format!("{}: the reference lacks cells of the current spec", b.name)
        });
        return Ok(());
    };
    let (err, worst) = worst_error(&subset, &simulate(&subset, false), &det);
    out.note(format!(
        "accuracy at the reference seed {}: max ratio error {:.4} % (blessed {:.4} %)",
        r.seed,
        err * 100.0,
        r.max_ratio_err * 100.0
    ));
    out.check(err <= r.max_ratio_err + 1e-12, || {
        format!(
            "accuracy regressed at seed {}: {worst} ratio error {err:.6} > blessed {:.6}",
            r.seed, r.max_ratio_err
        )
    });
    Ok(())
}

/// One timed repetition of a batch campaign.
struct Rep {
    /// Host seconds.
    raw_s: f64,
    /// Host seconds scaled to the reference host speed.
    norm_s: f64,
    cells: usize,
    digest: String,
}

/// Median of `f` over `items`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).expect("at least one item")
}

/// The untraced run of a batch workload. Set-ups and every repetition
/// are bracketed by host speed calibrations ([`crate::calib`]).
fn run_batch(b: Batch, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut spec = None;
    let mut cells = Vec::new();
    let before = cal.measure(0.0);
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_S {
        let t = Instant::now();
        let s = load_spec(b.name, ctx.seed)?;
        cells = s.expand()?;
        setups.push(t.elapsed().as_secs_f64());
        spec = Some(s);
    }
    let spec = spec.expect("at least one set-up");
    let mut unit = cal.measure(0.0);
    let setup_s = median_of(&setups, |s| calib::normalize(*s, before, unit));
    out.note(format!(
        "{} set-ups, raw median {:.6} s",
        setups.len(),
        median_of(&setups, |s| *s)
    ));

    let mut reps: Vec<Rep> = Vec::new();
    let mut units = vec![unit];
    let mut instr = 0;
    let mut first = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let (run, journal, secs) = cold_run(&spec)?;
        let next = cal.measure(secs);
        reps.push(Rep {
            raw_s: secs,
            norm_s: calib::normalize(secs, unit, next),
            cells: run.report.rows.len(),
            digest: report_digest(&run),
        });
        unit = next;
        units.push(unit);
        out.attempted += run.stats.owned as u64;
        out.failed += run.stats.failed as u64;
        out.check(journal.len() == cells.len(), || {
            format!(
                "journal holds {} entries for {} cells",
                journal.len(),
                cells.len()
            )
        });
        if first.is_none() {
            // Every repetition simulates the same cells, so one count
            // serves all of them (the digests below check that).
            instr = journal
                .entries()
                .map(|(_, json)| instructions(json))
                .sum::<Result<u64, String>>()?;
        }
        first.get_or_insert(run);
    }
    let heap = crate::heap::peak_bytes().saturating_sub(cal.bytes());
    let first = first.expect("at least one repetition");

    out.check(first.report.errors.is_empty(), || {
        format!(
            "{} cells failed: {:?}",
            first.report.errors.len(),
            first.report.errors
        )
    });
    let digest = reps[0].digest.clone();
    out.check(reps.iter().all(|r| r.digest == digest), || {
        "repetitions produced different reports".into()
    });
    let reference = load_reference(b.name).filter(|_| !ctx.bless);
    match &reference {
        Some(r) if r.seed == ctx.seed => out.check(r.digest == digest, || {
            format!(
                "report digest {digest} differs from the blessed {} (seed {})",
                r.digest, r.seed
            )
        }),
        Some(_) => {}
        None if ctx.bless => {}
        None => out.note(format!(
            "{}: no reference file; create one with --bless",
            b.name
        )),
    }
    let mut blessed = Reference {
        seed: ctx.seed,
        digest: digest.clone(),
        ..Reference::default()
    };
    if let Some(acc) = &b.accuracy {
        let tier: Vec<f64> = first.report.rows.iter().map(|r| r.slowdown).collect();
        let (err, det) = error_at_seed(&b, acc, &cells, &tier, reference.as_ref(), ctx, &mut out);
        blessed.max_ratio_err = err;
        blessed.detailed_slowdowns = det;
        if let Some(r) = &reference {
            check_no_accuracy_regression(&b, acc, &spec, r, &mut out)?;
        }
    }
    if ctx.bless {
        let text = serde_json::to_string_pretty(&blessed).expect("Reference serializes") + "\n";
        let path = reference_path(b.name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!("blessed {} at seed {}", path.display(), ctx.seed));
    }

    let times: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.raw_s)).collect();
    out.note(format!(
        "{} repetitions of {} cells ({} s); report digest {digest}",
        reps.len(),
        cells.len(),
        times.join(", ")
    ));
    out.note(calib::describe(
        &units,
        median_of(&reps, |r| r.cells as f64 / r.raw_s),
        "cells_per_s",
    ));
    out.metric("setup_s", setup_s);
    out.metric(
        "cells_per_s",
        median_of(&reps, |r| r.cells as f64 / r.norm_s),
    );
    out.metric(
        "sim_mips",
        median_of(&reps, |r| instr as f64 / r.norm_s / 1e6),
    );
    out.metric("latency_p50_ms", median_of(&reps, |r| r.norm_s * 1e3));
    if heap > 0 {
        out.metric("heap_peak_mb", heap as f64 / 1e6);
    }
    Ok(out)
}

/// Replays the cold resolution of every cell of `spec` the way
/// `run_campaign` resolves it, with spans: key, cache lookup (stored
/// only), the pair run, JSON, journal append, cache write (stored only),
/// and the JSON round trip. Every replayed outcome must serialize to the
/// entry `expected` holds for its key.
pub fn replay_campaign(
    spec: &CampaignSpec,
    store_dir: Option<&Path>,
    expected: &Journal,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let clocks = Rc::new(Clocks::default());
    let cells = rec.span("campaign.expand", || spec.expand())?;
    let mut store = store_dir.map(Store::open).transpose()?;
    let mut memory = Journal::in_memory();
    let (mut bytes, mut mismatched) = (0u64, 0usize);
    for cell in &cells {
        let key = rec.span("campaign.key", || {
            cell_fingerprint(
                "pair",
                &pair_config_json(
                    &cell.platform,
                    &cell.local,
                    &cell.target,
                    &cell.workload,
                    &cell.opts,
                ),
            )
        });
        if let Some(s) = &store {
            if rec.span("cache.get", || s.cache.get(&key)).is_some() {
                rec.count("cache.hit", 1);
            }
        }
        let outcome = timed::run_pair(
            &cell.platform,
            &cell.local,
            &cell.target,
            &cell.workload,
            &cell.opts,
            rec,
            &clocks,
        )?;
        let json = rec.span("campaign.json", || {
            serde_json::to_string(&outcome).expect("outcome serializes")
        });
        bytes += json.len() as u64;
        if expected.get(&key) != Some(json.as_str()) {
            mismatched += 1;
        }
        let journal = store.as_mut().map_or(&mut memory, |s| &mut s.journal);
        rec.span("journal.record", || journal.record(&key, &json))
            .map_err(|e| format!("journal append: {e}"))?;
        if let Some(s) = &store {
            rec.span("cache.put", || s.cache.put(&key, &json))
                .map_err(|e| format!("cache put: {e}"))?;
        }
        let back: PairOutcome = rec
            .span("campaign.json", || serde_json::from_str(&json))
            .map_err(|e| format!("outcome round trip: {e}"))?;
        drop(back);
    }
    rec.count("campaign.json.bytes", bytes);
    out.check(mismatched == 0, || {
        format!(
            "{mismatched} of {} replayed outcomes differ from the untraced run's journal",
            cells.len()
        )
    });
    Ok(())
}

/// Replays the warm read path of `spec` against `cache`: expansion, key,
/// cache lookup and JSON decode of every cell. Every cell must hit.
pub fn replay_cached(
    spec: &CampaignSpec,
    cache: &ResultCache,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let cells = rec.span("campaign.expand", || spec.expand())?;
    let mut misses = 0;
    for cell in &cells {
        let key = rec.span("campaign.key", || {
            cell_fingerprint(
                "pair",
                &pair_config_json(
                    &cell.platform,
                    &cell.local,
                    &cell.target,
                    &cell.workload,
                    &cell.opts,
                ),
            )
        });
        match rec.span("cache.get", || cache.get(&key)) {
            Some(json) => {
                rec.count("cache.hit", 1);
                rec.count("campaign.json.bytes", json.len() as u64);
                let o: Result<PairOutcome, _> =
                    rec.span("campaign.json", || serde_json::from_str(&json));
                if o.is_err() {
                    misses += 1;
                }
            }
            None => misses += 1,
        }
    }
    out.check(misses == 0, || {
        format!("{misses} warm cells missed the cache")
    });
    Ok(())
}

/// Fills the attribution metrics from a finished replay of `wall_s`
/// seconds. `error` is the reduced-fidelity error metric and its value
/// in percent, for a workload that runs reduced-fidelity cells.
pub fn attribution(
    rec: &Recorder,
    wall_s: f64,
    overhead_pct: f64,
    pool_efficiency: f64,
    error: Option<(&str, f64)>,
    out: &mut Outcome,
) {
    for m in ERROR_METRICS {
        out.metric(m, error.filter(|(n, _)| *n == m).map_or(0.0, |(_, v)| v));
    }
    let pct = |layer: &str| rec.self_s(layer) / wall_s * 100.0;
    let count = |layer: &str| rec.count_of(layer) as f64;
    out.metric("replay.busy_s", wall_s);
    out.metric("trace.overhead_pct", overhead_pct);
    out.metric("exec.pool_efficiency", pool_efficiency);
    out.metric("workloads.stream.self_pct", pct("workloads.stream"));
    out.metric("workloads.stream.slots", count("workloads.stream"));
    out.metric("cpu.engine.self_pct", pct("cpu.engine"));
    out.metric("cpu.warm.self_pct", pct("cpu.warm"));
    out.metric("cpu.warm.count", count("cpu.warm"));
    out.metric("cpu.setup.self_pct", pct("cpu.setup"));
    out.metric("mem.access.self_pct", pct("mem.access"));
    out.metric("mem.access.count", count("mem.access"));
    out.metric("mem.observe.self_pct", pct("mem.observe"));
    out.metric("mem.observe.count", count("mem.observe"));
    out.metric("mem.fast_forward.self_pct", pct("mem.fast_forward"));
    out.metric("mem.fast_forward.count", count("mem.fast_forward"));
    out.metric("spa.interval.self_pct", pct("spa.interval"));
    out.metric("spa.interval.count", count("spa.interval"));
    out.metric("spa.breakdown.self_pct", pct("spa.breakdown"));
    out.metric("campaign.expand.busy_s", rec.self_s("campaign.expand"));
    out.metric("campaign.key.busy_s", rec.self_s("campaign.key"));
    out.metric("campaign.json.busy_s", rec.self_s("campaign.json"));
    out.metric("campaign.json.bytes", count("campaign.json.bytes"));
    out.metric("cache.get.self_pct", pct("cache.get"));
    out.metric("cache.get.count", count("cache.get"));
    out.metric("cache.put.self_pct", pct("cache.put"));
    out.metric("cache.put.count", count("cache.put"));
    let gets = count("cache.get");
    out.metric(
        "cache.hit_ratio",
        if gets > 0.0 {
            count("cache.hit") / gets
        } else {
            0.0
        },
    );
    out.metric("journal.record.busy_s", rec.self_s("journal.record"));
    out.metric("journal.record.count", count("journal.record"));
    let server: f64 = [
        "server.health",
        "server.submit",
        "server.wait",
        "server.result",
    ]
    .iter()
    .map(|l| pct(l))
    .sum();
    out.metric("server.self_pct", server);
    out.metric("server.busy_rejections", count("server.busy"));
    out.note(format!("self time of the traced replay ({wall_s:.3} s):"));
    for line in rec.self_time_table(wall_s).lines() {
        out.note(line.to_string());
    }
}

/// The traced run of a batch workload: an untraced run with two
/// workers and one serial, then the traced serial replay.
fn run_batch_traced(b: Batch, ctx: &Ctx) -> Result<(Outcome, Recorder), String> {
    let mut out = Outcome::default();
    let spec = load_spec(b.name, ctx.seed)?;
    let (par_run, par_journal, par_s) = cold_run(&spec)?;
    melody::exec::set_jobs(1);
    let serial = cold_run(&spec);
    melody::exec::set_jobs(JOBS);
    let (_, _, serial_s) = serial?;
    out.attempted += par_run.stats.owned as u64;
    out.failed += par_run.stats.failed as u64;

    let rec = Recorder::new();
    let t = Instant::now();
    {
        let _root = rec.enter("replay");
        replay_campaign(&spec, None, &par_journal, &rec, &mut out)?;
    }
    let wall = t.elapsed().as_secs_f64();
    let error = match &b.accuracy {
        Some(acc) => {
            let cells = spec.expand()?;
            let tier: Vec<f64> = par_run.report.rows.iter().map(|r| r.slowdown).collect();
            let reference = load_reference(b.name);
            let (err, _) = error_at_seed(&b, acc, &cells, &tier, reference.as_ref(), ctx, &mut out);
            Some((acc.metric, err * 100.0))
        }
        None => None,
    };
    attribution(
        &rec,
        wall,
        (wall - serial_s) / serial_s * 100.0,
        serial_s / (par_s * JOBS as f64),
        error,
        &mut out,
    );
    out.note(format!(
        "untraced: {par_s:.3} s with {JOBS} workers, {serial_s:.3} s serial; traced serial replay {wall:.3} s"
    ));
    Ok((out, rec))
}

/// Names of every workload, in `BENCHMARK.json` order.
pub fn names() -> impl Iterator<Item = &'static str> {
    crate::metrics::WORKLOADS.iter().map(|(n, _)| *n)
}

/// Runs workload `name` untraced.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    melody::exec::set_jobs(JOBS);
    match batch(name) {
        Some(b) => run_batch(b, ctx),
        None if name == "serve_mixed" => crate::serve::run(ctx),
        None => Err(format!("unknown workload `{name}`")),
    }
}

/// Runs workload `name` traced; returns the outcome and the recorder
/// holding its spans.
pub fn run_traced(name: &str, ctx: &Ctx) -> Result<(Outcome, Recorder), String> {
    melody::exec::set_jobs(JOBS);
    match batch(name) {
        Some(b) => run_batch_traced(b, ctx),
        None if name == "serve_mixed" => crate::serve::run_traced(ctx),
        None => Err(format!("unknown workload `{name}`")),
    }
}
