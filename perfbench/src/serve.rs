//! The `serve_mixed` workload and the server rung of the ladder.
//!
//! An in-process `Server::start` on an ephemeral port with a result
//! cache, driven through the library's own HTTP client. The load is a
//! closed loop: each client submits its next job only after fetching the
//! previous job's result. Three of every four jobs resubmit one of four
//! specs whose cells were put in the cache during set-up (cache reads);
//! the fourth is a fast-tier spec with a seed never used before (cache
//! and journal writes).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use melody::cache::ResultCache;
use melody::campaign::{run_campaign, CampaignReport, CampaignSpec, Shard};
use melody::exec::CellPolicy;
use melody::journal::Journal;
use melody::server::api::JobStatus;
use melody::server::{client, ServeConfig, Server, ServerHandle};
use serde::Deserialize;

use crate::calib::{self, Calibrator};
use crate::metrics::{median, render_tail, tail_percentile};
use crate::trace::Recorder;
use crate::workload::{self, Ctx, Outcome, JOBS};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Poll interval of `client::wait`.
const POLL: Duration = Duration::from_millis(1);
/// Longest wait for one job before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Server set-ups per run (the median is `setup_s`).
const SETUPS: usize = 3;
/// Segments of the timed phase, each bracketed by calibrations.
const SEGMENTS: usize = 8;
/// Jobs in each serial loop of the traced run.
const TRACED_JOBS: u64 = 24;
/// Round trips in the server rung of the ladder.
const LADDER_JOBS: usize = 24;

/// `workloads/serve_mixed.json`: the specs warmed during set-up, and the
/// fast-tier spec each cache-writing job reseeds.
#[derive(Debug, Clone, Deserialize)]
struct ServeMix {
    warm: Vec<CampaignSpec>,
    fresh: CampaignSpec,
}

/// Host times of one job's client calls, in milliseconds.
struct JobTimes {
    body: Vec<u8>,
    health_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    result_ms: f64,
    rtt_ms: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Why a job failed, separating a refused submission (`429 Busy`) from
/// any other failure.
enum JobError {
    Busy,
    Other(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Busy => f.write_str("submission refused: server busy"),
            JobError::Other(m) => f.write_str(m),
        }
    }
}

/// One job: optional health probe, submit, wait until it finishes, fetch
/// the result. The round trip runs from submit to result fetched.
fn job(addr: &str, client_name: &str, spec_json: &str, health: bool) -> Result<JobTimes, JobError> {
    let other = |e: client::ClientError| JobError::Other(e.to_string());
    let mut health_ms = 0.0;
    if health {
        let t = Instant::now();
        client::health(addr).map_err(other)?;
        health_ms = ms(t);
    }
    let t0 = Instant::now();
    let reply = match client::submit(addr, spec_json, Some(client_name), None) {
        Ok(r) => r,
        Err(client::ClientError::Busy { .. }) => return Err(JobError::Busy),
        Err(e) => return Err(other(e)),
    };
    let submit_ms = ms(t0);
    let t1 = Instant::now();
    let view = client::wait(addr, &reply.job_id, POLL, JOB_TIMEOUT).map_err(other)?;
    if view.status != JobStatus::Done {
        return Err(JobError::Other(format!(
            "{} ended {}: {}",
            reply.job_id,
            view.status.label(),
            view.error.unwrap_or_default()
        )));
    }
    let wait_ms = ms(t1);
    let t2 = Instant::now();
    let body = client::job_result(addr, &reply.job_id).map_err(other)?;
    let result_ms = ms(t2);
    Ok(JobTimes {
        body,
        health_ms,
        submit_ms,
        wait_ms,
        result_ms,
        rtt_ms: ms(t0),
    })
}

/// The exact bytes the server returns for a spec whose direct-engine
/// report is `report` (`melody campaign --json` output).
fn served_bytes(report: &CampaignReport) -> Vec<u8> {
    let mut json = melody::report::to_json(report);
    json.push('\n');
    json.into_bytes()
}

/// Runs `spec` on the direct engine with no cache; returns the run's
/// journal (every cell's outcome), the bytes the server must serve for
/// it, and the host seconds it took.
fn direct(spec: &CampaignSpec) -> Result<(Journal, Vec<u8>, f64), String> {
    let mut journal = Journal::in_memory();
    let t = Instant::now();
    let run = run_campaign(
        spec,
        Shard::full(),
        &mut journal,
        None,
        &CellPolicy::default(),
    )?;
    Ok((
        journal,
        served_bytes(&run.report),
        t.elapsed().as_secs_f64(),
    ))
}

fn journal_instructions(journal: &Journal) -> Result<u64, String> {
    journal
        .entries()
        .map(|(_, json)| workload::instructions(json))
        .sum()
}

/// A warm spec as the clients submit it.
struct WarmSpec {
    json: String,
    /// What the server must return for it.
    bytes: Vec<u8>,
    cells: usize,
    instr: u64,
}

/// A started server with its warm specs.
struct Warm {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
    specs: Vec<WarmSpec>,
}

impl Warm {
    fn stop(self) {
        self.handle.drain();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One set-up: fresh state and cache directories, the warm specs run
/// into the cache on the direct engine, the server started and healthy.
fn set_up(warm: &[CampaignSpec], seed: u64, dir: &Path) -> Result<Warm, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
    let mut instr_by_key: BTreeMap<String, u64> = BTreeMap::new();
    let mut specs = Vec::new();
    for spec in warm {
        let spec = CampaignSpec {
            seed: Some(seed),
            ..spec.clone()
        };
        let mut journal = Journal::in_memory();
        let run = run_campaign(
            &spec,
            Shard::full(),
            &mut journal,
            Some(&cache),
            &CellPolicy::default(),
        )?;
        if !run.report.errors.is_empty() {
            return Err(format!(
                "warming {} failed: {:?}",
                spec.name, run.report.errors
            ));
        }
        for (key, json) in journal.entries() {
            instr_by_key.insert(key.to_string(), workload::instructions(json)?);
        }
        let cells = spec.expand()?;
        let instr = cells
            .iter()
            .map(|c| instr_by_key.get(&c.key).copied())
            .sum::<Option<u64>>()
            .ok_or("a warm spec has a cell no warm run simulated")?;
        specs.push(WarmSpec {
            json: serde_json::to_string(&spec).expect("CampaignSpec serializes"),
            bytes: served_bytes(&run.report),
            cells: cells.len(),
            instr,
        });
    }
    let handle = Server::start(ServeConfig {
        port: 0,
        state_dir: dir.join("state"),
        cache_dir: Some(dir.join("cache")),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start in {}: {e}", dir.display()))?;
    let addr = handle.addr();
    client::health(&addr).map_err(|e| format!("health after start: {e}"))?;
    Ok(Warm {
        handle,
        addr,
        dir: dir.to_path_buf(),
        specs,
    })
}

/// The traffic mix of one run.
struct Mix {
    warm: Warm,
    fresh: CampaignSpec,
    fresh_cells: usize,
    seed: u64,
    /// Cache-writing jobs handed out so far (each gets its own seed).
    fresh_jobs: AtomicU64,
}

impl Mix {
    /// The spec JSON of a new cache-writing job.
    fn next_fresh(&self) -> String {
        let n = self.fresh_jobs.fetch_add(1, Ordering::Relaxed);
        let spec = CampaignSpec {
            seed: Some(fresh_seed(self.seed, n)),
            ..self.fresh.clone()
        };
        serde_json::to_string(&spec).expect("CampaignSpec serializes")
    }
}

/// Seed of the `n`-th cache-writing job of a run with base `seed`.
fn fresh_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(1 + n)
}

fn load_mix() -> Result<ServeMix, String> {
    let path = workload::spec_path("serve_mixed");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Which spec a job submitted.
enum JobKind {
    /// The warm spec at this index.
    Warm(usize),
    /// A cache-writing spec, as submitted (JSON).
    Fresh(String),
}

/// One finished or failed job.
struct Done {
    result: Result<JobTimes, JobError>,
    kind: JobKind,
    cells: usize,
    /// Instructions behind the job (a fresh job's are counted when it is
    /// verified).
    instr: u64,
}

/// Job `i` of client `c`: every fourth writes the cache with a new
/// seed; the others cycle through the warm specs.
fn run_job(mix: &Mix, c: usize, i: u64, health: bool) -> Done {
    let name = format!("client-{c}");
    if i % 4 == 3 {
        let json = mix.next_fresh();
        Done {
            result: job(&mix.warm.addr, &name, &json, health),
            kind: JobKind::Fresh(json),
            cells: mix.fresh_cells,
            instr: 0,
        }
    } else {
        let k = (i as usize + c) % mix.warm.specs.len();
        let w = &mix.warm.specs[k];
        Done {
            result: job(&mix.warm.addr, &name, &w.json, health),
            kind: JobKind::Warm(k),
            cells: w.cells,
            instr: w.instr,
        }
    }
}

/// Checks every finished job's bytes: warm jobs against the direct
/// engine's bytes from set-up, fresh jobs against a direct run now
/// (outside the timed phase), which also counts their instructions.
fn verify(done: &mut [Done], warm: &[WarmSpec], out: &mut Outcome) {
    for d in done.iter_mut() {
        let body = match &d.result {
            Ok(t) => &t.body,
            Err(e) => {
                out.failures.push(format!("job failed: {e}"));
                continue;
            }
        };
        match &d.kind {
            JobKind::Warm(k) => out.check(body == &warm[*k].bytes, || {
                format!("warm spec #{k}: the served result differs from the direct run")
            }),
            JobKind::Fresh(json) => {
                let checked = serde_json::from_str::<CampaignSpec>(json)
                    .map_err(|e| format!("{e}"))
                    .and_then(|spec| direct(&spec))
                    .and_then(|(journal, bytes, _)| Ok((bytes, journal_instructions(&journal)?)));
                match checked {
                    Ok((bytes, instr)) => {
                        out.check(&bytes == body, || {
                            "a cache-writing job's result differs from the direct run".into()
                        });
                        d.instr = instr;
                    }
                    Err(e) => {
                        out.check(false, || format!("direct run of a cache-writing job: {e}"))
                    }
                }
            }
        }
    }
    let failed = done.iter().filter(|d| d.result.is_err()).count();
    out.attempted += done.len() as u64;
    out.failed += failed as u64;
}

fn busy_rejections(done: &[Done]) -> usize {
    done.iter()
        .filter(|d| matches!(d.result, Err(JobError::Busy)))
        .count()
}

/// Builds the mix on a warm server.
fn mix_on(mix: ServeMix, warm: Warm, seed: u64) -> Result<Mix, String> {
    let fresh_cells = mix.fresh.expand()?.len();
    Ok(Mix {
        warm,
        fresh: mix.fresh,
        fresh_cells,
        seed,
        fresh_jobs: AtomicU64::new(0),
    })
}

/// The untraced `serve_mixed` run. Set-ups and each of the timed
/// phase's [`SEGMENTS`] are bracketed by host speed calibrations
/// ([`crate::calib`]); the clients pause between segments.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = load_mix()?;
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    let mut unit = cal.measure(0.0);
    let mut units = vec![unit];
    let mut setups = Vec::new();
    let mut warm: Option<Warm> = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let w = set_up(&spec.warm, ctx.seed, &ctx.work.join(format!("serve-{k}")))?;
        let raw = t.elapsed().as_secs_f64();
        if let Some(prev) = warm.replace(w) {
            prev.stop();
        }
        let next = cal.measure(raw);
        setups.push(calib::normalize(raw, unit, next));
        unit = next;
        units.push(unit);
    }
    let mix = mix_on(spec, warm.expect("at least one set-up"), ctx.seed)?;

    // (job, factor scaling its host times to the reference host speed)
    let mut done: Vec<(Done, f64)> = Vec::new();
    let (mut raw_s, mut norm_s) = (0.0, 0.0);
    let segment = Duration::from_secs_f64(ctx.seconds / SEGMENTS as f64);
    let mut first_index = [0u64; CLIENTS];
    for _ in 0..SEGMENTS {
        let start = Instant::now();
        let jobs: Vec<Vec<Done>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (mix, first) = (&mix, first_index[c]);
                    s.spawn(move || {
                        let mut jobs = Vec::new();
                        while start.elapsed() < segment {
                            jobs.push(run_job(mix, c, first + jobs.len() as u64, false));
                        }
                        jobs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let next = cal.measure(elapsed);
        let factor = calib::normalize(1.0, unit, next);
        unit = next;
        units.push(unit);
        raw_s += elapsed;
        norm_s += elapsed * factor;
        for (c, client_jobs) in jobs.into_iter().enumerate() {
            first_index[c] += client_jobs.len() as u64;
            done.extend(client_jobs.into_iter().map(|d| (d, factor)));
        }
    }
    let heap = crate::heap::peak_bytes().saturating_sub(cal.bytes());
    let (mut jobs, factors): (Vec<Done>, Vec<f64>) = done.into_iter().unzip();
    verify(&mut jobs, &mix.warm.specs, &mut out);
    mix.warm.stop();

    let ok = || jobs.iter().zip(&factors).filter(|(d, _)| d.result.is_ok());
    let rtts: Vec<f64> = ok()
        .filter_map(|(d, f)| d.result.as_ref().ok().map(|t| t.rtt_ms * f))
        .collect();
    let raw_rtts: Vec<f64> = ok()
        .filter_map(|(d, _)| d.result.as_ref().ok().map(|t| t.rtt_ms))
        .collect();
    let cells: usize = ok().map(|(d, _)| d.cells).sum();
    let instr: u64 = ok().map(|(d, _)| d.instr).sum();
    out.note(format!(
        "{} jobs ({} writing the cache) from {CLIENTS} closed-loop clients in {raw_s:.2} s; {} refused",
        jobs.len(),
        jobs.iter().filter(|d| matches!(d.kind, JobKind::Fresh(_))).count(),
        busy_rejections(&jobs)
    ));
    out.note(format!(
        "round trip (ms): {}",
        render_tail(tail_percentile(&rtts))
    ));
    out.note(calib::describe(
        &units,
        median(&raw_rtts).unwrap_or(f64::NAN),
        "latency_p50_ms",
    ));
    out.metric("setup_s", median(&setups).expect("set-ups ran"));
    out.metric("cells_per_s", cells as f64 / norm_s);
    out.metric("sim_mips", instr as f64 / norm_s / 1e6);
    out.metric("latency_p50_ms", median(&rtts).unwrap_or(f64::NAN));
    if heap > 0 {
        out.metric("heap_peak_mb", heap as f64 / 1e6);
    }
    Ok(out)
}

/// `jobs` jobs from one client, one after another; returns them and the
/// loop's wall time.
fn serial_loop(mix: &Mix, jobs: u64, health: bool) -> (Vec<Done>, f64) {
    let t = Instant::now();
    let done = (0..jobs).map(|i| run_job(mix, 0, i, health)).collect();
    (done, t.elapsed().as_secs_f64())
}

/// The traced `serve_mixed` run: an untraced and a traced serial loop
/// (their difference is the tracing overhead), then a replay outside the
/// server of its per-cell work for a warm spec (cache reads) and a fresh
/// one (simulation, journal and cache writes).
pub fn run_traced(ctx: &Ctx) -> Result<(Outcome, Recorder), String> {
    let spec = load_mix()?;
    let mut out = Outcome::default();
    let warm = set_up(&spec.warm, ctx.seed, &ctx.work.join("serve"))?;
    let mix = mix_on(spec, warm, ctx.seed)?;
    let (mut plain, plain_s) = serial_loop(&mix, TRACED_JOBS, false);

    let fresh = CampaignSpec {
        seed: Some(fresh_seed(ctx.seed, u64::MAX / 2)),
        ..mix.fresh.clone()
    };
    melody::exec::set_jobs(1);
    let serial = direct(&fresh);
    melody::exec::set_jobs(JOBS);
    let (_, _, serial_s) = serial?;
    let (fresh_journal, _, fresh_s) = direct(&fresh)?;
    let rec = Recorder::new();
    let t = Instant::now();
    let traced = {
        let _root = rec.enter("replay");
        let (traced, traced_s) = serial_loop(&mix, TRACED_JOBS, true);
        for j in traced.iter().filter_map(|d| d.result.as_ref().ok()) {
            for (layer, call_ms) in [
                ("server.health", j.health_ms),
                ("server.submit", j.submit_ms),
                ("server.wait", j.wait_ms),
                ("server.result", j.result_ms),
            ] {
                rec.charge(layer, (call_ms * 1e6) as u64, 1);
            }
        }
        let cache =
            ResultCache::open(mix.warm.dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
        let warm_spec: CampaignSpec =
            serde_json::from_str(&mix.warm.specs[0].json).map_err(|e| format!("{e}"))?;
        workload::replay_cached(&warm_spec, &cache, &rec, &mut out)?;
        workload::replay_campaign(
            &fresh,
            Some(&ctx.work.join("replay")),
            &fresh_journal,
            &rec,
            &mut out,
        )?;
        (traced, traced_s)
    };
    let wall = t.elapsed().as_secs_f64();
    let (mut traced, traced_s) = traced;
    rec.count(
        "server.busy",
        (busy_rejections(&plain) + busy_rejections(&traced)) as u64,
    );
    verify(&mut plain, &mix.warm.specs, &mut out);
    verify(&mut traced, &mix.warm.specs, &mut out);
    mix.warm.stop();
    workload::attribution(
        &rec,
        wall,
        (traced_s - plain_s) / plain_s * 100.0,
        serial_s / (fresh_s * JOBS as f64),
        None,
        &mut out,
    );
    out.note(format!(
        "serial loops of {TRACED_JOBS} jobs: untraced {plain_s:.3} s, traced {traced_s:.3} s"
    ));
    Ok((out, rec))
}

/// The server rung of the ladder: round trips of one small cached spec,
/// each client call timed on its own.
pub fn ladder(seed: u64, dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let spec: CampaignSpec = serde_json::from_str(
        r#"{"name": "ladder-serve", "platforms": ["spr2s"], "devices": ["cxl-b"],
            "workloads": ["605.mcf", "519.lbm"], "fidelity": "detailed", "mem_refs": 2000}"#,
    )
    .map_err(|e| format!("ladder spec: {e}"))?;
    let warm = set_up(&[spec], seed, dir)?;
    let mut calls: [Vec<f64>; 5] = Default::default();
    let mut failure = None;
    for _ in 0..LADDER_JOBS {
        let w = &warm.specs[0];
        match job(&warm.addr, "ladder", &w.json, true) {
            Ok(t) if t.body == w.bytes => {
                let times = [t.health_ms, t.submit_ms, t.wait_ms, t.result_ms, t.rtt_ms];
                for (v, x) in calls.iter_mut().zip(times) {
                    v.push(x);
                }
            }
            Ok(_) => failure = Some("served result differs from the direct run".to_string()),
            Err(e) => failure = Some(e.to_string()),
        }
    }
    warm.stop();
    if let Some(f) = failure {
        return Err(format!("server ladder: {f}"));
    }
    let names = [
        "server.health.p50_ms",
        "server.submit.p50_ms",
        "server.wait.p50_ms",
        "server.result.p50_ms",
        "server.roundtrip.p50_ms",
    ];
    Ok(names
        .into_iter()
        .zip(calls)
        .map(|(n, v)| (n, median(&v).expect("ladder jobs ran")))
        .collect())
}
