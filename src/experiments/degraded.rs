//! Degraded-device characterization: latency/bandwidth curves under
//! deterministic fault regimes.
//!
//! Sweeps (device × fault regime) cells, each an MLC-style loaded-latency
//! curve against the device with a [`melody_mem::FaultConfig`] attached,
//! and reports the curves alongside the RAS event counters the fault
//! layer accumulated. The sweep runs on the resilient cell harness: a
//! panicking cell (e.g. an invalid regime name) is reported as a
//! structured [`CellError`] while the remaining cells complete, and every
//! finished cell is checkpointed to a [`Journal`] so an interrupted sweep
//! resumed with `--resume` reproduces the uninterrupted output
//! byte-for-byte.

use std::sync::Mutex;

use melody_mem::{faults, DeviceSpec, RasCounters};
use melody_workloads::mlc;
use serde::{Deserialize, Serialize};

use crate::cache::ResultCache;
use crate::campaign::{Axis, CampaignSpec, Draft};
use crate::exec::{run_cells, CellError, CellPolicy};
use crate::journal::Journal;
use crate::report::{ras_table, TableData};

use super::Scale;

/// One point of a degraded latency/bandwidth curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedPoint {
    /// Injected traffic delay, cycles.
    pub delay_cycles: u64,
    /// Achieved aggregate bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Mean foreground latency, ns.
    pub mean_latency_ns: f64,
    /// p99.9 foreground latency, ns.
    pub p999_ns: u64,
}

/// One finished (device × regime) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedCell {
    /// Device keyword (e.g. `"cxl-c"`).
    pub device: String,
    /// Fault regime name (see [`faults::REGIMES`]).
    pub regime: String,
    /// The loaded-latency curve under this regime.
    pub points: Vec<DegradedPoint>,
    /// RAS events accumulated across the whole curve.
    pub ras: RasCounters,
}

/// The full degraded-device sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedReport {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Finished cells, in sweep order (device-major).
    pub cells: Vec<DegradedCell>,
    /// Cells that failed, as structured errors.
    pub errors: Vec<CellError>,
}

impl DegradedReport {
    /// Renders the curve summary, the RAS table, and any cell errors.
    pub fn render(&self) -> String {
        let mut curves = TableData::new(
            "degraded: latency/bandwidth under fault regimes",
            &["device", "regime", "idle(ns)", "p99.9(ns)", "peak(GB/s)"],
        );
        for c in &self.cells {
            let idle = c.points.first().map_or(0.0, |p| p.mean_latency_ns);
            let p999 = c.points.iter().map(|p| p.p999_ns).max().unwrap_or(0);
            let peak = c
                .points
                .iter()
                .map(|p| p.bandwidth_gbps)
                .fold(0.0, f64::max);
            curves.push_row(vec![
                c.device.clone(),
                c.regime.clone(),
                format!("{idle:.0}"),
                p999.to_string(),
                format!("{peak:.1}"),
            ]);
        }
        let ras_rows: Vec<(String, String, RasCounters)> = self
            .cells
            .iter()
            .filter(|c| !c.ras.is_zero())
            .map(|c| (c.device.clone(), c.regime.clone(), c.ras))
            .collect();
        let mut out = curves.render();
        if !ras_rows.is_empty() {
            out.push('\n');
            out.push_str(&ras_table("degraded: RAS events", &ras_rows).render());
        }
        if !self.errors.is_empty() {
            out.push_str("\n== failed cells ==\n");
            for e in &self.errors {
                out.push_str(&format!("{e}\n"));
            }
        }
        out
    }

    /// The cell for a (device, regime) pair, if it finished.
    pub fn cell(&self, device: &str, regime: &str) -> Option<&DegradedCell> {
        self.cells
            .iter()
            .find(|c| c.device == device && c.regime == regime)
    }
}

/// One cell's device with its fault regime, resolved through the
/// campaign grid's device and fault entries.
fn faulted_device(device: &str, regime: &str) -> Result<DeviceSpec, String> {
    let mut draft = Draft::default();
    for (axis, name) in [(Axis::Device, device), (Axis::Faults, regime)] {
        axis.resolve(name, &CampaignSpec::default())?
            .apply(&mut draft);
    }
    Ok(draft.target.expect("the device axis is set"))
}

/// The standard sweep: the four Table-1 CXL devices × every fault regime.
pub fn standard_cells() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    for dev in ["cxl-a", "cxl-b", "cxl-c", "cxl-d"] {
        for regime in faults::REGIMES {
            cells.push((dev.to_string(), regime.to_string()));
        }
    }
    cells
}

/// The delay ladder for degraded curves (shortened at smoke scale).
fn degraded_delays(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Smoke => vec![0, 200, 1_000, 7_000, 40_000],
        _ => mlc::standard_delays(),
    }
}

/// The journal key of one cell at one scale.
pub fn cell_key(device: &str, regime: &str, scale: Scale) -> String {
    format!("{device}|{regime}|{scale:?}")
}

/// The content-addressed result-cache key of one cell, derived from the
/// fully resolved configuration (device spec with faults applied, delay
/// ladder, request count). `None` when the names don't resolve — such
/// cells skip the cache and surface their error through the harness.
fn cell_cache_key(device: &str, regime: &str, scale: Scale) -> Option<String> {
    let spec = faulted_device(device, regime).ok()?;
    let config = format!(
        "{{\"spec\":{},\"delays\":{:?},\"requests\":{}}}",
        spec.canonical_json(),
        degraded_delays(scale),
        scale.mlc_requests()
    );
    Some(crate::campaign::cell_fingerprint("degraded.cell", &config))
}

/// Computes one (device × regime) cell.
///
/// # Panics
///
/// Panics on an unknown device keyword or regime name — under the
/// resilient harness this surfaces as a [`CellError`], not a dead sweep.
fn compute_cell(device: &str, regime: &str, scale: Scale) -> DegradedCell {
    let spec = faulted_device(device, regime).unwrap_or_else(|e| panic!("{e}"));
    let delays = degraded_delays(scale);
    let pts = mlc::latency_bandwidth_curve(&spec, &delays, 1.0, scale.mlc_requests());
    let mut ras = RasCounters::default();
    let points = pts
        .iter()
        .map(|p| {
            ras.merge(&p.stats.ras);
            DegradedPoint {
                delay_cycles: p.delay_cycles,
                bandwidth_gbps: p.bandwidth_gbps,
                mean_latency_ns: p.mean_latency_ns(),
                p999_ns: p.latency.percentile(99.9),
            }
        })
        .collect();
    DegradedCell {
        device: device.to_string(),
        regime: regime.to_string(),
        points,
        ras,
    }
}

/// Runs the standard sweep with an in-memory journal, no result cache
/// and the default policy.
pub fn run(scale: Scale) -> DegradedReport {
    run_with(
        scale,
        &standard_cells(),
        &mut Journal::in_memory(),
        None,
        None,
        &CellPolicy::default(),
    )
}

/// Runs a degraded sweep over explicit cells with checkpointing.
///
/// Cells already in `journal` are restored without recomputation (the
/// `--resume` path); newly finished cells are appended to it as they
/// complete, so a killed sweep loses at most in-flight cells. Cells in
/// `cache` (any earlier run with the same resolved config) are restored
/// and journaled; fresh cells are stored to it. `limit` caps how many
/// *missing* cells are attempted this invocation (used by interrupt
/// tests and incremental runs); cells beyond the limit are simply
/// absent from this report, not errors.
///
/// Every result — journaled, cached or fresh — passes through one JSON
/// round-trip, so resumed and uninterrupted sweeps serialize
/// byte-identically.
pub fn run_with(
    scale: Scale,
    cells: &[(String, String)],
    journal: &mut Journal,
    cache: Option<&ResultCache>,
    limit: Option<usize>,
    policy: &CellPolicy,
) -> DegradedReport {
    // Partition into journaled, cache-warm and missing cells. The
    // journal (exact sweep state) wins over the content-addressed cache
    // (any earlier run with the same resolved config); both round-trip
    // through the same JSON, so all three sources are byte-identical.
    let mut slots: Vec<Option<DegradedCell>> = Vec::with_capacity(cells.len());
    let mut todo: Vec<(usize, String)> = Vec::new();
    for (i, (device, regime)) in cells.iter().enumerate() {
        let key = cell_key(device, regime, scale);
        let ck = cell_cache_key(device, regime, scale);
        if let Some(json) = journal.get(&key) {
            let cell = serde_json::from_str(json).expect("journaled cell must deserialize");
            // Backfill the cache so journal-free runs also start warm.
            if let (Some(c), Some(ck)) = (cache, &ck) {
                let _ = c.put(ck, json);
            }
            slots.push(Some(cell));
            continue;
        }
        let cached = cache.zip(ck.as_deref()).and_then(|(c, ck)| c.get(ck));
        if let Some(json) = cached {
            if let Ok(cell) = serde_json::from_str::<DegradedCell>(&json) {
                // Checkpoint the restored cell so `--resume` without the
                // cache still skips it.
                journal.record(&key, &json).expect("journal append");
                slots.push(Some(cell));
                continue;
            }
        }
        slots.push(None);
        todo.push((i, key));
    }
    if let Some(n) = limit {
        todo.truncate(n);
    }

    // Run the missing cells on the resilient harness, checkpointing each
    // as it completes (workers append concurrently; the journal is keyed
    // so append order is irrelevant).
    let journal_mx = Mutex::new(journal);
    let results = run_cells(
        &todo,
        policy,
        |_, (_, key)| key.clone(),
        |(i, key)| {
            let (device, regime) = &cells[*i];
            let cell = compute_cell(device, regime, scale);
            let json = serde_json::to_string(&cell).expect("cell must serialize");
            journal_mx
                .lock()
                .expect("journal lock")
                .record(key, &json)
                .expect("journal append");
            if let Some((c, ck)) = cache.zip(cell_cache_key(device, regime, scale)) {
                let _ = c.put(&ck, &json);
            }
            // Round-trip so fresh results are byte-identical to restored
            // ones.
            serde_json::from_str::<DegradedCell>(&json).expect("cell must round-trip")
        },
    );

    let mut errors = Vec::new();
    for ((i, _), r) in todo.into_iter().zip(results) {
        match r {
            Ok(cell) => slots[i] = Some(cell),
            Err(e) => errors.push(CellError { index: i, ..e }),
        }
    }
    DegradedReport {
        scale,
        cells: slots.into_iter().flatten().collect(),
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cells() -> Vec<(String, String)> {
        vec![
            ("cxl-a".into(), "none".into()),
            ("cxl-c".into(), "crc-storm".into()),
            ("cxl-d".into(), "thermal".into()),
        ]
    }

    #[test]
    fn faulted_cells_accumulate_ras_and_none_does_not() {
        let r = run_with(
            Scale::Smoke,
            &smoke_cells(),
            &mut Journal::in_memory(),
            None,
            None,
            &CellPolicy::default(),
        );
        assert!(r.errors.is_empty(), "errors: {:?}", r.errors);
        assert_eq!(r.cells.len(), 3);
        assert!(r.cell("cxl-a", "none").expect("baseline").ras.is_zero());
        let storm = r.cell("cxl-c", "crc-storm").expect("storm cell");
        assert!(
            storm.ras.correctable > 0,
            "storm must replay: {:?}",
            storm.ras
        );
        let thermal = r.cell("cxl-d", "thermal").expect("thermal cell");
        assert!(
            thermal.ras.throttle_ps > 0,
            "thermal regime must throttle under load: {:?}",
            thermal.ras
        );
        assert!(r.render().contains("RAS events"));
    }

    #[test]
    fn unknown_regime_is_a_cell_error_not_a_dead_sweep() {
        let cells = vec![
            ("cxl-a".into(), "none".into()),
            ("cxl-b".into(), "no-such-regime".into()),
        ];
        let r = run_with(
            Scale::Smoke,
            &cells,
            &mut Journal::in_memory(),
            None,
            None,
            &CellPolicy::default(),
        );
        assert_eq!(r.cells.len(), 1, "good cell still completes");
        assert_eq!(r.errors.len(), 1);
        let e = &r.errors[0];
        assert_eq!(e.index, 1);
        assert!(
            e.message.contains("no-such-regime"),
            "message: {}",
            e.message
        );
        assert!(r.render().contains("failed cells"));
    }

    #[test]
    fn journaled_rerun_skips_and_matches() {
        let cells = smoke_cells();
        let mut j = Journal::in_memory();
        let a = run_with(
            Scale::Smoke,
            &cells,
            &mut j,
            None,
            None,
            &CellPolicy::default(),
        );
        assert_eq!(j.len(), 3);
        // Second run restores everything from the journal.
        let b = run_with(
            Scale::Smoke,
            &cells,
            &mut j,
            None,
            None,
            &CellPolicy::default(),
        );
        assert_eq!(
            serde_json::to_string(&a).expect("a"),
            serde_json::to_string(&b).expect("b"),
        );
    }

    #[test]
    fn cached_rerun_matches_and_journals_the_hits() {
        let dir = std::env::temp_dir().join(format!("melody-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = smoke_cells();
        let cold = ResultCache::open(&dir).expect("open cache");
        let policy = CellPolicy::default();
        let a = run_with(
            Scale::Smoke,
            &cells,
            &mut Journal::in_memory(),
            Some(&cold),
            None,
            &policy,
        );
        assert_eq!(cold.stats().misses, 3);
        // A fresh journal and cache handle: every cell loads from the
        // cache and is checkpointed, byte-identically.
        let warm = ResultCache::open(&dir).expect("reopen cache");
        let mut j = Journal::in_memory();
        let b = run_with(Scale::Smoke, &cells, &mut j, Some(&warm), None, &policy);
        assert_eq!(warm.stats().hits, 3);
        assert_eq!(j.len(), 3, "cache hits are journaled");
        assert_eq!(
            serde_json::to_string(&a).expect("a"),
            serde_json::to_string(&b).expect("b"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn standard_cells_cover_devices_times_regimes() {
        let cells = standard_cells();
        assert_eq!(cells.len(), 4 * faults::REGIMES.len());
        for (d, r) in &cells {
            assert!(faulted_device(d, r).is_ok(), "device {d}, regime {r}");
        }
    }
}
