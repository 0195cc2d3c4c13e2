//! Deterministic parallel execution of independent experiment cells.
//!
//! Every experiment in this crate decomposes into *cells* — (setup ×
//! workload) pairs, (device × thread-count) sweeps, per-device probes —
//! that share no mutable state and derive their RNG seeds from the cell
//! identity alone (see `runner::workload_seed`). That makes the fan-out
//! trivially deterministic: results are collected back into the exact
//! order a serial loop would have produced, so parallel output is
//! byte-identical to serial output regardless of worker count or
//! scheduling.
//!
//! Two fan-out flavours are provided:
//!
//! - [`parallel_map`] — infallible mapping. A panicking cell still
//!   propagates (after *every* other cell has completed, so one poisoned
//!   cell cannot discard finished work or its side effects).
//! - [`run_cells`] — resilient mapping for long sweeps: each cell runs
//!   under `catch_unwind`, failures come back as structured
//!   [`CellError`]s instead of unwinding, panicked cells are retried
//!   under capped exponential backoff with deterministic seeded jitter,
//!   an optional per-cell watchdog deadline flags hung cells, and an
//!   optional cancellation token lets a drain handler stop the sweep at
//!   the next cell boundary without losing in-flight work.
//!
//! The worker count is a process-wide setting ([`set_jobs`] /
//! [`jobs`]), wired to `--jobs N` on the `melody` binary and the
//! `figures` example. `--jobs 1` forces the legacy serial path;
//! the default uses all available cores. It is the one run setting kept
//! process-wide because it sizes the host's worker pool, never a cell:
//! everything that decides a result travels in [`crate::RunOptions`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use melody_telemetry::CellTelemetry;
use serde::{Deserialize, Serialize};

/// Runs one cell under telemetry capture: the cell's trace events,
/// metrics and spans are collected into a private buffer (returned
/// alongside the result) instead of the worker's ambient context.
/// Captured buffers are handed to [`melody_telemetry::sink_cell`] in
/// *item order* after the fan-out joins, which is what makes trace
/// exports byte-identical across worker counts. With telemetry off this
/// is a plain call to `f`.
fn cell_capture<R>(index: usize, f: impl FnOnce() -> R) -> (R, CellTelemetry) {
    melody_telemetry::capture(|| {
        melody_telemetry::emit(
            melody_telemetry::EventKind::CellStart,
            0,
            0,
            index as u64,
            0,
        );
        melody_telemetry::count("exec.cells", 1);
        let _span = melody_telemetry::span("exec.cell");
        f()
    })
}

/// How many [`traced`] calls are running, and the telemetry mode the
/// first of them found.
static TRACED: Mutex<(usize, melody_telemetry::Mode)> =
    Mutex::new((0, melody_telemetry::Mode::Off));

/// Runs `f` with tracing forced on, capturing its telemetry privately,
/// and restores the previous telemetry mode afterwards.
///
/// This is how `melody run --json` gets the trace events the insight
/// timeline correlates without requiring the user to pass `--telemetry
/// trace` (and without leaking the forced mode into the rest of the
/// process): the closure's events, overflow count, and metrics registry
/// come back directly instead of going to the global sink.
///
/// Calls may overlap (`melody tiering` runs one per cell on the worker
/// pool): the first to enter saves the mode and forces tracing, and the
/// last to return, or unwind, restores it, so no cell runs with
/// tracing switched off under it.
pub fn traced<R>(
    f: impl FnOnce() -> R,
) -> (
    R,
    Vec<melody_telemetry::TraceEvent>,
    u64,
    melody_telemetry::MetricsRegistry,
) {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            let mut running = TRACED.lock().unwrap_or_else(|e| e.into_inner());
            running.0 -= 1;
            if running.0 == 0 {
                melody_telemetry::set_mode(running.1);
            }
        }
    }
    {
        let mut running = TRACED
            .lock()
            .expect("TRACED is held only across mode loads and stores, which never panic");
        if running.0 == 0 {
            running.1 = melody_telemetry::mode();
            melody_telemetry::set_mode(melody_telemetry::Mode::Trace);
        }
        running.0 += 1;
    }
    let _leave = Leave;
    let (r, cell) = melody_telemetry::capture(f);
    let (events, dropped, metrics) = cell.into_parts();
    (r, events, dropped, metrics)
}

/// Process-wide worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count. `0` restores the default
/// (all available cores); `1` forces serial execution.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the value set via [`set_jobs`], or the
/// machine's available parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on [`jobs`] worker threads, returning results
/// in item order — byte-identical to `items.iter().map(f).collect()`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(jobs(), items, f)
}

/// [`parallel_map`] with an explicit worker count (used by tests to
/// avoid the process-wide setting; `workers <= 1` runs the plain serial
/// loop).
///
/// Panic semantics: every cell is attempted even if an earlier cell
/// panics — each call to `f` runs under `catch_unwind`, all workers are
/// joined, and only then is the panic of the *lowest-indexed* failed
/// cell re-raised. A panic therefore cannot discard other cells'
/// finished work (journal appends, logged output) and the surfaced
/// failure is deterministic regardless of worker scheduling.
pub fn parallel_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        if !melody_telemetry::metrics_on() {
            return items.iter().map(f).collect();
        }
        // Serial path with telemetry: capture each cell and sink it
        // immediately — the same per-cell ordering the parallel path
        // reproduces after its join.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let (r, tel) = cell_capture(i, || f(item));
                melody_telemetry::sink_cell(tel);
                r
            })
            .collect();
    }
    // Work stealing via a shared cursor: each worker claims the next
    // unclaimed index and records (index, result); the parent merges
    // them back into item order, so scheduling cannot affect output.
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    type Slot<R> = Option<Result<(R, CellTelemetry), CellPanic>>;
    let mut slots: Vec<Slot<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((
                            i,
                            catch_unwind(AssertUnwindSafe(|| cell_capture(i, || f(item)))),
                        ));
                    }
                    done
                })
            })
            .collect();
        let mut slots: Vec<Slot<R>> = (0..items.len()).map(|_| None).collect();
        for h in handles {
            // Workers never unwind (each cell is caught), so join errors
            // would indicate a bug in this module itself.
            for (i, r) in h.join().expect("exec worker must not panic") {
                slots[i] = Some(r);
            }
        }
        slots
    });
    // All cells have run; re-raise the first failure in *item* order.
    // (Completed cells' telemetry is dropped with the results here — the
    // unwind abandons the run's trace anyway.)
    if let Some(panic) = slots.iter_mut().find_map(|s| match s {
        Some(Err(_)) => match s.take() {
            Some(Err(p)) => Some(p),
            _ => unreachable!(),
        },
        _ => None,
    }) {
        std::panic::resume_unwind(panic);
    }
    slots
        .into_iter()
        .map(|s| match s.expect("every index claimed exactly once") {
            Ok((r, tel)) => {
                melody_telemetry::sink_cell(tel);
                r
            }
            Err(_) => unreachable!("failures re-raised above"),
        })
        .collect()
}

/// A caught panic payload in transit between threads.
type CellPanic = Box<dyn Any + Send + 'static>;

/// Extracts a human-readable message from a panic payload.
fn panic_message(p: &CellPanic) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Why a cell failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellErrorKind {
    /// The cell's closure panicked on every permitted attempt.
    Panicked,
    /// The cell exceeded its watchdog deadline (not retried: a hung cell
    /// is assumed to hang again).
    DeadlineExceeded,
    /// The sweep's cancellation token was set before the cell ran (e.g.
    /// a server drain); the cell was skipped, not attempted.
    Cancelled,
}

/// Process-lifetime totals of retry/deadline/cancellation events across
/// every [`run_cells`] sweep — the source of truth for the retry counts
/// surfaced in `--json` telemetry objects (per-cell telemetry buffers
/// are dropped for failed attempts, so in-capture counters undercount).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Retry attempts actually executed (attempt ≥ 2 of any cell).
    pub retries: u64,
    /// Cells abandoned by the watchdog deadline.
    pub deadline_exceeded: u64,
    /// Cells skipped because the cancellation token was set.
    pub cancelled: u64,
}

static RETRIES_TOTAL: AtomicU64 = AtomicU64::new(0);
static DEADLINES_TOTAL: AtomicU64 = AtomicU64::new(0);
static CANCELLED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide retry/deadline/cancellation totals.
pub fn retry_stats() -> RetryStats {
    RetryStats {
        retries: RETRIES_TOTAL.load(Ordering::Relaxed),
        deadline_exceeded: DEADLINES_TOTAL.load(Ordering::Relaxed),
        cancelled: CANCELLED_TOTAL.load(Ordering::Relaxed),
    }
}

/// A structured record of one failed experiment cell, serialisable into
/// sweep reports so partial results remain interpretable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellError {
    /// Index of the cell in the sweep's item order.
    pub index: usize,
    /// Human-readable cell identity (e.g. `"CXL-C|crc-storm"`).
    pub label: String,
    /// Failure classification.
    pub kind: CellErrorKind,
    /// Panic message (or deadline description).
    pub message: String,
    /// Number of attempts consumed.
    pub attempts: u32,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({}): {:?} after {} attempt(s): {}",
            self.index, self.label, self.kind, self.attempts, self.message
        )
    }
}

/// Failure policy for [`run_cells`].
#[derive(Debug, Clone)]
pub struct CellPolicy {
    /// Maximum attempts per cell (≥ 1). Deterministic cells panic the
    /// same way every time, so the default is a single attempt; sweeps
    /// with known-transient failures can allow more.
    pub max_attempts: u32,
    /// Base backoff before the first retry. Retry `k` (attempt `k + 1`)
    /// sleeps `min(backoff * 2^(k-1), backoff_cap)` plus a deterministic
    /// jitter of up to 25% drawn from `jitter_seed` and the cell index —
    /// seeded, so retry timing is reproducible run-to-run, yet spread,
    /// so retrying cells on a contended host do not stampede in phase.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff schedule (pre-jitter).
    /// The old `backoff * k` linear schedule was unbounded; a sweep with
    /// a large retry budget could sleep for minutes between attempts.
    pub backoff_cap: Duration,
    /// Seed for the deterministic retry jitter. Fixed by default so the
    /// schedule is byte-reproducible; servers may vary it per job.
    pub jitter_seed: u64,
    /// Per-attempt watchdog deadline. `None` disables the watchdog and
    /// runs the cell inline on the worker; `Some(d)` runs each attempt
    /// on a helper thread and abandons it after `d`. An abandoned
    /// attempt's thread is *detached from the result path* but still
    /// joined when the sweep's scope exits, so a truly wedged cell
    /// delays only the final return, never other cells' results.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token. When set to `true` (e.g. by a
    /// drain handler), workers stop *claiming* new cells — each already
    /// in-flight cell finishes normally (and reaches the journal), and
    /// every unclaimed cell comes back as a
    /// [`CellErrorKind::Cancelled`] error instead of running.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Live progress sink. When attached, [`run_cells`] ticks it once
    /// per successfully simulated cell (failed and cancelled cells are
    /// not "done"); observers snapshot it concurrently. `None` (the
    /// default) costs one branch per cell and changes no output.
    pub progress: Option<Arc<crate::progress::Progress>>,
}

impl Default for CellPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x6d65_6c6f_6479, // "melody"
            deadline: None,
            cancel: None,
            progress: None,
        }
    }
}

impl CellPolicy {
    /// A policy permitting `n` attempts per cell.
    pub fn with_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// A policy with a per-attempt watchdog deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// A policy observing `token` as a cooperative cancellation flag.
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// A policy reporting per-cell completions into `sink`.
    pub fn with_progress(mut self, sink: Arc<crate::progress::Progress>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// True when the cancellation token (if any) has been raised.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// The sleep before retry `k` = `attempt - 1` (attempt is 2-based
    /// here): capped exponential backoff plus deterministic seeded
    /// jitter. Pure function of `(policy, cell_index, attempt)` — two
    /// runs of the same sweep produce identical schedules.
    pub fn retry_delay(&self, cell_index: usize, attempt: u32) -> Duration {
        debug_assert!(attempt >= 2, "first attempt never sleeps");
        let base = self.backoff.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.backoff_cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Exponent clamps at 2^32 doublings worth of saturation anyway;
        // keep the shift in range.
        let doublings = (attempt - 2).min(63);
        let exp = base.saturating_mul(1u64.checked_shl(doublings).unwrap_or(u64::MAX));
        let capped = exp.min(cap.max(base));
        // splitmix64 over (seed, cell, attempt): high-quality, cheap,
        // and — unlike wall-clock jitter — reproducible.
        let mut h = self
            .jitter_seed
            .wrapping_add((cell_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let jitter = if capped == 0 { 0 } else { h % (capped / 4 + 1) };
        Duration::from_nanos(capped.saturating_add(jitter))
    }
}

/// Resilient fan-out: maps `f` over `items` on [`jobs`] workers, but a
/// failing cell yields `Err(CellError)` in its slot instead of killing
/// the sweep — every other cell still completes, and results come back
/// in item order (byte-identical across worker counts, like
/// [`parallel_map`]).
///
/// `label` names each cell for error reports. An empty `items` returns
/// at once, without starting a worker.
pub fn run_cells<T, R, F, L>(
    items: &[T],
    policy: &CellPolicy,
    label: L,
    f: F,
) -> Vec<Result<R, CellError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = jobs().min(items.len());
    let cursor = AtomicUsize::new(0);
    let (cursor, f, label, policy) = (&cursor, &f, &label, policy);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        // Cancellation is checked at claim time: cells
                        // already running finish (and checkpoint); cells
                        // not yet claimed are skipped as Cancelled.
                        if policy.cancelled() {
                            CANCELLED_TOTAL.fetch_add(1, Ordering::Relaxed);
                            done.push((
                                i,
                                Err(CellError {
                                    index: i,
                                    label: label(i, item),
                                    kind: CellErrorKind::Cancelled,
                                    message: "sweep cancelled before cell ran".to_string(),
                                    attempts: 0,
                                }),
                            ));
                            continue;
                        }
                        let r = run_one_cell(scope, policy, i, item, label, f);
                        if r.is_ok() {
                            if let Some(p) = &policy.progress {
                                p.tick(crate::progress::Resolution::Simulated);
                            }
                        }
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        let mut slots: Vec<Option<Result<(R, CellTelemetry), CellError>>> =
            (0..items.len()).map(|_| None).collect();
        for h in handles {
            for (i, r) in h.join().expect("exec worker must not panic") {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| match s.expect("every index claimed exactly once") {
                Ok((r, tel)) => {
                    // Sinking in item order keeps trace exports identical
                    // across worker counts.
                    melody_telemetry::sink_cell(tel);
                    Ok(r)
                }
                Err(e) => Err(e),
            })
            .collect()
    })
}

/// Runs one cell under the policy: bounded attempts, deterministic
/// backoff, optional watchdog.
fn run_one_cell<'scope, T, R, F, L>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    policy: &CellPolicy,
    index: usize,
    item: &'scope T,
    label: &L,
    f: &'scope F,
) -> Result<(R, CellTelemetry), CellError>
where
    T: Sync,
    R: Send + 'scope,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String,
{
    let max_attempts = policy.max_attempts.max(1);
    let mut last_panic = String::new();
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            if policy.cancelled() {
                // Draining: don't burn the retry budget of a cell whose
                // result nobody will wait for.
                CANCELLED_TOTAL.fetch_add(1, Ordering::Relaxed);
                return Err(CellError {
                    index,
                    label: label(index, item),
                    kind: CellErrorKind::Cancelled,
                    message: format!("sweep cancelled before retry {attempt}"),
                    attempts: attempt - 1,
                });
            }
            RETRIES_TOTAL.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(policy.retry_delay(index, attempt));
        }
        // Telemetry is captured per attempt; only the successful
        // attempt's buffer survives, so retries cannot duplicate events.
        let run = move || {
            cell_capture(index, || {
                if attempt > 1 {
                    melody_telemetry::count("exec.cell_retries", 1);
                }
                f(item)
            })
        };
        let outcome: Result<Result<(R, CellTelemetry), CellPanic>, ()> = match policy.deadline {
            None => Ok(catch_unwind(AssertUnwindSafe(run))),
            Some(deadline) => {
                // Watchdog: run the attempt on a helper thread and wait
                // with a timeout. On timeout the helper keeps running
                // (its send lands in a dropped channel) and is joined
                // only at scope exit.
                let (tx, rx) = mpsc::channel();
                scope.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(run));
                    let _ = tx.send(r);
                });
                rx.recv_timeout(deadline).map_err(|_| ())
            }
        };
        match outcome {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(p)) => {
                last_panic = panic_message(&p);
                // Panics may be transient (e.g. resource pressure):
                // retry within budget.
            }
            Err(()) => {
                // A hung cell is assumed to hang again: no retry.
                DEADLINES_TOTAL.fetch_add(1, Ordering::Relaxed);
                if melody_telemetry::metrics_on() {
                    melody_telemetry::count("exec.cell_deadlines", 1);
                }
                return Err(CellError {
                    index,
                    label: label(index, item),
                    kind: CellErrorKind::DeadlineExceeded,
                    message: format!("no result within {:?}", policy.deadline.unwrap()),
                    attempts: attempt,
                });
            }
        }
    }
    Err(CellError {
        index,
        label: label(index, item),
        kind: CellErrorKind::Panicked,
        message: last_panic,
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn overlapping_traced_calls_keep_tracing_on_until_the_last_returns() {
        use std::sync::Barrier;
        let (a_in, b_in, a_out) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                traced(|| {
                    a_in.wait();
                    b_in.wait();
                });
                a_out.wait();
            });
            a_in.wait();
            traced(|| {
                b_in.wait();
                a_out.wait();
                assert!(
                    melody_telemetry::trace_on(),
                    "the first call to return turned tracing off under the other"
                );
            });
        });
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = parallel_map_with(workers, &items, |x| x * x);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert_eq!(parallel_map_with(8, &empty, |x| *x), Vec::<u64>::new());
        assert_eq!(parallel_map_with(8, &[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn non_copy_results_collect_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map_with(4, &items, |i| format!("cell-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("cell-{i}"));
        }
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        // Uses the real global, but only reads: the default (0 = auto)
        // must resolve to at least one worker.
        assert!(jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "cell 3 failed")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        parallel_map_with(4, &items, |i| {
            if *i == 3 {
                panic!("cell 3 failed");
            }
            *i
        });
    }

    #[test]
    fn panic_does_not_discard_other_cells() {
        // Every cell must run even though cell 2 panics, and the
        // surfaced panic must be the lowest-indexed failure regardless
        // of scheduling.
        let ran = AtomicU32::new(0);
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(4, &items, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if *i == 2 || *i == 9 {
                    panic!("cell {i} failed");
                }
                *i
            })
        }));
        let p = caught.expect_err("must propagate");
        assert_eq!(panic_message(&p), "cell 2 failed");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "all cells must run");
    }

    #[test]
    fn run_cells_isolates_panics() {
        let items: Vec<usize> = (0..12).collect();
        let out = run_cells(
            &items,
            &CellPolicy::default(),
            |i, _| format!("cell-{i}"),
            |i| {
                if *i == 5 {
                    panic!("boom in 5");
                }
                i * 10
            },
        );
        assert_eq!(out.len(), 12);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().expect_err("cell 5 fails");
                assert_eq!(e.kind, CellErrorKind::Panicked);
                assert_eq!(e.label, "cell-5");
                assert_eq!(e.message, "boom in 5");
                assert_eq!(e.attempts, 1);
            } else {
                assert_eq!(*r.as_ref().expect("others succeed"), i * 10);
            }
        }
    }

    #[test]
    fn run_cells_over_nothing_returns_nothing() {
        let progress = Arc::new(crate::progress::Progress::default());
        let policy = CellPolicy::default().with_progress(progress.clone());
        let out = run_cells(
            &[] as &[u32],
            &policy,
            |_, _| -> String { unreachable!("no cell to label") },
            |_| -> u32 { unreachable!("no cell to run") },
        );
        assert!(out.is_empty());
        assert_eq!(progress.done(), 0);
    }

    #[test]
    fn run_cells_retries_transient_failures() {
        // Fails twice, succeeds on the third attempt.
        let tries = AtomicU32::new(0);
        let policy = CellPolicy {
            backoff: Duration::from_millis(1),
            ..CellPolicy::default()
        }
        .with_attempts(3);
        let out = run_cells(
            &[0u32],
            &policy,
            |_, _| "flaky".into(),
            |_| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                7u32
            },
        );
        assert_eq!(out[0].as_ref().copied().expect("third attempt lands"), 7);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_cells_deadline_flags_hung_cells() {
        let policy = CellPolicy::default().with_deadline(Duration::from_millis(30));
        let out = run_cells(
            &[0u32, 1],
            &policy,
            |i, _| format!("c{i}"),
            |i| {
                if *i == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                *i
            },
        );
        let e = out[0].as_ref().expect_err("cell 0 must time out");
        assert_eq!(e.kind, CellErrorKind::DeadlineExceeded);
        assert_eq!(e.attempts, 1, "timeouts are not retried");
        assert_eq!(*out[1].as_ref().expect("cell 1 fine"), 1);
    }

    #[test]
    fn retry_delay_is_capped_exponential_and_deterministic() {
        let p = CellPolicy {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..CellPolicy::default()
        };
        // Deterministic: the same (cell, attempt) always sleeps the same.
        for attempt in 2..=8 {
            assert_eq!(p.retry_delay(3, attempt), p.retry_delay(3, attempt));
        }
        // Exponential up to the cap: pre-jitter delays are 10, 20, 40,
        // 80, 80, ... ms; jitter adds at most 25%.
        for (attempt, base_ms) in [(2u32, 10u64), (3, 20), (4, 40), (5, 80), (6, 80), (9, 80)] {
            let d = p.retry_delay(0, attempt);
            let base = Duration::from_millis(base_ms);
            assert!(d >= base, "attempt {attempt}: {d:?} < {base:?}");
            assert!(
                d <= base + base / 4,
                "attempt {attempt}: {d:?} exceeds base + 25% jitter"
            );
        }
        // Jitter spreads cells: not every cell sleeps identically.
        let delays: Vec<Duration> = (0..16).map(|cell| p.retry_delay(cell, 5)).collect();
        assert!(
            delays.iter().any(|d| *d != delays[0]),
            "jitter must vary across cells: {delays:?}"
        );
        // A different seed reshuffles the jitter, still deterministically.
        let reseeded = CellPolicy {
            jitter_seed: 7,
            ..p.clone()
        };
        assert_ne!(
            (0..16).map(|c| p.retry_delay(c, 5)).collect::<Vec<_>>(),
            (0..16)
                .map(|c| reseeded.retry_delay(c, 5))
                .collect::<Vec<_>>(),
        );
        // Degenerate zero-backoff policies must not divide by zero.
        let zero = CellPolicy {
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..CellPolicy::default()
        };
        assert_eq!(zero.retry_delay(0, 2), Duration::ZERO);
    }

    #[test]
    fn cancellation_skips_unclaimed_cells() {
        let token = Arc::new(AtomicBool::new(false));
        let policy = CellPolicy::default().with_cancel(token.clone());
        let ran = AtomicU32::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = run_cells(
            &items,
            &policy,
            |i, _| format!("c{i}"),
            |i| {
                // The first executed cell raises the token: everything
                // in flight completes, everything unclaimed is skipped.
                ran.fetch_add(1, Ordering::Relaxed);
                token.store(true, Ordering::Relaxed);
                *i
            },
        );
        let ok = out.iter().filter(|r| r.is_ok()).count();
        let cancelled = out
            .iter()
            .filter(|r| matches!(r, Err(e) if e.kind == CellErrorKind::Cancelled))
            .count();
        assert_eq!(ok + cancelled, items.len());
        assert_eq!(ok as u32, ran.load(Ordering::Relaxed));
        assert!(ok >= 1, "at least the triggering cell completed");
        assert!(cancelled >= 1, "later cells must be skipped");
        // Completed cells kept their results (in item order).
        for (i, r) in out.iter().enumerate() {
            if let Ok(v) = r {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn retry_stats_accumulate() {
        let before = retry_stats();
        let tries = AtomicU32::new(0);
        let policy = CellPolicy {
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..CellPolicy::default()
        }
        .with_attempts(3);
        let out = run_cells(
            &[0u32],
            &policy,
            |_, _| "flaky".into(),
            |_| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                1u32
            },
        );
        assert!(out[0].is_ok());
        let after = retry_stats();
        assert!(
            after.retries >= before.retries + 2,
            "two retries recorded: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn cell_error_serializes() {
        let e = CellError {
            index: 3,
            label: "CXL-C|harsh".into(),
            kind: CellErrorKind::Panicked,
            message: "invalid config".into(),
            attempts: 2,
        };
        let json = serde_json::to_string(&e).expect("serialize");
        let back: CellError = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(e, back);
        assert!(e.to_string().contains("CXL-C|harsh"));
    }
}
